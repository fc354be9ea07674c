"""critical_q's halving bracket and ITP search, against plain bisection,
and its start at the closed-form root."""
import cmath
import importlib
import itertools
import math
import random

import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    RTauParams,
    SpiralClassParams,
    critical_q,
    evaluate_criterion,
)

scan_module = importlib.import_module("pascal_spiral.scan")
criteria_module = importlib.import_module("pascal_spiral.criteria")
Q_MAX = scan_module.Q_MAX
FLAT = SpiralClassParams(0.0, 0.0, 0.0)
RTAU = RTauParams(1.0, 0.6, 0.2)
# the halving probes q = 1 - 2^-k that lie below Q_MAX, k = 1..29
PROBES = [1.0 - 0.5**k for k in range(1, 30)]


def _bisection(margin, tol):
    """Plain bisection of (0, Q_MAX) after the margin at Q_MAX, to
    |margin| <= tol.  Gives (q*, margin evaluations) for an interior root,
    None for a boundary."""
    evals = 1
    if margin(Q_MAX) > 0.0:
        return None
    lo, hi = 0.0, Q_MAX
    for _ in range(scan_module.MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        evals += 1
        fm = margin(mid)
        if abs(fm) <= tol or hi - lo < 1e-14:
            break
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    return mid, evals


class _Counted:
    """scan._margin wrapped to count, and to record, its evaluations."""

    def __init__(self, monkeypatch):
        self.margin, self.qs = scan_module._margin, []
        monkeypatch.setattr(scan_module, "_margin", self)

    def __call__(self, cid, variant, m, q, c, r):
        self.qs.append(q)
        return self.margin(cid, variant, m, q, c, r)


@pytest.fixture
def cold(monkeypatch):
    """critical_q without the closed-form start: every direct search runs
    from the halving probes, as the other variants' searches do."""
    monkeypatch.setattr(scan_module, "_closed_root", lambda *args: None)


def _probe_bracket(margin):
    """The sign-change bracket (a, b) of q = 0 and the halving probes, with
    Q_MAX last: margin(a) > 0 >= margin(b)."""
    qs = [0.0, *PROBES, Q_MAX]
    b = next(k for k, q in enumerate(qs) if k and not margin(q) > 0.0)
    assert margin(qs[b - 1]) > 0.0
    return qs[b - 1], qs[b]


@pytest.mark.parametrize(
    "cid, m, c, want",
    [
        (CriterionId.THETA_IN_S, 1.0, FLAT, (3 - math.sqrt(5)) / 2),
        (CriterionId.THETA_IN_S, 1.0, SpiralClassParams(0.0, 0.5, 0.0), 2 - math.sqrt(3)),
        (CriterionId.G_IN_S, 2.0, SpiralClassParams(0.0, 1.0 / 3.0, 0.0), 0.5),
    ],
)
def test_golden_roots_to_1e_12(cid, m, c, want, monkeypatch):
    counted = _Counted(monkeypatch)
    res = critical_q(cid, "direct", m, c)
    assert res.boundary == ""
    assert abs(res.q_star - want) <= 1e-12
    assert len(counted.qs) <= 12


def test_no_more_evaluations_than_bisection_and_the_same_crossing(monkeypatch):
    rng = random.Random(2020)
    counted = _Counted(monkeypatch)
    roots = 0
    for cid, variant, m in itertools.product(
        CriterionId, ("paper", "rederived", "direct"), (1.0, 1.7, 4.0)
    ):
        r = RTAU if cid.needs_rtau else None
        for _ in range(2):
            c = SpiralClassParams(rng.uniform(-1.2, 1.2), rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9))

            def margin(q):
                return counted.margin(cid, variant, m, q, c, r)

            ref = _bisection(margin, scan_module.MARGIN_TOL * (1.0 - c.gamma))
            counted.qs = []
            res = critical_q(cid, variant, m, c, r)
            if ref is None:
                assert res.boundary
                continue
            roots += 1
            assert res.boundary == ""
            assert len(counted.qs) <= ref[1], (cid, variant, m, c)
            a, b = _probe_bracket(margin)
            assert a <= res.q_star <= b and a <= ref[0] <= b, (cid, variant, m, c)
    assert roots >= 60


def test_iterations_count_the_steps_after_the_probes(monkeypatch, cold):
    counted = _Counted(monkeypatch)
    res = critical_q(CriterionId.THETA_IN_K, "direct", 1.5, SpiralClassParams(0.4, 0.25, 0.3))
    assert 0.0 < res.q_star < PROBES[0]
    assert counted.qs[:2] == [Q_MAX, PROBES[0]]
    assert len(counted.qs) == 2 + res.iterations
    assert counted.qs[-1] == res.q_star


def test_root_next_to_the_inf_end(monkeypatch, cold):
    # the direct sum diverges at the probe 1 - 2^-12, so the bracket's upper
    # end is the -inf convention, and the first step is a midpoint step
    counted = _Counted(monkeypatch)
    c = SpiralClassParams(0.0, 4e-4, 0.0)
    res = critical_q(CriterionId.G_IN_S, "direct", 1.0, c)
    assert counted.qs[:13] == [Q_MAX, *PROBES[:12]]
    assert counted.margin(CriterionId.G_IN_S, "direct", 1.0, PROBES[11], c, None) == -math.inf
    assert counted.qs[13] == 0.5 * (PROBES[10] + PROBES[11])
    assert PROBES[10] < res.q_star < PROBES[11]
    assert abs(res.residual_margin) <= scan_module.MARGIN_TOL * (1.0 - c.gamma)
    below = counted.margin(CriterionId.G_IN_S, "direct", 1.0, res.q_star - 1e-9, c, None)
    above = counted.margin(CriterionId.G_IN_S, "direct", 1.0, res.q_star + 1e-9, c, None)
    assert 0.0 < below < 1e-6 and -1e-6 < above < 0.0


def test_root_below_the_first_probe(monkeypatch, cold):
    # the margin at q = 1/2 is already <= 0: the bracket is (0, 1/2), and its
    # low end takes 1 - gamma without an evaluation
    counted = _Counted(monkeypatch)
    c = SpiralClassParams(0.0, 0.999, 0.0)
    res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, c)
    assert counted.qs[:2] == [Q_MAX, PROBES[0]] and 0.0 not in counted.qs
    assert 0.0 < res.q_star < 1e-3
    assert len(counted.qs) == 2 + res.iterations
    assert abs(res.residual_margin) <= scan_module.MARGIN_TOL * (1.0 - c.gamma)


def test_a_margin_rising_between_probes_is_refused(monkeypatch, cold):
    margins = {Q_MAX: -1.0, PROBES[0]: 0.5, PROBES[1]: 0.6}
    monkeypatch.setattr(scan_module, "_margin", lambda cid, variant, m, q, c, r: margins[q])
    with pytest.raises(scan_module.NonMonotoneMarginError, match="theta-in-s"):
        critical_q(CriterionId.THETA_IN_S, "direct", 1.0, FLAT)


# (criterion, m, class, R^tau) whose direct root the closed-form start
# finds: theta-in-s and integral-in-s at large m, where the closed forms
# raise at Q_MAX, and the lambda criteria at vartheta != 1, from sum_J
HIT_CASES = [
    (CriterionId.THETA_IN_K, 1.5, SpiralClassParams(0.4, 0.25, 0.3), None),
    *[
        (cid, m, SpiralClassParams(0.3, 0.2, 0.1), None)
        for cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_S)
        for m in (40.0, 50.0, 140.0)
    ],
    *[
        (cid, 1.5, SpiralClassParams(0.4, 0.25, 0.3), RTauParams(0.3, vartheta, 0.1))
        for cid in (CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K)
        for vartheta in (0.5, 0.05)
    ],
]


def test_a_closed_form_hit_takes_no_itp_step(monkeypatch):
    counted = _Counted(monkeypatch)
    for cid, m, c, r in HIT_CASES:
        q_h = scan_module._closed_root(cid, "direct", m, c, r)
        counted.qs = []
        res = critical_q(cid, "direct", m, c, r)
        case = (cid, m, c, r)
        assert q_h is not None and counted.qs == [Q_MAX, q_h], case
        assert (res.q_star, res.iterations, res.boundary) == (q_h, 0, ""), case
        assert abs(res.residual_margin) <= scan_module.MARGIN_TOL * (1.0 - c.gamma), case


@pytest.mark.parametrize("cid", [CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K])
@pytest.mark.parametrize("m, vartheta", [(1.5, 1e-300), (600.0, 1e-300), (600.0, 1.0), (627.0, 1.0)])
def test_a_start_where_its_sums_cancel_hits_or_is_none(cid, m, vartheta):
    # J_1 and J_2 divide by vartheta = 1e-300; sum_J's terms alternate and
    # cancel at m = 600 and 627 with vartheta = 1
    c = SpiralClassParams(0.3, 0.2, 0.1)
    r = RTauParams(0.3, vartheta, 0.1)
    q_h = scan_module._closed_root(cid, "direct", m, c, r)
    res = critical_q(cid, "direct", m, c, r)
    assert q_h is None or (res.q_star, res.iterations) == (q_h, 0)


@pytest.mark.parametrize("cid, m, c, start", [
    pytest.param(
        CriterionId.THETA_IN_K, 1.5, SpiralClassParams(0.4, 0.25, 0.3),
        lambda root: root + 0.01, id="above-the-root",
    ),
    pytest.param(
        CriterionId.THETA_IN_K, 1.5, SpiralClassParams(0.4, 0.25, 0.3),
        lambda root: root - 0.01, id="below-the-root",
    ),
    pytest.param(
        CriterionId.G_IN_S, 2.0, SpiralClassParams(0.0, 0.25, 0.0),
        lambda root: 0.51, id="above-the-first-probe",
    ),
    # the direct sum diverges at the probe 1 - 2^-12 (test_root_next_to_the_inf_end)
    pytest.param(
        CriterionId.G_IN_S, 1.0, SpiralClassParams(0.0, 4e-4, 0.0),
        lambda root: PROBES[11], id="where-the-sum-diverges",
    ),
])
def test_a_missed_start_leaves_the_cold_search(monkeypatch, cold, cid, m, c, start):
    # a start whose margin misses the stop rule is dropped after its one
    # evaluation: the search then takes the cold search's probes and steps
    counted = _Counted(monkeypatch)
    res_cold = critical_q(cid, "direct", m, c)
    cold_qs, counted.qs = counted.qs, []
    q_h = start(res_cold.q_star)
    monkeypatch.setattr(scan_module, "_closed_root", lambda *args: q_h)
    res = critical_q(cid, "direct", m, c)
    assert counted.qs == [Q_MAX, q_h, *cold_qs[1:]]
    assert res == res_cold


@pytest.mark.parametrize("closed_lhs", [
    lambda cid, p, c, r, rederived: 1.0 / 0.0,
    # the margin rises from the probe q = 1/2 to q = 3/4
    lambda cid, p, c, r, rederived: [
        {scan_module._START_Q_MAX: 2.0, PROBES[0]: 0.5, PROBES[1]: 0.4}[p.q]
    ],
    lambda cid, p, c, r, rederived: [0.5],  # satisfied for all q
])
def test_no_start_where_the_closed_search_fails(monkeypatch, closed_lhs):
    monkeypatch.setattr(scan_module, "_lhs_closed", closed_lhs)
    assert scan_module._closed_root(CriterionId.THETA_IN_S, "direct", 2.0, FLAT, None) is None
    counted = _Counted(monkeypatch)
    res = critical_q(CriterionId.THETA_IN_S, "direct", 2.0, FLAT)
    assert counted.qs[:2] == [Q_MAX, PROBES[0]]
    assert len(counted.qs) == 2 + res.iterations


@pytest.mark.parametrize("cid, variant, vartheta", [
    (CriterionId.THETA_IN_S, "paper", 1.0),
    (CriterionId.THETA_IN_K, "rederived", 1.0),
])
def test_no_start_where_closed_and_direct_differ(cid, variant, vartheta):
    r = RTauParams(0.3, vartheta, 0.1)
    assert scan_module._closed_root(cid, variant, 2.0, FLAT, r) is None


def _sweep_case(rng, i):
    cid = list(CriterionId)[i % len(CriterionId)]
    if rng.random() < 0.5:
        m = 1.0 + 10.0 ** rng.uniform(-7.0, -1.0)
    else:
        m = 10.0 ** rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        xi = math.pi / 2 - 10.0 ** rng.uniform(-4.0, -1.0)
    else:
        xi = rng.uniform(0.0, 1.2)
    gamma = 1.0 - 10.0 ** rng.uniform(-3.0, -1.0) if rng.random() < 0.5 else rng.uniform(0.0, 0.9)
    rho = 1.0 - 10.0 ** rng.uniform(-3.0, -1.0) if rng.random() < 0.5 else rng.uniform(0.0, 0.9)
    c = SpiralClassParams(rng.choice((-1.0, 1.0)) * xi, gamma, rho)
    r = None
    if cid.needs_rtau:
        vartheta = 1.0 if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
        tau = cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        r = RTauParams(tau, vartheta, rng.uniform(-1.0, 0.9))
    return cid, m, c, r


def test_seeded_sweep_roots_meet_the_stop_rule_and_match_the_cold_search(monkeypatch):
    """All six criteria over the documented domain, m - 1 from 1e-7 to 1e-1,
    lambda at vartheta = 1 and below with complex tau.  Cases whose root
    lies above q = 0.99 are left out: near q = 0.9997 the direct sum meets
    its term cap, and its -inf gives the false root pinned in
    test_known_defects.py, with or without the closed-form start."""
    rng = random.Random(18)
    closed_root = scan_module._closed_root
    roots, kinds, missed = [], set(), []
    for i in range(240):
        cid, m, c, r = _sweep_case(rng, i)

        def margin(q):
            return evaluate_criterion(cid, PascalParams(m, q), c, r).margin

        if not margin(0.99) < 0.0:
            continue
        res = critical_q(cid, "direct", m, c, r)
        monkeypatch.setattr(scan_module, "_closed_root", lambda *args: None)
        cold = critical_q(cid, "direct", m, c, r)
        monkeypatch.setattr(scan_module, "_closed_root", closed_root)
        case = (cid, m, c, r, res)
        assert res.boundary == "", case
        assert abs(res.residual_margin) <= scan_module.MARGIN_TOL * (1.0 - c.gamma), case
        h = 1e-5 * res.q_star + 1e-9
        assert margin(res.q_star - h) > 0.0 > margin(res.q_star + h), case
        assert abs(res.q_star - cold.q_star) <= 1e-9, (case, cold)
        if res.iterations and closed_root(cid, "direct", m, c, r) is not None:
            missed.append(case)  # a closed-form start that still took ITP steps
        roots.append(res.q_star)
        kinds.add((cid, r is not None and r.vartheta == 1.0, m < 1.1))
    assert len(roots) >= 200
    assert missed == []
    assert min(roots) < 1e-6 and max(roots) > 0.95
    assert len(kinds) == 4 * 2 + 2 * 4


def test_sum_j_evaluations_per_lambda_root(monkeypatch):
    """The start of a direct lambda root calls sum_J once per closed margin,
    outside the benchmark's traced functions, so its count is kept here:
    over the 75 lambda roots of the seeded sweep above, 816 calls (10.9 per
    root); more than 13.5 per root means the start's search grew."""
    calls = []
    sum_j = criteria_module.sum_J

    def counted(p, vartheta):
        calls.append(p.q)
        return sum_j(p, vartheta)

    monkeypatch.setattr(criteria_module, "sum_J", counted)
    rng = random.Random(18)
    roots = 0
    for i in range(240):
        cid, m, c, r = _sweep_case(rng, i)
        if cid.needs_rtau and evaluate_criterion(cid, PascalParams(m, 0.99), c, r).margin < 0.0:
            critical_q(cid, "direct", m, c, r)
            roots += 1
    assert roots >= 60
    assert len(calls) <= 13.5 * roots, len(calls) / roots
