"""critical_q's halving bracket and ITP search, against plain bisection."""
import importlib
import itertools
import math
import random

import pytest

from pascal_spiral import CriterionId, RTauParams, SpiralClassParams, critical_q

scan_module = importlib.import_module("pascal_spiral.scan")
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


def test_iterations_count_the_steps_after_the_probes(monkeypatch):
    counted = _Counted(monkeypatch)
    res = critical_q(CriterionId.THETA_IN_K, "direct", 1.5, SpiralClassParams(0.4, 0.25, 0.3))
    assert 0.0 < res.q_star < PROBES[0]
    assert counted.qs[:2] == [Q_MAX, PROBES[0]]
    assert len(counted.qs) == 2 + res.iterations
    assert counted.qs[-1] == res.q_star


def test_root_next_to_the_inf_end(monkeypatch):
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


def test_root_below_the_first_probe(monkeypatch):
    # the margin at q = 1/2 is already <= 0: the bracket is (0, 1/2), and its
    # low end takes 1 - gamma without an evaluation
    counted = _Counted(monkeypatch)
    c = SpiralClassParams(0.0, 0.999, 0.0)
    res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, c)
    assert counted.qs[:2] == [Q_MAX, PROBES[0]] and 0.0 not in counted.qs
    assert 0.0 < res.q_star < 1e-3
    assert len(counted.qs) == 2 + res.iterations
    assert abs(res.residual_margin) <= scan_module.MARGIN_TOL * (1.0 - c.gamma)


def test_a_margin_rising_between_probes_is_refused(monkeypatch):
    margins = {Q_MAX: -1.0, PROBES[0]: 0.5, PROBES[1]: 0.6}
    monkeypatch.setattr(scan_module, "_margin", lambda cid, variant, m, q, c, r: margins[q])
    with pytest.raises(scan_module.NonMonotoneMarginError, match="theta-in-s"):
        critical_q(CriterionId.THETA_IN_S, "direct", 1.0, FLAT)
