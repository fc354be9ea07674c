"""critical_q's ITP search, against the bisection it replaced."""
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


def _samples():
    return [Q_MAX * k / 16 for k in range(1, 17)]


def _bisection(margin):
    """The bisection critical_q made before ITP: the same samples and probe,
    then midpoints of (0, Q_MAX).  Gives (q*, margin evaluations) for an
    interior root, None for a boundary."""
    margins = [margin(q) for q in _samples()]
    evals = 16
    if margins[-1] > 0.0:
        return None
    if margins[0] <= 0.0:
        evals += 1
        if margin(_samples()[0] * 1e-6) <= 0.0:
            return None
    lo, hi = 0.0, Q_MAX
    for _ in range(scan_module.MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        evals += 1
        fm = margin(mid)
        if abs(fm) <= scan_module.MARGIN_TOL or hi - lo < 1e-14:
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


def _sample_bracket(margin):
    """The sign-change bracket (a, b) of the 16 samples (or of the probe and
    the first sample): margin(a) > 0 >= margin(b)."""
    qs = [_samples()[0] * 1e-6, *_samples()]
    fs = [margin(q) for q in qs]
    b = next(k for k, f in enumerate(fs) if f <= 0.0)
    assert fs[b - 1] > 0.0
    return qs[b - 1], qs[b]


@pytest.mark.parametrize(
    "cid, m, c, want",
    [
        (CriterionId.THETA_IN_S, 1.0, FLAT, (3 - math.sqrt(5)) / 2),
        (CriterionId.THETA_IN_S, 1.0, SpiralClassParams(0.0, 0.5, 0.0), 2 - math.sqrt(3)),
        (CriterionId.G_IN_S, 2.0, SpiralClassParams(0.0, 1.0 / 3.0, 0.0), 0.5),
    ],
)
def test_golden_roots_to_1e_12(cid, m, c, want):
    res = critical_q(cid, "direct", m, c)
    assert res.boundary == ""
    assert abs(res.q_star - want) <= 1e-12
    assert res.iterations <= 8


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

            ref = _bisection(margin)
            counted.qs = []
            res = critical_q(cid, variant, m, c, r)
            if ref is None:
                assert res.boundary
                continue
            roots += 1
            assert res.boundary == ""
            assert len(counted.qs) <= ref[1], (cid, variant, m, c)
            a, b = _sample_bracket(margin)
            assert a <= res.q_star <= b and a <= ref[0] <= b, (cid, variant, m, c)
    assert roots >= 60


def test_iterations_count_the_steps_after_the_samples(monkeypatch):
    counted = _Counted(monkeypatch)
    res = critical_q(CriterionId.THETA_IN_K, "direct", 1.5, SpiralClassParams(0.4, 0.25, 0.3))
    assert len(counted.qs) == 16 + res.iterations
    assert counted.qs[16:][-1] == res.q_star


def test_root_next_to_the_inf_end(monkeypatch):
    # the direct sum at Q_MAX diverges, so the bracket's upper end is the
    # -inf convention, and the first step is a midpoint step
    counted = _Counted(monkeypatch)
    c = SpiralClassParams(0.0, 0.01, 0.0)
    res = critical_q(CriterionId.G_IN_S, "direct", 1.0, c)
    samples = _samples()
    assert counted.qs[15] == Q_MAX
    assert counted.qs[16] == 0.5 * (samples[14] + samples[15])
    assert samples[14] < res.q_star < Q_MAX
    assert abs(res.residual_margin) <= scan_module.MARGIN_TOL
    below = counted.margin(CriterionId.G_IN_S, "direct", 1.0, res.q_star - 1e-9, c, None)
    above = counted.margin(CriterionId.G_IN_S, "direct", 1.0, res.q_star + 1e-9, c, None)
    assert 0.0 < below < 1e-6 and -1e-6 < above < 0.0


def test_root_below_the_first_sample(monkeypatch):
    # margins[0] <= 0: the bracket is (probe, first sample), and the probe
    # is not evaluated again
    counted = _Counted(monkeypatch)
    res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, SpiralClassParams(0.0, 0.999, 0.0))
    probe = _samples()[0] * 1e-6
    assert counted.qs[16] == probe and counted.qs.count(probe) == 1
    assert probe < res.q_star < _samples()[0]
    assert len(counted.qs) == 17 + res.iterations
    assert abs(res.residual_margin) <= scan_module.MARGIN_TOL
