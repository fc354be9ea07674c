import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    RTauParams,
    SpiralClassParams,
    corollary,
    critical_q,
    discrepancy_report,
    evaluate_all,
    evaluate_criterion,
    weight_K,
    weight_S,
)
from pascal_spiral import criteria

FLAT = SpiralClassParams(0.0, 0.0, 0.0)
RTAU1 = RTauParams(1.0, 1.0, 0.0)


class TestClassParams:
    def test_rejects_xi_at_half_pi(self):
        with pytest.raises(ValueError):
            SpiralClassParams(math.pi / 2, 0.0, 0.0)

    def test_rejects_gamma_one(self):
        with pytest.raises(ValueError):
            SpiralClassParams(0.0, 1.0, 0.0)

    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            SpiralClassParams(0.0, 0.0, 1.0)


class TestWeights:
    def test_weight_S_hand_values(self):
        assert weight_S(2, FLAT) == 2.0
        c = SpiralClassParams(math.pi / 3, 0.5, 0.5)
        assert weight_S(3, c) == pytest.approx(3.0, abs=1e-12)

    def test_weight_S_rho_zero_form(self):
        c = SpiralClassParams(0.4, 0.3, 0.0)
        for n in range(2, 10):
            expected = (n - 1) / math.cos(0.4) + (1 - 0.3)
            assert weight_S(n, c) == pytest.approx(expected, rel=1e-15)

    def test_weight_K_is_n_times_weight_S(self):
        c = SpiralClassParams(math.pi / 3, 0.5, 0.5)
        assert weight_K(2, FLAT) == 4.0
        assert weight_K(3, c) == pytest.approx(9.0, abs=1e-12)

    def test_weight_S_increasing_in_n(self):
        c = SpiralClassParams(0.7, 0.2, 0.4)
        n = np.arange(2.0, 50.0)
        assert np.all(np.diff(weight_S(n, c)) > 0)


class TestCriterionExamples:
    def test_spiral_closed_form_hand_value(self):
        v = evaluate_criterion(CriterionId.THETA_IN_S, PascalParams(1, 0.2), FLAT, variant="paper")
        assert v.lhs == pytest.approx(0.3125, abs=1e-14)
        assert v.margin == pytest.approx(0.6875, abs=1e-14)
        assert v.satisfied

    def test_spiral_direct_tight_point(self):
        q_star = (3 - math.sqrt(5)) / 2
        v = evaluate_criterion(
            CriterionId.THETA_IN_S, PascalParams(1, q_star), FLAT, variant="direct"
        )
        assert abs(v.margin) < 1e-8

    def test_integral_spiral_tight_gamma(self):
        c = SpiralClassParams(0.0, 1.0 / 3.0, 0.0)
        v = evaluate_criterion(CriterionId.G_IN_S, PascalParams(2, 0.5), c, variant="direct")
        assert abs(v.margin) < 1e-12

    def test_convex_rederived_matches_direct(self):
        for (m, q) in ((1.0, 0.5), (2.0, 0.3), (5.0, 0.7)):
            c = SpiralClassParams(0.5, 0.25, 0.3)
            out, _ = evaluate_all(CriterionId.THETA_IN_K, PascalParams(m, q), c)
            assert abs(out["rederived"].lhs - out["direct"].lhs) <= 1e-9 * max(
                1.0, abs(out["direct"].lhs)
            )

    def test_convex_printed_form_disagrees(self):
        out, disagreement = evaluate_all(CriterionId.THETA_IN_K, PascalParams(1, 0.5), FLAT)
        assert abs(out["paper"].lhs - out["direct"].lhs) > 1e-6
        assert disagreement > 1e-6

    def test_rtau_required_for_convolution_criteria(self):
        with pytest.raises(ValueError):
            evaluate_criterion(CriterionId.LAMBDA_RTAU_IN_S, PascalParams(1, 0.2), FLAT)

    def test_rtau_ignored_elsewhere(self):
        a = evaluate_criterion(CriterionId.THETA_IN_S, PascalParams(1, 0.2), FLAT)
        b = evaluate_criterion(
            CriterionId.THETA_IN_S, PascalParams(1, 0.2), FLAT, r=RTAU1
        )
        assert a == b

    def test_convolution_coherent_at_vartheta_one(self):
        # with vartheta = 1 the published 1/(vartheta*n) relaxation is exact
        p = PascalParams(2, 0.4)
        c = SpiralClassParams(0.4, 0.2, 0.3)
        out, _ = evaluate_all(CriterionId.LAMBDA_RTAU_IN_S, p, c, RTAU1)
        assert abs(out["paper"].lhs - out["direct"].lhs) <= 1e-9 * max(
            1.0, abs(out["direct"].lhs)
        )

    def test_convolution_direct_tighter_for_small_vartheta(self):
        p = PascalParams(2, 0.4)
        c = SpiralClassParams(0.4, 0.2, 0.3)
        r = RTauParams(1.0, 0.25, 0.0)
        out, _ = evaluate_all(CriterionId.LAMBDA_RTAU_IN_S, p, c, r)
        assert out["direct"].lhs < out["paper"].lhs

    def test_integral_convex_identical_to_spiral(self):
        p = PascalParams(3, 0.6)
        c = SpiralClassParams(0.5, 0.25, 0.3)
        for variant in ("paper", "rederived", "direct"):
            a = evaluate_criterion(CriterionId.THETA_IN_S, p, c, variant=variant)
            b = evaluate_criterion(CriterionId.G_IN_K, p, c, variant=variant)
            assert a.lhs == b.lhs

    def test_xi_sign_irrelevant(self):
        p = PascalParams(2, 0.3)
        a = evaluate_criterion(
            CriterionId.THETA_IN_S, p, SpiralClassParams(0.7, 0.2, 0.1)
        )
        b = evaluate_criterion(
            CriterionId.THETA_IN_S, p, SpiralClassParams(-0.7, 0.2, 0.1)
        )
        assert a.lhs == b.lhs


class TestCorollary:
    def test_bitwise_equal_to_rho_zero(self):
        p = PascalParams(2, 0.4)
        c = SpiralClassParams(0.5, 0.25, 0.0)
        for cid in CriterionId:
            r = RTAU1 if cid.needs_rtau else None
            for variant in ("paper", "rederived", "direct"):
                assert corollary(cid, p, c, r, variant) == evaluate_criterion(
                    cid, p, c, r, variant
                )

    def test_corollary1_closed_form(self):
        # q m sec(xi) / (1-q)^{m+1}
        p = PascalParams(2, 0.3)
        c = SpiralClassParams(0.5, 0.25, 0.6)  # rho is forced to zero
        v = corollary(CriterionId.THETA_IN_S, p, c, variant="paper")
        expected = 0.3 * 2 / math.cos(0.5) / 0.7**3
        assert v.lhs == pytest.approx(expected, rel=1e-14)

    def test_corollary5_equals_corollary1(self):
        p = PascalParams(2, 0.3)
        c = SpiralClassParams(0.5, 0.25, 0.0)
        a = corollary(CriterionId.THETA_IN_S, p, c, variant="paper")
        b = corollary(CriterionId.G_IN_K, p, c, variant="paper")
        assert a.lhs == b.lhs


def _closed_50_digits(cid, m, q, c, r, rederived):
    """The paper or rederived closed lhs of cid at 50 digits, written as
    printed, in powers of 1-q."""
    with mpmath.workdps(50):
        m, q = mpmath.mpf(m), mpmath.mpf(q)
        s, g, rho = mpmath.sec(c.xi), mpmath.mpf(c.gamma), mpmath.mpf(c.rho)
        a, b = (1 - rho) * s + rho * (1 - g), 1 - g
        m0, m1 = 1 - (1 - q) ** m, m * q / (1 - q)
        m2 = m * (m + 1) * q**2 / (1 - q) ** 2
        if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
            return a * q * m / (1 - q) ** (m + 1)
        if not rederived:
            lhs = ((1 - rho) * s + b) * m2 + (2 * (1 - rho) * s + b * (4 - rho)) * m1
            lhs += b * (2 - rho) * m0
        elif cid is CriterionId.THETA_IN_K:
            lhs = a * m2 + (2 * a + b) * m1 + b * m0
        else:
            lhs = a * m1 + b * m0
        if cid is CriterionId.LAMBDA_RTAU_IN_K:
            lhs *= 2 * abs(mpmath.mpmathify(r.tau)) * (1 - mpmath.mpf(r.delta)) / r.vartheta
        return lhs


@pytest.mark.parametrize("cid", [
    CriterionId.THETA_IN_S, CriterionId.G_IN_K, CriterionId.THETA_IN_K, CriterionId.LAMBDA_RTAU_IN_K,
])
def test_closed_forms_match_50_digits(cid):
    # m log-uniform in [1, 100] or 1 + log-uniform in [1e-7, 0.1], q
    # log-uniform in [1e-10, 0.05] or uniform in [0.05, 0.995].  P(X >= 1)
    # taken as 1 - (1-q)^m cancels as q -> 0, and puts the convex forms up
    # to 2.8e-7 relative off over 3,000 such draws.
    # integral-in-s and lambda-in-s take sum_Sinv, whose final - q cancels at
    # small q (the strict xfail test_sum_sinv_is_accurate_at_small_q, ROADMAP
    # item 5), and are left out
    rng = random.Random(26)
    for _ in range(400):
        if rng.random() < 0.5:
            m = 10.0 ** rng.uniform(0.0, 2.0)
        else:
            m = 1.0 + 10.0 ** rng.uniform(-7.0, -1.0)
        if rng.random() < 0.5:
            q = 10.0 ** rng.uniform(-10.0, math.log10(0.05))
        else:
            q = rng.uniform(0.05, 0.995)
        c = SpiralClassParams(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
        tau = cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        r = RTauParams(tau, rng.uniform(0.05, 1.0), rng.uniform(-1.0, 0.9))
        for variant in ("paper", "rederived"):
            want = _closed_50_digits(cid, m, q, c, r, variant == "rederived")
            got = evaluate_criterion(cid, PascalParams(m, q), c, r, variant).lhs
            assert abs(got - want) <= 1e-13 * want, (variant, m, q, c, r)


class TestExactRtauLhs:
    """criteria._lhs_rtau_exact, the closed form of the direct lambda lhs at
    every vartheta that starts the direct lambda roots."""

    @pytest.mark.parametrize("cid", [CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K])
    def test_matches_the_direct_sum(self, cid):
        # m - 1 log-uniform in [1e-7, 11], q log-uniform in [1e-8, 0.99],
        # vartheta uniform in [0.05, 1], complex tau: worst 9.8e-15
        rng = random.Random(20)
        for _ in range(150):
            m = 1.0 + 10.0 ** rng.uniform(-7.0, math.log10(11.0))
            p = PascalParams(m, 10.0 ** rng.uniform(-8.0, math.log10(0.99)))
            c = SpiralClassParams(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
            tau = cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            r = RTauParams(tau, rng.uniform(0.05, 1.0), rng.uniform(-1.0, 0.9))
            direct = evaluate_criterion(cid, p, c, r, "direct").lhs
            exact = criteria._lhs_rtau_exact(cid, p, c, r)
            assert abs(exact - direct) <= 1e-12 * max(1.0, abs(direct)), (m, p.q, c, r)

    def test_equals_the_rederived_form_at_vartheta_one(self):
        p, c = PascalParams(2.5, 0.4), SpiralClassParams(0.5, 0.25, 0.3)
        for cid in (CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K):
            rederived = evaluate_criterion(cid, p, c, RTAU1, "rederived").lhs
            assert criteria._lhs_rtau_exact(cid, p, c, RTAU1) == pytest.approx(rederived, rel=1e-14)

    def test_refuses_where_its_differences_cancel(self):
        # J_2 divides by vartheta twice: about (1 + 2/vartheta)^2 ulps
        p, r = PascalParams(2.0, 0.01), RTauParams(1.0, 0.01, 0.0)
        criteria._lhs_rtau_exact(CriterionId.LAMBDA_RTAU_IN_S, p, FLAT, r)
        with pytest.raises(FloatingPointError, match="lambda-in-k"):
            criteria._lhs_rtau_exact(CriterionId.LAMBDA_RTAU_IN_K, p, FLAT, r)


class TestMonotonicity:
    @pytest.mark.parametrize("cid", list(CriterionId))
    def test_direct_lhs_increasing_in_q(self, cid):
        c = SpiralClassParams(0.5, 0.25, 0.3)
        r = RTAU1 if cid.needs_rtau else None
        values = [
            evaluate_criterion(cid, PascalParams(2, q), c, r).lhs
            for q in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def _lattice_draw(rng):
    """(m, q, class, R^tau): m up to 50, q in [0.001, 0.97], the documented
    class domain, complex tau, vartheta in [0.05, 1], delta in [-3, 0.9]."""
    m = 10.0 ** rng.uniform(0.0, math.log10(50.0))
    q = rng.uniform(0.001, 0.97)
    c = SpiralClassParams(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99))
    tau = cmath.rect(10.0 ** rng.uniform(-2.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
    return m, q, c, RTauParams(tau, rng.uniform(0.05, 1.0), rng.uniform(-3.0, 0.9))


class TestInclusionLattice:
    """The paper's inclusion relations, from the direct weights ordered term
    by term (w_S = weight_S, P = 2|tau|(1-delta), vartheta <= 1):
    n w_S >= w_S >= w_S/n, lambda-in-k's weight is n times lambda-in-s's,
    and P w_S/(1 + vartheta(n-1)) >= P w_S/n.  Each relation is checked in
    the variants where its proof holds: the printed convex forms exceed the
    rederived ones, so the K => S relations hold in every variant; the
    printed lambda-in-s form is not the direct one times P."""

    def test_lhs_and_verdicts_follow_the_weights(self):
        rng = random.Random(23)
        for _ in range(200):
            m, q, c, r = _lattice_draw(rng)
            p = PascalParams(m, q)
            big_p = 2.0 * abs(r.tau) * (1.0 - r.delta)
            for variant in ("paper", "rederived", "direct"):
                v = {cid: evaluate_criterion(cid, p, c, r, variant) for cid in CriterionId}
                case = (m, q, c, r, variant)
                assert v[CriterionId.THETA_IN_S].satisfied or not v[CriterionId.THETA_IN_K].satisfied, case
                assert v[CriterionId.THETA_IN_S].lhs == v[CriterionId.G_IN_K].lhs, case
                assert v[CriterionId.LAMBDA_RTAU_IN_K].lhs >= v[CriterionId.LAMBDA_RTAU_IN_S].lhs, case
                if variant != "paper":
                    assert v[CriterionId.LAMBDA_RTAU_IN_S].lhs >= big_p * v[CriterionId.G_IN_S].lhs, case

    def test_critical_q_follows_the_weights(self):
        # q*(theta-in-k) <= q*(theta-in-s) <= q*(integral-in-s); the roots
        # of this draw lie at least 2e-4 apart, far above the search's
        # accuracy
        rng = random.Random(230)
        for _ in range(40):
            m, _, c, _ = _lattice_draw(rng)
            for variant in ("rederived", "direct"):
                k, s, g = (
                    critical_q(cid, variant, m, c).q_star
                    for cid in (CriterionId.THETA_IN_K, CriterionId.THETA_IN_S, CriterionId.G_IN_S)
                )
                assert k <= s <= g, (m, c, variant)


class TestDiscrepancyReport:
    def test_reduced_grid_flags_only_convex_side(self):
        report = discrepancy_report(
            m_grid=(1.0, 2.0),
            q_grid=(0.2, 0.5),
            xi_grid=(0.0, math.pi / 6),
            gamma_grid=(0.0, 0.5),
            rho_grid=(0.0, 0.3),
        )
        counts = report["flagged_counts"]
        assert counts["theta-in-k"] >= 1
        assert counts["lambda-in-k"] >= 1
        for cid in ("theta-in-s", "lambda-in-s", "integral-in-k", "integral-in-s"):
            assert counts[cid] == 0
        assert report["points_checked"] == 2 * 2 * 2 * 2 * 2 * 6

    def test_one_shot_grids_give_the_tuple_report(self):
        # the inner grids are walked once per outer value; with
        # gamma_grid=iter((0.0, 0.5)) a report once checked 12 points, not 24
        grids = dict(
            m_grid=(1.0, 2.0), q_grid=(0.2, 0.5), xi_grid=(0.0, 0.3),
            gamma_grid=(0.0, 0.5), rho_grid=(0.0, 0.3),
        )
        report = discrepancy_report(threshold=0.0, **grids)
        assert report["points_checked"] == 6 * 2 ** 5
        for name in grids:
            one_shot = dict(grids, **{name: iter(grids[name])})
            assert discrepancy_report(threshold=0.0, **one_shot) == report, name
        assert discrepancy_report(
            m_grid=(2.0,), q_grid=(0.3,), xi_grid=(0.0,), gamma_grid=iter((0.0, 0.5)), rho_grid=(0.0,)
        )["points_checked"] == 6 * 2

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1e-6])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        # a nan threshold once flagged nothing and was echoed as NaN
        with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
            discrepancy_report(threshold=threshold, m_grid=(1.0,), q_grid=(0.2,))

    def test_missing_rtau_raises_before_any_sum(self, monkeypatch):
        # r=None once raised AttributeError from the lambda closed forms,
        # after the theta sums had run
        calls = []
        monkeypatch.setattr(criteria, "oracle_sum", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"lambda-in-s requires R\^tau parameters"):
            discrepancy_report(r=None, m_grid=(2.0,), q_grid=(0.3,))
        assert calls == []
