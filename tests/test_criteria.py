import math

import numpy as np
import pytest

from pascal_spiral import (
    CriterionId,
    PascalParams,
    PowerSeries,
    RTauParams,
    SpiralClassParams,
    corollary,
    deficiency,
    discrepancy_report,
    evaluate_all,
    evaluate_criterion,
    identity_series,
    theta_series,
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


class TestDeficiency:
    def test_identity_series(self):
        c = SpiralClassParams(0.3, 0.4, 0.2)
        assert deficiency(identity_series(), c, "S") == -(1 - 0.4)

    def test_constructed_tight_case(self):
        c = SpiralClassParams(0.3, 0.4, 0.2)
        f = PowerSeries([(1 - c.gamma) / weight_S(2, c)])
        assert abs(deficiency(f, c, "S")) < 1e-15

    def test_matches_direct_criterion_sign(self):
        p = PascalParams(1, 0.2)
        f = theta_series(p)
        assert deficiency(f, FLAT, "S") < 0
        assert evaluate_criterion(CriterionId.THETA_IN_S, p, FLAT).satisfied


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
            out = evaluate_all(CriterionId.THETA_IN_K, PascalParams(m, q), c)
            assert abs(out["rederived"].lhs - out["direct"].lhs) <= 1e-9 * max(
                1.0, abs(out["direct"].lhs)
            )

    def test_convex_printed_form_disagrees(self):
        out = evaluate_all(CriterionId.THETA_IN_K, PascalParams(1, 0.5), FLAT)
        assert abs(out["paper"].lhs - out["direct"].lhs) > 1e-6
        assert out["direct"].disagreement > 1e-6

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
        out = evaluate_all(CriterionId.LAMBDA_RTAU_IN_S, p, c, RTAU1)
        assert abs(out["paper"].lhs - out["direct"].lhs) <= 1e-9 * max(
            1.0, abs(out["direct"].lhs)
        )

    def test_convolution_direct_tighter_for_small_vartheta(self):
        p = PascalParams(2, 0.4)
        c = SpiralClassParams(0.4, 0.2, 0.3)
        r = RTauParams(1.0, 0.25, 0.0)
        out = evaluate_all(CriterionId.LAMBDA_RTAU_IN_S, p, c, r)
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
