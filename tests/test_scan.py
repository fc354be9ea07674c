import importlib
import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pascal_spiral import (
    BOUNDARY_ALL_Q,
    CriterionId,
    CriticalQ,
    PascalParams,
    RTauParams,
    SpiralClassParams,
    SummationDivergenceError,
    critical_q,
    evaluate_criterion,
    scan,
)

FLAT = SpiralClassParams(0.0, 0.0, 0.0)
RTAU1 = RTauParams(1.0, 1.0, 0.0)
# the module, not the scan function the package exports under the same name
SCAN_MODULE = importlib.import_module("pascal_spiral.scan")


class TestGoldenValues:
    def test_geometric_flat_root(self):
        res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, FLAT)
        assert abs(res.q_star - (3 - math.sqrt(5)) / 2) < 1e-8
        assert res.boundary == ""

    def test_geometric_gamma_half_root(self):
        c = SpiralClassParams(0.0, 0.5, 0.0)
        res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, c)
        assert abs(res.q_star - (2 - math.sqrt(3))) < 1e-8

    def test_gamma_near_one_forces_tiny_q(self):
        c = SpiralClassParams(0.0, 0.999, 0.0)
        res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, c)
        assert res.q_star < 0.01


class TestCriticalQ:
    def test_bracketing_at_root(self):
        res = critical_q(CriterionId.THETA_IN_S, "direct", 2.0, FLAT)
        below = evaluate_criterion(
            CriterionId.THETA_IN_S, PascalParams(2.0, res.q_star - 1e-6), FLAT
        )
        above = evaluate_criterion(
            CriterionId.THETA_IN_S, PascalParams(2.0, res.q_star + 1e-6), FLAT
        )
        assert below.satisfied
        assert not above.satisfied

    def test_iteration_budget(self):
        for cid in CriterionId:
            r = RTAU1 if cid.needs_rtau else None
            res = critical_q(cid, "direct", 2.0, FLAT, r)
            assert res.iterations <= 60
            # either the margin converged or the bracket collapsed to a point
            assert abs(res.residual_margin) <= 1e-6

    def test_deterministic(self):
        c = SpiralClassParams(0.4, 0.25, 0.3)
        a = critical_q(CriterionId.THETA_IN_K, "direct", 1.5, c)
        b = critical_q(CriterionId.THETA_IN_K, "direct", 1.5, c)
        assert a == b

    @pytest.mark.parametrize("variant", ["rederived", "direct"])
    def test_root_below_q_1e_9_is_interior(self, variant):
        # the margin is 1 - gamma at q = 0 and +0.6 at q = 1e-10, so the
        # root is interior, however small; it is not "unsatisfied for all q"
        r = RTauParams(1e9, 1.0, 0.0)
        res = critical_q(CriterionId.LAMBDA_RTAU_IN_S, variant, 2.0, FLAT, r)
        assert res.boundary == ""
        assert 1e-10 < res.q_star < 1e-9
        at = [
            evaluate_criterion(CriterionId.LAMBDA_RTAU_IN_S, PascalParams(2.0, q), FLAT, r, variant).margin
            for q in (1e-10, 1e-9)
        ]
        assert at[0] > 0.5 and at[1] < 0.0

    def test_root_where_the_margin_is_tiny_in_scale(self):
        # 1-gamma = 1e-7 and |tau| = 1e-7 scale the whole margin down, so
        # that |margin| <= 1e-10 spans about 1e-3 in q; the stop rule is
        # relative to 1-gamma, and the margin changes sign within 1e-6 of q*
        c = SpiralClassParams(0.0, 1.0 - 1e-7, 0.0)
        r = RTauParams(1e-7, 1.0, 0.0)
        res = critical_q(CriterionId.LAMBDA_RTAU_IN_S, "direct", 2.0, c, r)
        assert res.boundary == ""
        below, above = (
            evaluate_criterion(CriterionId.LAMBDA_RTAU_IN_S, PascalParams(2.0, q), c, r).margin
            for q in (res.q_star - 1e-6, res.q_star + 1e-6)
        )
        assert below > 0.0 > above

    def test_paper_variant_agrees_for_coherent_criterion(self):
        c = SpiralClassParams(0.5, 0.25, 0.3)
        a = critical_q(CriterionId.THETA_IN_S, "paper", 2.0, c)
        b = critical_q(CriterionId.THETA_IN_S, "direct", 2.0, c)
        assert abs(a.q_star - b.q_star) < 1e-8

    def test_overstated_variant_gives_smaller_root(self):
        # the convex-side closed form overstates the sum, so its root is lower
        a = critical_q(CriterionId.THETA_IN_K, "paper", 1.0, FLAT)
        b = critical_q(CriterionId.THETA_IN_K, "direct", 1.0, FLAT)
        assert a.q_star < b.q_star

    def test_returns_named_tuple_like(self):
        res = critical_q(CriterionId.THETA_IN_S, "direct", 1.0, FLAT)
        assert isinstance(res, CriticalQ)
        assert 0.0 < res.q_star < 1.0


class TestMonotonicity:
    def test_q_star_decreasing_in_m(self):
        roots = [
            critical_q(CriterionId.THETA_IN_S, "direct", m, FLAT).q_star
            for m in (1.0, 2.0, 3.0)
        ]
        assert roots[0] > roots[1] > roots[2]

    def test_q_star_decreasing_in_abs_xi(self):
        roots = [
            critical_q(
                CriterionId.THETA_IN_S,
                "direct",
                2.0,
                SpiralClassParams(xi, 0.25, 0.3),
            ).q_star
            for xi in (0.0, math.pi / 6, math.pi / 3)
        ]
        assert roots[0] > roots[1] > roots[2]

    def test_q_star_decreasing_in_gamma(self):
        roots = [
            critical_q(
                CriterionId.G_IN_S, "direct", 2.0, SpiralClassParams(0.0, g, 0.0)
            ).q_star
            for g in (0.0, 0.25, 0.5, 0.75)
        ]
        assert all(b < a for a, b in zip(roots, roots[1:]))


class TestMarginDecreasesInQ:
    """critical_q brackets its root on the theorem that every margin
    decreases in q (scan's module docstring); this checks it over the
    documented domain, for each (criterion, variant) form."""

    @pytest.mark.parametrize(
        "cid, variant", [(cid, v) for cid in CriterionId for v in ("paper", "rederived", "direct")]
    )
    @given(
        m=st.floats(1.0, 50.0),
        qs=st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2, unique=True).map(sorted),
        xi=st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True),
        gamma=st.floats(0.0, 1.0, exclude_max=True),
        rho=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_subnormal=False),
        vartheta=st.floats(0.0, 1.0, exclude_min=True),
        delta=st.floats(-10.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_margin_decreases_in_q(self, cid, variant, m, qs, xi, gamma, rho, tau, vartheta, delta):
        c = SpiralClassParams(xi, gamma, rho)
        r = RTauParams(tau, vartheta, delta)
        try:
            v1, v2 = (evaluate_criterion(cid, PascalParams(m, q), c, r, variant) for q in qs)
        except (SummationDivergenceError, ZeroDivisionError, OverflowError):
            reject()  # the large-m defects of ROADMAP item 5
        assert v1.margin >= v2.margin - 1e-9 * max(1.0, abs(v2.lhs))


class TestScan:
    def test_singleton_grid_matches_critical_q(self):
        rows = scan(
            CriterionId.THETA_IN_S, "direct", (2.0,), (0.5,), (0.25,), (0.3,)
        )
        assert len(rows) == 1
        row = rows[0]
        ref = critical_q(
            CriterionId.THETA_IN_S, "direct", 2.0, SpiralClassParams(0.5, 0.25, 0.3)
        )
        assert row.q_star == ref.q_star
        assert row.iterations == ref.iterations
        assert row.error == ""

    def test_row_order_is_lexicographic(self):
        rows = scan(
            CriterionId.THETA_IN_S, "direct", (1.0, 2.0), (0.0,), (0.0, 0.5), (0.0,)
        )
        keys = [(r.m, r.xi, r.gamma, r.rho) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 4

    def test_boundary_field_blank_on_interior_roots(self):
        rows = scan(
            CriterionId.THETA_IN_S, "direct", (1.0, 3.0), (0.0,), (0.0, 0.5), (0.0,)
        )
        assert all(r.boundary == "" for r in rows)
        assert all(r.boundary != BOUNDARY_ALL_Q for r in rows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan(CriterionId.THETA_IN_S, "direct", (), (0.0,), (0.0,), (0.0,))

    def test_one_shot_grids_give_the_tuple_rows(self):
        # the inner grids are walked once per outer value; iterators once
        # gave the rows of the first outer value only
        grids = ((1.0, 2.0), (0.0, 0.5), (0.0, 0.5), (0.0, 0.3))
        rows = scan(CriterionId.THETA_IN_S, "direct", *grids)
        assert len(rows) == 16
        assert scan(CriterionId.THETA_IN_S, "direct", *map(iter, grids)) == rows

    @pytest.mark.parametrize("position", range(4))
    def test_empty_generator_grid_rejected(self, position):
        # an empty generator is truthy, and once gave no rows and no error
        grids = [(1.0,), (0.0,), (0.0,), (0.0,)]
        grids[position] = (x for x in ())
        with pytest.raises(ValueError, match="grid must be nonempty"):
            scan(CriterionId.THETA_IN_S, "direct", *grids)

    def test_rtau_criteria_need_params(self):
        rows = scan(
            CriterionId.LAMBDA_RTAU_IN_S, "direct", (2.0,), (0.0,), (0.0,), (0.0,)
        )
        assert rows[0].error != ""
        rows = scan(
            CriterionId.LAMBDA_RTAU_IN_S,
            "direct",
            (2.0,),
            (0.0,),
            (0.0,),
            (0.0,),
            r=RTAU1,
        )
        assert rows[0].error == ""
        assert 0.0 < rows[0].q_star < 1.0

    def test_row_captures_m_below_one(self):
        rows = scan(CriterionId.THETA_IN_S, "direct", (0.5,), (0.0,), (0.0,), (0.0,))
        assert rows[0].error == "shape parameter m must be >= 1, got 0.5"

    def test_row_captures_non_monotone_margin(self, monkeypatch):
        def non_monotone(*args, **kwargs):
            raise SCAN_MODULE.NonMonotoneMarginError("margin rises")

        monkeypatch.setattr(SCAN_MODULE, "critical_q", non_monotone)
        rows = scan(CriterionId.THETA_IN_S, "direct", (1.0,), (0.0,), (0.0,), (0.0,))
        assert rows[0].error == "margin rises"

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(SCAN_MODULE, "critical_q", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            scan(CriterionId.THETA_IN_S, "direct", (1.0,), (0.0,), (0.0,), (0.0,))
