import cmath
import dataclasses
import importlib
import itertools
import math
import random

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

    def test_rederived_lambda_in_s_takes_no_false_root_at_large_tau(self):
        # rederived bounds the R^tau weight 1/(1+vartheta(n-1)) above by
        # 1/(vartheta n), so its margin is at most direct's at every q, and its
        # q* at most direct's; as q -> 0 both margins tend to 1 - gamma = 0.209
        c, r = SpiralClassParams(-1.137, 0.791, 0.732), RTauParams(3e8, 0.316, -0.803)
        cid = CriterionId.LAMBDA_RTAU_IN_S
        margin = evaluate_criterion(cid, PascalParams(8.12, 1e-24), c, r, "rederived").margin
        assert math.isclose(margin, 1.0 - c.gamma, rel_tol=1e-6)
        rederived = critical_q(cid, "rederived", 8.12, c, r).q_star
        assert rederived <= critical_q(cid, "direct", 8.12, c, r).q_star

    @pytest.mark.parametrize("cid, variant, m, c, r", [
        pytest.param(
            CriterionId.LAMBDA_RTAU_IN_S, "direct", 2.0, FLAT, RTauParams(0.3, 1.0, 0.0),
            id="lambda-in-s-m2",
        ),
        pytest.param(
            CriterionId.LAMBDA_RTAU_IN_S, "direct", 5.5, SpiralClassParams(0.7, 0.3, 0.4),
            RTauParams(cmath.rect(0.02, 2.0), 0.3, -2.0), id="lambda-in-s-m5.5",
        ),
        pytest.param(
            CriterionId.LAMBDA_RTAU_IN_S, "direct", 1.00005, SpiralClassParams(-1.2, 0.6, 0.2),
            RTauParams(0.01 - 0.02j, 0.8, 0.5), id="lambda-in-s-m1.00005",
        ),
        # the equality class: A = 1-gamma = 1, and the margin (1-q)^m is
        # positive at every q, however small; the closed margin rounds to
        # 0.0 at Q_MAX, the bound itself
        pytest.param(CriterionId.G_IN_S, "direct", 1.0, FLAT, None, id="integral-in-s-m1"),
        pytest.param(CriterionId.G_IN_S, "direct", 3.0, FLAT, None, id="integral-in-s-m3"),
        *(
            pytest.param(
                CriterionId.G_IN_S, variant, m, FLAT, None, id=f"integral-in-s-{variant}-m{m:g}",
            )
            for variant in ("paper", "rederived") for m in (2.0, 3.0, 10.0)
        ),
    ])
    def test_bounded_lhs_finds_no_false_root(self, cid, variant, m, c, r):
        # the lhs stays below its limit, A for integral-in-s and
        # 2|tau|(1-delta) A/vartheta for lambda-in-s, which is at most
        # 1 - gamma here: the direct sum that diverges at Q_MAX gives the
        # bound 1 - gamma - limit >= 0, not -inf, and a margin >= 0 at
        # Q_MAX is all-q, so no q is a root
        res = critical_q(cid, variant, m, c, r)
        prefactor = 1.0 if r is None else 2.0 * abs(r.tau) * (1.0 - r.delta) / r.vartheta
        bound = 1.0 - c.gamma - prefactor * c.slope
        assert bound >= 0.0
        assert res == CriticalQ(SCAN_MODULE.Q_MAX, 0, bound, BOUNDARY_ALL_Q)

    @pytest.mark.parametrize("m", [35.0, 40.0, 400.0, 3000.0])
    @pytest.mark.parametrize("variant", ["paper", "rederived", "direct"])
    @pytest.mark.parametrize("cid", list(CriterionId))
    def test_root_at_large_m(self, cid, variant, m):
        # the closed forms of theta-in-s and integral-in-k raise
        # ZeroDivisionError at Q_MAX from m = 35, those of lambda-in-s and
        # integral-in-s from m = 36; such a margin is its limit bound, -inf
        # here, and the search goes on to the root near q = 0.0006-0.05
        c, r = SpiralClassParams(0.3, 0.2, 0.1), RTauParams(0.5, 1.0, 0.0)
        res = critical_q(cid, variant, m, c, r)
        assert res.boundary == ""
        if abs(res.residual_margin) > SCAN_MODULE.MARGIN_TOL * (1.0 - c.gamma):
            below, above = (
                evaluate_criterion(cid, PascalParams(m, q), c, r, variant).margin
                for q in (res.q_star * (1.0 - 1e-6), res.q_star * (1.0 + 1e-6))
            )
            assert below > 0.0 > above

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
        # log-uniform down to 1e-14, where a closed form's rounding could make
        # a margin rise; st.floats(1e-12, 0.999) almost never draws below 1e-3
        qs=st.lists(
            st.floats(-14.0, math.log10(0.999)).map(lambda e: 10.0**e),
            min_size=2, max_size=2, unique=True,
        ).map(sorted),
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


class TestMarginDecreasesInM:
    """Every margin decreases in m too (scan's module docstring), in each
    (criterion, variant) form; ROADMAP item 10's kappa region rests on it."""

    @pytest.mark.parametrize(
        "cid, variant", [(cid, v) for cid in CriterionId for v in ("paper", "rederived", "direct")]
    )
    @given(
        ms=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=2, unique=True).map(sorted),
        q=st.floats(-14.0, math.log10(0.999)).map(lambda e: 10.0**e),
        xi=st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True),
        gamma=st.floats(0.0, 1.0, exclude_max=True),
        rho=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_subnormal=False),
        vartheta=st.floats(0.0, 1.0, exclude_min=True),
        delta=st.floats(-10.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_margin_decreases_in_m(self, cid, variant, ms, q, xi, gamma, rho, tau, vartheta, delta):
        c = SpiralClassParams(xi, gamma, rho)
        r = RTauParams(tau, vartheta, delta)
        try:
            v1, v2 = (evaluate_criterion(cid, PascalParams(m, q), c, r, variant) for m in ms)
        except (SummationDivergenceError, ZeroDivisionError, OverflowError):
            reject()  # the large-m defects of ROADMAP item 5
        assert v1.margin >= v2.margin - 1e-9 * max(1.0, abs(v2.lhs))


class TestPastOracleReach:
    """scan._margin sums nothing where scan._past_oracle_reach certifies that
    the direct sum cannot meet the oracle's stop rule by its cap (the module
    docstring)."""

    def test_certified_sums_diverge(self):
        # seeded draws over the documented domain, with 1-q in [1e-12, 1e-3]
        rng, fired, walked = random.Random(28), 0, 0
        cap = SCAN_MODULE.TRUNCATION_CAP
        for i in range(300):
            cid = list(CriterionId)[i % len(CriterionId)]
            p = PascalParams(
                1.0 + 10.0 ** rng.uniform(-12.0, math.log10(3e3 - 1.0)),
                1.0 - 10.0 ** rng.uniform(-12.0, -3.0),
            )
            gamma = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)
            c = SpiralClassParams(rng.uniform(-1.5, 1.5), gamma, rng.uniform(0.0, 0.99))
            tau = 10.0 ** rng.uniform(-40.0, 3.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            r = RTauParams(tau, 10.0 ** rng.uniform(-3.0, 0.0), -(10.0 ** rng.uniform(-2.0, 6.0)))
            if not SCAN_MODULE._past_oracle_reach(p.q):
                continue
            fired += 1
            # a coefficient ratio below 1 at the cap: the sum is not doomed
            # by its ratios alone, only by the tail bound's slow decay
            walked += p.q * (cap + p.m - 1.0) / cap < 1.0
            with pytest.raises(SummationDivergenceError):
                evaluate_criterion(cid, p, c, r, "direct")
        # the draw reaches both kinds of certified sum
        assert fired >= 150 and walked >= 20, (fired, walked)

    def test_sums_of_tiny_terms_are_certified(self):
        # the stop rule is relative, so a sum of tiny terms is as far from
        # stopping as any other: at m = 1 and |tau| = 1e-30, lambda-in-s at
        # Q_MAX is certified, would raise, and reads its limit rule bound
        # 1-gamma - L = 1 - 2e-30, an all-q verdict
        r = RTauParams(1e-30, 1.0, 0.0)
        cid, q = CriterionId.LAMBDA_RTAU_IN_S, SCAN_MODULE.Q_MAX
        assert SCAN_MODULE._past_oracle_reach(q)
        with pytest.raises(SummationDivergenceError):
            evaluate_criterion(cid, PascalParams(1.0, q), FLAT, r, "direct")
        bound = 1.0 - 2e-30
        assert SCAN_MODULE._margin(cid, "direct", 1.0, q, FLAT, r) == bound
        res = critical_q(cid, "direct", 1.0, FLAT, r)
        assert res == CriticalQ(q, 0, bound, BOUNDARY_ALL_Q)

    @pytest.mark.parametrize("variant", ["paper", "rederived", "direct"])
    @pytest.mark.parametrize("cid", [CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K])
    def test_lambda_without_rtau_still_raises(self, cid, variant, monkeypatch):
        # at m = 1 the direct margin at Q_MAX would be certified for any r,
        # but with no r it is an error, not the all-q bound; critical_q
        # checks r once, before its first probe
        calls = []
        monkeypatch.setattr(SCAN_MODULE, "_margin", lambda *args: calls.append(args) or 0.0)
        c = SpiralClassParams(0.0, 0.5, 0.0)
        with pytest.raises(ValueError, match=f"^{cid.value} requires R\\^tau parameters$"):
            critical_q(cid, variant, 1.0, c, None)
        assert calls == []


class TestCrossVariantRoots:
    """Where paper, rederived and direct are equal in exact arithmetic
    (theta-in-s, integral-in-k, integral-in-s, and lambda-in-s at vartheta
    = 1), the three variants give the same root.  A closed lhs that is not
    finite (ROADMAP item 5) is read like one that cannot be evaluated."""

    @pytest.mark.parametrize("variant", ["paper", "rederived"])
    @pytest.mark.parametrize("cid, m, c, r, q_direct", [
        # the closed lhs reads -inf at Q_MAX, where (1-q)^m is subnormal:
        # once read as margin +inf, an all-q verdict
        pytest.param(
            CriterionId.G_IN_S, 35.787668118436216,
            SpiralClassParams(-1.2719247142287187, 0.30539566616915825, 0.46675909021854145),
            None, 0.0173582540782156, id="integral-in-s-m35.8",
        ),
        pytest.param(
            CriterionId.LAMBDA_RTAU_IN_S, 35.787668118436216, SpiralClassParams(0.3, 0.2, 0.1),
            RTauParams(0.5, 1.0, 0.0), 0.0510618672128, id="lambda-in-s-m35.8",
        ),
        # the lhs reads -inf at q = 0.0625, above the root: once read as
        # margin +inf, a false root at q = 0.0634 with residual -inf
        pytest.param(
            CriterionId.G_IN_S, 11368.456845750045,
            SpiralClassParams(-0.6538811999763078, 0.028044796024926613, 0.13421455994049314),
            None, 1.7084183288e-4, id="integral-in-s-m11368",
        ),
        # the lhs reads -inf at the first halving probe, q = 1/2: once read
        # as margin +inf, above 1-gamma, a NonMonotoneMarginError
        pytest.param(
            CriterionId.G_IN_S, 1039.9226245360026,
            SpiralClassParams(1.0922534926317535, 0.3388152296515011, 0.7464556029874259),
            None, 1.29185055424e-3, id="integral-in-s-m1040",
        ),
    ])
    def test_non_finite_closed_lhs_takes_the_direct_root(self, cid, variant, m, c, r, q_direct):
        res = critical_q(cid, variant, m, c, r)
        assert res.boundary == "" and math.isfinite(res.residual_margin)
        assert math.isclose(res.q_star, q_direct, rel_tol=1e-6)

    @staticmethod
    def _draws(count, seed, rtau):
        """Seeded (m, class, r) over the documented domain: m log-uniform in
        [1, 1e5] 70 % of the time, else m - 1 log-uniform in [1e-9, 1]."""
        rng = random.Random(seed)
        for _ in range(count):
            if rng.random() < 0.7:
                m = 10.0 ** rng.uniform(0.0, 5.0)
            else:
                m = 1.0 + 10.0 ** rng.uniform(-9.0, 0.0)
            c = SpiralClassParams(
                rng.uniform(-1.0, 1.0) * math.pi / 2, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            )
            r = None
            if rtau:
                tau = 10.0 ** rng.uniform(-3.0, 3.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                r = RTauParams(tau, 1.0, rng.uniform(-10.0, 1.0))
            yield m, c, r

    @pytest.mark.parametrize("cids, count, seed, rtau", [
        pytest.param(
            (CriterionId.THETA_IN_S, CriterionId.G_IN_K, CriterionId.G_IN_S), 300, 22, False,
            id="theta-in-s,integral-in-k,integral-in-s",
        ),
        pytest.param((CriterionId.LAMBDA_RTAU_IN_S,), 200, 23, True, id="lambda-in-s"),
    ])
    def test_closed_variants_give_the_direct_root(self, cids, count, seed, rtau):
        disagree = []
        for m, c, r in self._draws(count, seed, rtau):
            for cid in cids:
                want = critical_q(cid, "direct", m, c, r)
                for variant in ("paper", "rederived"):
                    got = critical_q(cid, variant, m, c, r)
                    if got.boundary != want.boundary or not math.isclose(
                        got.q_star, want.q_star, rel_tol=1e-6
                    ):
                        disagree.append((cid.value, variant, m, c, r, got, want))
        assert disagree == []


class TestDirectStarts:
    """A direct root first tries the root of its closed margin (the module
    docstring); a start that meets the stop rule is the root, with no ITP
    step (iterations == 0)."""

    def test_no_start_is_missed_as_gamma_tends_to_one(self):
        # 600 seeded direct roots with 1-gamma log-uniform in [1e-6, 1e-3]
        # and m log-uniform in [1, 10], where MARGIN_TOL (1-gamma) is far
        # below 1: the relative stop rule lets each start meet it.
        # integral-in-s is left out of the assertion: its closed start takes
        # sum_Sinv, whose final - q cancels by about (1/q + m) eps relative
        # (the strict xfail test_sum_sinv_is_accurate_at_small_q), and its
        # closed search can stop on the absolute _Q_TOL bracket, so it
        # misses at q* near 1e-6 (ROADMAP items 5 and 17)
        rng, missed = random.Random(4), []
        for i in range(600):
            cid = list(CriterionId)[i % len(CriterionId)]
            m = 10.0 ** rng.uniform(0.0, 1.0)
            gamma = 1.0 - 10.0 ** rng.uniform(-6.0, -3.0)
            c = SpiralClassParams(rng.uniform(-1.0, 1.0) * math.pi / 2, gamma, rng.uniform(0.0, 1.0))
            r = None
            if cid.needs_rtau:
                tau = 10.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                r = RTauParams(tau, rng.uniform(0.05, 1.0), rng.uniform(-1.0, 0.9))
            res = critical_q(cid, "direct", m, c, r)
            assert res.boundary == "", (cid, m, c, r, res)
            if res.iterations and res.q_star >= 1e-6 and cid is not CriterionId.G_IN_S:
                missed.append((cid.value, m, c, r, res))
        assert missed == []


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

    @pytest.mark.parametrize("cid, variant, r", [
        (CriterionId.THETA_IN_S, "direct", None),
        (CriterionId.G_IN_S, "paper", None),
        (CriterionId.LAMBDA_RTAU_IN_K, "direct", RTauParams(0.3, 1.0, 0.1)),
    ])
    def test_every_row_field_is_its_critical_q_field(self, cid, variant, r):
        grids = ((1.0, 3.0, 200.0), (0.0, 0.5), (0.0, 0.5), (0.0, 0.3))
        rows = scan(cid, variant, *grids, r=r)
        assert len(rows) == 24
        for row, (m, xi, gamma, rho) in zip(rows, itertools.product(*grids)):
            res = critical_q(cid, variant, m, SpiralClassParams(xi, gamma, rho), r)
            assert (row.criterion, row.variant, row.m, row.xi, row.gamma, row.rho, row.error) == (
                cid.value, variant, m, xi, gamma, rho, ""
            )
            assert {f.name: getattr(row, f.name) for f in dataclasses.fields(CriticalQ)} == (
                dataclasses.asdict(res)
            )
        # integral-in-s is all-q at xi = gamma = 0
        assert {row.boundary for row in rows} == (
            {"", BOUNDARY_ALL_Q} if cid is CriterionId.G_IN_S else {""}
        )

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
        assert "requires R^tau parameters" in rows[0].error
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

    def test_row_without_rtau_reports_it_before_m(self):
        rows = scan(CriterionId.LAMBDA_RTAU_IN_K, "direct", (0.5,), (0.0,), (0.0,), (0.0,))
        assert rows[0].error == "lambda-in-k requires R^tau parameters"

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


@pytest.mark.parametrize("cid", list(CriterionId))
@pytest.mark.parametrize("rederived", [False, True])
def test_one_class_closed_lhs_is_a_plain_float(cid, rederived):
    # the start of a direct root evaluates one class at a time; its value is
    # the one a batch of classes gives that class
    criteria = importlib.import_module("pascal_spiral.criteria")
    p, c = PascalParams(2.5, 0.4), SpiralClassParams(0.3, 0.2, 0.1)
    one = criteria._lhs_closed(cid, p, c, RTAU1, rederived)
    batch = criteria._lhs_closed(cid, p, criteria._columns([c, FLAT]), RTAU1, rederived)
    assert [type(v) for v in one] == [float]
    assert one == batch[:1]
