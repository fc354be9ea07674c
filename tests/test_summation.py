import math
import random

import mpmath
import numpy as np
import pytest

from pascal_spiral import summation
from pascal_spiral import (
    PascalParams,
    SummationDivergenceError,
    adaptive_truncation_order,
    all_identity_reports,
    identity_report,
    oracle_sum,
    sum_S0,
    sum_S1,
    sum_S2,
    sum_Sinv,
    sum_J,
)

M_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
Q_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestClosedForms:
    def test_S0_geometric_case(self):
        assert sum_S0(PascalParams(1, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_S0_hand_value(self):
        assert sum_S0(PascalParams(2, 0.5)) == pytest.approx(3.0, abs=1e-14)

    def test_S1_geometric_derivative(self):
        assert sum_S1(PascalParams(1, 0.5)) == pytest.approx(2.0, abs=1e-14)

    def test_S1_hand_value(self):
        assert sum_S1(PascalParams(3, 0.2)) == pytest.approx(1.46484375, abs=1e-14)

    def test_S2_hand_values(self):
        assert sum_S2(PascalParams(1, 0.5)) == pytest.approx(4.0, abs=1e-13)
        assert sum_S2(PascalParams(2, 0.3)) == pytest.approx(
            0.09 * 6 / 0.7**4, abs=1e-13
        )

    def test_Sinv_log_limit(self):
        expected = (math.log(2) - 0.5) / 0.5
        assert sum_Sinv(PascalParams(1, 0.5)) == pytest.approx(expected, abs=1e-15)

    def test_Sinv_hand_value_m2(self):
        assert sum_Sinv(PascalParams(2, 0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_all_vanish_at_q_zero(self):
        p = PascalParams(3, 0.0)
        assert sum_S0(p) == sum_S1(p) == sum_S2(p) == sum_Sinv(p) == 0.0

    def test_Sinv_continuous_across_m_one(self):
        for q in (0.1, 0.5, 0.9):
            a = sum_Sinv(PascalParams(1.0, q))
            b = sum_Sinv(PascalParams(1.0 + 1e-8, q))
            assert abs(a - b) <= 1e-6


def _draw_m_q(rng):
    """m log-uniform in [1, 100] or 1 + log-uniform in [1e-7, 0.1], and q
    log-uniform in [1e-10, 0.05] or uniform in [0.05, 0.995], each half the
    draws."""
    if rng.random() < 0.5:
        m = 10.0 ** rng.uniform(0.0, 2.0)
    else:
        m = 1.0 + 10.0 ** rng.uniform(-7.0, -1.0)
    if rng.random() < 0.5:
        return m, 10.0 ** rng.uniform(-10.0, math.log10(0.05))
    return m, rng.uniform(0.05, 0.995)


def test_S0_to_S2_match_50_digits():
    # sum_S0 taken as (1-q)^-m - 1 cancels as q -> 0: up to 1.1e-6 relative
    # off over 3,000 such draws
    rng = random.Random(26)
    for _ in range(2000):
        m, q = _draw_m_q(rng)
        with mpmath.workdps(50):
            mm, qq = mpmath.mpf(m), mpmath.mpf(q)
            want = (
                (1 - qq) ** -mm - 1,
                qq * mm / (1 - qq) ** (mm + 1),
                qq**2 * mm * (mm + 1) / (1 - qq) ** (mm + 2),
            )
        for fn, ref in zip((sum_S0, sum_S1, sum_S2), want):
            got = fn(PascalParams(m, q))
            assert abs(got - ref) <= 1e-13 * ref, (fn.__name__, m, q)


def _sinv_50_digits(m, q):
    """sum_Sinv as (L expm1(y)/y - q)/q, L = -log1p(-q), y = (m-1)L, at 50
    digits; only the final - q cancels, and at q >= 1e-12 it costs at most
    13 of them."""
    with mpmath.workdps(50):
        m, q = mpmath.mpf(m), mpmath.mpf(q)
        L = -mpmath.log1p(-q)
        y = (m - 1) * L
        return float((L * (mpmath.expm1(y) / y if y else 1) - q) / q)


class TestSinvAtEveryM:
    """sum_Sinv's one form, from m = 1 + 1e-15 to m = 1001."""

    def test_reference_is_the_series(self):
        with mpmath.workdps(40):
            for m, q in ((1.0 + 1e-15, 1e-12), (1.0 + 1e-9, 1e-3), (1.00005, 0.05), (3.0, 0.5)):
                mm, qq = mpmath.mpf(m), mpmath.mpf(q)
                direct = mpmath.nsum(
                    lambda n: mpmath.binomial(n + mm - 2, mm - 1) * qq ** (n - 1) / n,
                    [2, mpmath.inf],
                )
                assert abs(_sinv_50_digits(m, q) - direct) <= 1e-16 * direct

    def test_matches_40_digits(self):
        # the final - q cancels like the m = 1 limit, (-ln(1-q) - q)/q: about
        # eps/q relative as q -> 0, where the sum is about q/2; (1-q)^m adds
        # about m eps
        rng = random.Random(60)
        for _ in range(300):
            m = 1.0 + 10.0 ** rng.uniform(-15.0, 3.0)
            q = 10.0 ** rng.uniform(-12.0, math.log10(0.999))
            want = _sinv_50_digits(m, q)
            got = sum_Sinv(PascalParams(m, q))
            assert abs(got - want) <= 8.0 * (1.0 / q + m) * np.finfo(float).eps * want, (m, q)

    def test_sums_no_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("oracle_sum called")

        monkeypatch.setattr(summation, "oracle_sum", refuse)
        assert sum_Sinv(PascalParams(1.0 + 1e-6, 0.3)) > 0.0
        assert sum_Sinv(PascalParams(40.0, 0.3)) > 0.0

    def test_underflowing_exponent_takes_the_m_one_limit(self):
        # y = (m-1)(-ln(1-q)) rounds to 0 here, and -expm1(-y)/y would divide by it
        q = 1e-310
        assert sum_Sinv(PascalParams(1.0 + 2.0**-52, q)) == sum_Sinv(PascalParams(1.0, q))


def _j_50_digits(m, q, vartheta):
    """sum_J from the hypergeometric identity
    sum_{k>=0} (m)_k q^k/(k! (1 + vartheta k)) = 2F1(m, a; a+1; q), a = 1/vartheta."""
    with mpmath.workdps(50):
        m, q, a = mpmath.mpf(m), mpmath.mpf(q), 1 / mpmath.mpf(vartheta)
        return (1 - q) ** m * (mpmath.hyp2f1(m, a, a + 1, q) - 1)


Q_TOP = 1.0 - 2.0**-7


class TestSumJ:
    """sum_J, the R^tau-weighted NB sum that starts the lambda roots."""

    def test_matches_50_digits(self):
        # m - 1 log-uniform in [1e-7, 11], q log-uniform in [1e-12, 1 - 2^-7],
        # vartheta uniform in [0.05, 1]: 400 cases, worst 4.5e-16 relative
        rng = random.Random(20)
        worst = 0.0
        for _ in range(400):
            m = 1.0 + 10.0 ** rng.uniform(-7.0, math.log10(11.0))
            q = 10.0 ** rng.uniform(-12.0, math.log10(Q_TOP))
            vartheta = rng.uniform(0.05, 1.0)
            ref = _j_50_digits(m, q, vartheta)
            got = sum_J(PascalParams(m, q), vartheta)
            worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= 4e-15

    @pytest.mark.parametrize("m, q, vartheta", [
        (12.0, Q_TOP, 1.0), (11.5, 0.99, 1.0), (12.0, Q_TOP, 0.9), (12.0, 0.9, 1.0),
    ])
    def test_alternating_terms_stay_within_the_cancellation_limit(self, m, q, vartheta):
        # m > 1/vartheta + 1: the first terms alternate, and cancel by up to
        # CANCELLATION_LIMIT; 4.8e-14, 7.2e-14, 2.2e-14, 4.5e-15 relative
        ref = _j_50_digits(m, q, vartheta)
        got = sum_J(PascalParams(m, q), vartheta)
        assert abs(got - ref) <= summation.CANCELLATION_LIMIT * 2.0**-52 * ref

    @pytest.mark.parametrize("m, q", [(1.0, 0.3), (1.5, 1e-9), (2.5, 0.6), (7.0, 0.9)])
    def test_vartheta_one_is_scaled_sinv(self, m, q):
        p = PascalParams(m, q)
        assert sum_J(p, 1.0) == pytest.approx((1.0 - q) ** m * sum_Sinv(p), rel=1e-14)

    def test_vanishing_vartheta_gives_one_minus_t(self):
        # 1/(1 + vartheta k) -> 1, and J -> P(X >= 1) = 1 - (1-q)^m
        p = PascalParams(2.0, 0.4)
        assert sum_J(p, 1e-300) == pytest.approx(1.0 - 0.6**2, rel=1e-15)

    def test_q_zero(self):
        assert sum_J(PascalParams(3.0, 0.0), 0.5) == 0.0

    @pytest.mark.parametrize("m, q, vartheta", [
        (600.0, 0.5, 1.0),  # alternating terms of about 1e100
        (2000.0, 0.9, 1.0),  # alternating terms past the float range
        (2.0, 0.5, 5e-324),  # a = 1/vartheta is inf
    ])
    def test_cancelling_sums_are_refused(self, m, q, vartheta):
        with pytest.raises(FloatingPointError, match="sum_J cancels"):
            sum_J(PascalParams(m, q), vartheta)

    def test_refuses_past_the_term_cap(self):
        # about 37/(1-q) = 3.7e10 terms at q = 1 - 1e-9
        with pytest.raises(SummationDivergenceError):
            sum_J(PascalParams(1.5, 1.0 - 1e-9), 0.5)

    def test_refuses_a_sum_that_stops_only_past_the_cap(self):
        # its stop rule is first met only in a block that would end past
        # TRUNCATION_CAP terms
        p = PascalParams(1.0004619058677051, 0.9997234719728562)
        with pytest.raises(SummationDivergenceError, match="within 100000 terms"):
            sum_J(p, 0.15783463711361392)


class TestOracle:
    def test_weight_one_matches_S0(self):
        p = PascalParams(2, 0.5)
        value, _ = oracle_sum(np.ones_like, p)
        assert abs(value - 3.0) < 1e-12

    def test_q_zero_short_circuit(self):
        value, order = oracle_sum(lambda n: n - 1.0, PascalParams(2, 0.0))
        assert value == 0.0 and order == 2

    def test_custom_weight_n(self):
        # sum n q^{n-1} over n>=2 is 1/(1-q)^2 - 1 for m = 1
        value, _ = oracle_sum(lambda n: n, PascalParams(1, 0.5))
        assert abs(value - 3.0) < 1e-12

    def test_partial_sum_n2_vanishes_for_rising2(self):
        # the n = 2 term of the (n-1)(n-2) sum is identically zero
        p = PascalParams(2, 0.3)
        value, order = oracle_sum(lambda n: (n - 1.0) * (n - 2.0) * (n <= 2), p)
        assert value == 0.0

    def test_divergence_reports_last_term(self):
        p = PascalParams(1.0, 0.99)
        for hit_cap in (
            lambda: oracle_sum(np.ones_like, p, cap=100),
            lambda: adaptive_truncation_order(p, cap=100),
        ):
            with pytest.raises(SummationDivergenceError) as info:
                hit_cap()
            err = info.value
            assert err.last_term > 0
            assert err.order == 100
            assert repr(err) == f"SummationDivergenceError({str(err)!r})"
            assert err.args == (str(err),)

    def test_deterministic_truncation_order(self):
        p = PascalParams(3, 0.6)
        assert oracle_sum(lambda n: 1.0 / n, p) == oracle_sum(lambda n: 1.0 / n, p)


class TestIdentityGrid:
    @pytest.mark.parametrize("m", M_GRID)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_closed_form_vs_oracle(self, m, q):
        p = PascalParams(m, q)
        for rep in all_identity_reports(p):
            assert rep.abs_error <= 1e-9 * max(1.0, abs(rep.closed_form)), rep

    @pytest.mark.parametrize("m", M_GRID)
    def test_strictly_increasing_in_q(self, m):
        for fn in (sum_S0, sum_S1, sum_S2, sum_Sinv):
            values = [fn(PascalParams(m, q)) for q in Q_GRID]
            assert all(b > a for a, b in zip(values, values[1:])), fn.__name__


class TestIdentityReport:
    def test_fields_consistent(self):
        rep = identity_report("S1", PascalParams(2, 0.4))
        assert rep.abs_error == abs(rep.closed_form - rep.truncated)
        assert rep.truncation_order >= 2

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            identity_report("S9", PascalParams(2, 0.4))
