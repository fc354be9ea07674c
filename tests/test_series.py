import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascal_spiral import (
    CriterionId,
    PascalParams,
    PowerSeries,
    RTauParams,
    SpiralClassParams,
    SummationDivergenceError,
    adaptive_truncation_order,
    evaluate,
    evaluate_criterion,
    evaluate_d1,
    evaluate_d2,
    extremal_rtau_series,
    hadamard_convolve,
    integral_transform,
    pascal_coefficients,
    theta_series,
)
from pascal_spiral.series import geometric_tail, order_blocks, rtau_bound


class TestPascalParams:
    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            PascalParams(0.5, 0.3)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_rejects_non_finite_m(self, m):
        # m = inf once gave phi_n = nan, written to json as NaN
        with pytest.raises(ValueError, match="shape parameter m must be"):
            PascalParams(m, 0.3)

    def test_rejects_q_one(self):
        with pytest.raises(ValueError):
            PascalParams(2.0, 1.0)

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            PascalParams(2.0, -0.1)

    def test_q_zero_allowed(self):
        PascalParams(1.0, 0.0)


class TestPmf:
    """phi_n = P(X = n-1) for X ~ NB(m, q); P(X = 0) = (1-q)^m is the mass
    the coefficients leave out."""

    def test_hand_value_k1(self):
        assert pascal_coefficients(PascalParams(1, 0.5), 2)[0] == 0.25

    def test_normalization(self):
        p = PascalParams(3, 0.4)
        total = (1.0 - p.q) ** p.m + sum(pascal_coefficients(p, 201))
        assert abs(total - 1.0) < 1e-12

    @given(
        k=st.integers(min_value=1, max_value=60),
        m=st.floats(min_value=1.0, max_value=20.0),
        q=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_probability(self, k, m, q):
        v = pascal_coefficients(PascalParams(m, q), k + 1)[-1]
        assert 0.0 <= v <= 1.0


class TestCoefficients:
    def test_hand_values(self):
        assert pascal_coefficients(PascalParams(1, 0.5), 2)[0] == 0.25
        assert pascal_coefficients(PascalParams(2, 0.5), 3)[1] == 0.1875

    def test_zero_for_q_zero(self):
        assert np.all(pascal_coefficients(PascalParams(4, 0.0), 7) == 0.0)

    def test_vectorised_matches_scalar_bitwise(self):
        p = PascalParams(2.5, 0.6)
        arr = pascal_coefficients(p, 50)
        for n in range(2, 51):
            assert arr[n - 2].tobytes() == pascal_coefficients(p, n)[-1].tobytes()


class TestThetaSeries:
    def test_q_zero_is_identity(self):
        f = theta_series(PascalParams(3, 0.0), 10)
        assert np.all(f.coeffs == 0)

    def test_hand_values(self):
        f = theta_series(PascalParams(1, 0.5), 3)
        assert list(f.coeffs) == [0.25, 0.125]

    def test_coefficient_ratio_tends_to_q(self):
        p = PascalParams(2, 0.3)
        f = theta_series(p, 500)
        ratio = abs(f.coeffs[500 - 2] / f.coeffs[499 - 2])
        assert abs(ratio - p.q) < 1e-3

    def test_default_order_is_adaptive(self):
        p = PascalParams(2, 0.4)
        assert theta_series(p).order == adaptive_truncation_order(p)


class TestPowerSeries:
    def test_first_coefficient_fixed(self):
        f = PowerSeries([0.5, 0.25])
        assert evaluate_d1(f, 0.0) == 1.0
        assert f.order == 3

    def test_coeffs_read_only(self):
        f = PowerSeries([0.5])
        with pytest.raises(ValueError):
            f.coeffs[0] = 2.0


class TestHadamard:
    def test_identity_annihilates(self):
        f = PowerSeries([2.0, 3.0])
        assert hadamard_convolve(f, PowerSeries()).order == 1

    def test_unit_coefficients_preserve_theta(self):
        theta = theta_series(PascalParams(2, 0.3), 8)
        ones = PowerSeries(np.ones(7))
        assert np.all(hadamard_convolve(ones, theta).coeffs == theta.coeffs)

    def test_hand_values(self):
        out = hadamard_convolve(PowerSeries([2.0, 3.0]), PowerSeries([0.25, 0.125]))
        assert np.allclose(out.coeffs, [0.5, 0.375])

    @given(
        a=st.lists(st.floats(-2, 2), min_size=0, max_size=6),
        b=st.lists(st.floats(-2, 2), min_size=0, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, a, b):
        f, g = PowerSeries(a), PowerSeries(b)
        assert np.array_equal(hadamard_convolve(f, g).coeffs, hadamard_convolve(g, f).coeffs)

    @given(
        a=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
        b=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
        c=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_associative_on_equal_orders(self, a, b, c):
        f, g, h = PowerSeries(a), PowerSeries(b), PowerSeries(c)
        left = hadamard_convolve(hadamard_convolve(f, g), h)
        right = hadamard_convolve(f, hadamard_convolve(g, h))
        assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-15)


class TestIntegralTransform:
    def test_identity_unchanged(self):
        assert integral_transform(PowerSeries()).order == 1

    def test_divides_by_index(self):
        out = integral_transform(PowerSeries([0.25]))
        assert out.coeffs[0] == 0.125

    def test_theta_hand_values(self):
        out = integral_transform(theta_series(PascalParams(1, 0.5), 3))
        assert out.coeffs[0] == 0.125
        assert abs(out.coeffs[1] - 0.125 / 3) < 1e-16

    def test_round_trip_recovers_coefficients(self):
        f = theta_series(PascalParams(2.5, 0.6), 60)
        g = integral_transform(f)
        n = np.arange(2.0, f.order + 1.0)
        recovered = g.coeffs * n
        assert np.allclose(recovered.real, f.coeffs.real, rtol=1e-15, atol=0)


class TestEvaluate:
    def test_identity_series(self):
        z = 0.3 + 0.4j
        assert evaluate(PowerSeries(), z) == z
        assert evaluate_d1(PowerSeries(), z) == 1.0
        assert evaluate_d2(PowerSeries(), z) == 0.0

    def test_exact_at_origin(self):
        f = PowerSeries([0.7, -0.2j])
        assert evaluate(f, 0.0) == 0.0
        assert evaluate_d1(f, 0.0) == 1.0

    def test_hand_value(self):
        f = PowerSeries([0.25])
        assert evaluate(f, 0.5) == 0.5625

    @pytest.mark.parametrize("ev", [evaluate, evaluate_d1, evaluate_d2])
    def test_rejects_boundary(self, ev):
        f = PowerSeries([0.25])
        for z in (1.0, 1.0 + 0.1j, -1j, np.array([0.1, 0.5j, -0.6 + 0.8j])):
            with pytest.raises(ValueError, match=r"requires \|z\| < 1"):
                ev(f, z)

    @pytest.mark.parametrize("ev", [evaluate, evaluate_d1, evaluate_d2])
    def test_vectorised_matches_scalar(self, ev):
        f = theta_series(PascalParams(2, 0.4), 30)
        zs = np.array([0.1, 0.2 + 0.3j, -0.5j])
        vec = ev(f, zs)
        for z, v in zip(zs, vec):
            assert v == ev(f, complex(z))

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        f = theta_series(PascalParams(2, 0.4), 40)
        h = 1e-6
        for _ in range(50):
            z = complex(*(rng.uniform(-0.6, 0.6, size=2)))
            fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
            assert abs(fd - evaluate_d1(f, z)) < 1e-6


class TestRTau:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            RTauParams(tau=0.0)
        with pytest.raises(ValueError):
            RTauParams(vartheta=0.0)
        with pytest.raises(ValueError):
            RTauParams(delta=1.0)
        for tau in (math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 1.0)):
            with pytest.raises(ValueError, match="tau must be finite"):
                RTauParams(tau=tau)
        with pytest.raises(ValueError, match="delta must be finite"):
            RTauParams(delta=-math.inf)

    def test_bound_hand_value(self):
        assert rtau_bound(2, RTauParams(1.0, 1.0, 0.0)) == 1.0

    def test_bound_decays(self):
        r = RTauParams(1.0, 1.0, 0.0)
        assert rtau_bound(1000, r) < 0.01

    def test_bound_vanishes_as_delta_to_one(self):
        r = RTauParams(1.0, 1.0, 1.0 - 1e-9)
        assert rtau_bound(2, r) < 1e-8

    def test_extremal_series_hand_values(self):
        f = extremal_rtau_series(RTauParams(1.0, 1.0, 0.0), 3)
        assert f.coeffs[0] == 1.0
        assert abs(f.coeffs[1] - 2.0 / 3.0) < 1e-16

    def test_extremal_series_monotone(self):
        f = extremal_rtau_series(RTauParams(0.8, 0.4, 0.1), 30)
        mags = np.abs(f.coeffs)
        assert np.all(np.diff(mags) < 0)


class TestAdaptiveTruncation:
    def test_deterministic(self):
        p = PascalParams(3, 0.7)
        assert adaptive_truncation_order(p) == adaptive_truncation_order(p)

    def test_tail_actually_small(self):
        p = PascalParams(2, 0.6)
        n = adaptive_truncation_order(p)
        tail = sum(pascal_coefficients(p, n + 1999)[n - 1:])
        assert tail < 1e-13

    def test_q_zero_minimal(self):
        assert adaptive_truncation_order(PascalParams(5, 0.0)) == 2


def _pmf_prefix_reference(p, k_max):
    """P(x = 0..k_max) by one cumprod of the recurrence's factors, kept as
    the reference for the block walk that pascal_coefficients goes
    through."""
    j = np.arange(1.0, k_max + 1.0)
    factors = np.empty(k_max + 1)
    factors[0] = (1.0 - p.q) ** p.m
    factors[1:] = (p.q * (p.m + j - 1.0)) / j
    return np.cumprod(factors)


def _truncation_order_reference(p, threshold, radius, cap):
    """adaptive_truncation_order's loop with its own ratios and cumprod per
    block, kept as the reference for the shared block walk."""
    if p.q == 0.0:
        return 2
    m, q = p.m, p.q
    term = float(_pmf_prefix_reference(p, 1)[-1]) * radius**2
    for n0, hi in order_blocks(cap):
        n = np.arange(float(n0), float(hi))
        rhat = radius * q * (n + m - 1.0) / n
        terms = np.cumprod(np.concatenate(([term], rhat)))
        done = geometric_tail(terms[:-1], rhat) < threshold
        if done.any():
            return n0 + int(np.argmax(done))
        term = float(terms[-1])
    raise SummationDivergenceError(term, cap)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SummationDivergenceError as exc:
        return str(exc), repr(exc.last_term), exc.order


def _draw(rng):
    """(m, q) over the domain: m = 1, m just above 1, moderate m, and m up to
    4,000, where the raw coefficients overflow; q = 0, small q and q up to
    0.99999."""
    m = rng.choice([1.0, 1.0 + 10.0 ** rng.uniform(-12, -1), rng.uniform(1, 50),
                    10.0 ** rng.uniform(1, math.log10(4000))], p=[0.1, 0.15, 0.35, 0.4])
    q = rng.choice([0.0, 10.0 ** rng.uniform(-7, -1), min(rng.uniform(0, 1), 0.99999)],
                   p=[0.05, 0.25, 0.7])
    return PascalParams(float(m), float(q))


def test_block_walk_equals_the_single_cumprod_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(300):
        p = _draw(rng)
        k = int(rng.choice([0, 1, 511, 512, 513, rng.integers(0, 40_000)]))
        ref = _pmf_prefix_reference(p, k)
        assert pascal_coefficients(p, k + 1).tobytes() == ref[1:].tobytes(), (p, k)
        for threshold, radius in ((1e-14, 1.0), (1e-10, 0.995)):
            for cap in (1, 2, 513, 514, 100_000):
                args = (p, threshold, radius, cap)
                assert _outcome(adaptive_truncation_order, *args) == _outcome(
                    _truncation_order_reference, *args
                ), args


@pytest.mark.parametrize("call, match", [
    (lambda: PowerSeries(np.zeros((2, 2))), "one-dimensional"),
    (lambda: adaptive_truncation_order(PascalParams(2, 0.5), radius=0.0), "radius"),
    (lambda: adaptive_truncation_order(PascalParams(2, 0.5), radius=1.5), "radius"),
    (lambda: theta_series(PascalParams(2, 0.5), 0), "order must be >= 1"),
    (lambda: extremal_rtau_series(RTauParams(), 1), "order must be >= 2"),
    (
        lambda: evaluate_criterion(
            CriterionId.THETA_IN_S, PascalParams(2, 0.5), SpiralClassParams(0.0, 0.0, 0.0),
            variant="exact",
        ),
        "unknown variant",
    ),
], ids=["2d-coeffs", "radius-0", "radius-1.5", "theta-order-0", "rtau-order-1", "variant"])
def test_input_checks_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
