"""Pascal-distribution power series: the coefficients, truncated series,
convolution, the integral transform, and the coefficient bound of the
bounded-turning-type class R^tau."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRUNCATION_CAP = 100_000
TAIL_THRESHOLD = 1e-14


class SummationDivergenceError(RuntimeError):
    """A truncated series or sum (adaptive_truncation_order, oracle_sum,
    summation.sum_J) hit the order cap with its geometric tail bound still
    unmet.

    Carries the magnitude of the last computed term so callers can
    distinguish a divergent sum from a slowly converging one."""

    def __init__(self, last_term: float, order: int):
        super().__init__(
            f"summation did not converge within {order} terms "
            f"(last term magnitude {last_term:.3e})"
        )
        self.last_term = last_term
        self.order = order


@dataclass(frozen=True)
class PascalParams:
    """Finite shape m >= 1 and success parameter 0 <= q < 1.

    q = 1 is rejected outright: every closed form downstream divides by 1-q.
    """

    m: float
    q: float

    def __post_init__(self):
        if not self.m >= 1.0:
            raise ValueError(f"shape parameter m must be >= 1, got {self.m}")
        if self.m == math.inf:
            raise ValueError(f"shape parameter m must be finite, got {self.m}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"success parameter q must be in [0, 1), got {self.q}")


@dataclass(frozen=True)
class RTauParams:
    """Parameters (tau, vartheta, delta) of the class R^tau(vartheta, delta):
    finite nonzero tau, 0 < vartheta <= 1, finite delta < 1."""

    tau: complex = 1.0
    vartheta: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < abs(self.tau) < math.inf:
            raise ValueError(f"tau must be finite and nonzero, got {self.tau}")
        if not 0.0 < self.vartheta <= 1.0:
            raise ValueError(f"vartheta must be in (0, 1], got {self.vartheta}")
        if not -math.inf < self.delta < 1.0:
            raise ValueError(f"delta must be finite and < 1, got {self.delta}")


def pascal_coefficients(p: PascalParams, n_max: int) -> np.ndarray:
    """phi_n = C(n+m-2, m-1) q^{n-1} (1-q)^m = P(X = n-1), X ~ NB(m, q), for
    n = 2..n_max: the one walk of the recurrence from c_1 = P(X = 0) =
    (1-q)^m, a rising-factorial product (m)(m+1)...(m+k-1)/k! that stays
    finite for real m and avoids factorial overflow."""
    if n_max < 2:
        return np.empty(0)
    blocks = coefficient_blocks(p.m, p.q, (1.0 - p.q) ** p.m, n_max, n0=1)
    return np.concatenate([coeffs for *_, coeffs in blocks])[1:]


class PowerSeries:
    """Truncated normalized power series f(z) = z + sum_{n=2}^N a_n z^n.

    The unit first coefficient is implicit and immutable; coeffs[i] stores
    a_{i+2} as a complex number.  Instances are immutable and safe to share.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        arr = np.array(coeffs, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """a_2..a_N (read-only view)."""
        return self._coeffs

    @property
    def order(self) -> int:
        """Truncation order N (N = 1 for the identity series z)."""
        return self._coeffs.size + 1

    def __repr__(self):
        return f"PowerSeries(order={self.order})"


def geometric_tail(term, rhat):
    """Bound |term| rhat/(1-rhat) on the sum after a term of magnitude |term|
    whose successors shrink by ratios at most rhat; inf where rhat >= 1.
    Elementwise on arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhat < 1.0, np.abs(term) * rhat / (1.0 - rhat), np.inf)


def order_blocks(cap: int, n0: int = 2, size: int = 512):
    """The ranges [n0, hi) of orders n = n0..cap that a tail-bounded
    summation walks: size orders first (512 for the Pascal walks), doubling,
    and at most 16384 per block."""
    while n0 <= cap:
        size = min(size, 16384)
        hi = min(n0 + size, cap + 1)
        yield n0, hi
        n0, size = hi, size * 2


def coefficient_blocks(m: float, q: float, first: float, cap: int, n0: int = 2):
    """The Pascal recurrence c_{n+1} = c_n q(n+m-1)/n from c_{n0} = first, per
    block [n0, hi) of order_blocks(cap, n0): yields (n0, n, ratios, coeffs)
    with n = n0..hi (one past the block, so that w(n+1) is a slice), the
    ratios q(n+m-1)/n on n, and c at n0..hi-1.  first carries any scale, so
    that a scaled walk does not overflow where the raw one would."""
    coeff = first
    for n0, hi in order_blocks(cap, n0):
        size = hi - n0
        n = np.arange(float(n0), float(hi + 1))
        # q * (n + m - 1.0) / n, in place: the same operations in the same
        # order, without a 128 KiB temporary for each
        ratios = n + m
        ratios -= 1.0
        np.multiply(q, ratios, out=ratios)
        ratios /= n
        coeffs = np.empty(size)
        coeffs[0] = coeff
        coeffs[1:] = ratios[: size - 1]
        np.cumprod(coeffs, out=coeffs)
        yield n0, n, ratios, coeffs
        coeff = float(coeffs[-1] * ratios[size - 1])


def adaptive_truncation_order(
    p: PascalParams,
    threshold: float = TAIL_THRESHOLD,
    radius: float = 1.0,
    cap: int = TRUNCATION_CAP,
) -> int:
    """Smallest N such that the term phi_N * radius^N times rhat/(1-rhat)
    drops below threshold, where rhat bounds every remaining term ratio.

    The exact ratio of consecutive scaled terms is radius*q*(n+m-1)/n, which
    decreases toward radius*q < 1 for m >= 1, so the geometric tail bound is
    rigorous."""
    if not 0.0 < radius <= 1.0:
        raise ValueError("radius must be in (0, 1]")
    if p.q == 0.0:
        return 2
    term = float(pascal_coefficients(p, 2)[0]) * radius**2
    for n0, _, ratios, terms in coefficient_blocks(p.m, radius * p.q, term, cap):
        done = geometric_tail(terms, ratios[:-1]) < threshold
        if done.any():
            return n0 + int(np.argmax(done))
        term = float(terms[-1] * ratios[-2])  # the term that opens the next block
    raise SummationDivergenceError(term, cap)


def theta_series(p: PascalParams, order: int | None = None) -> PowerSeries:
    """The Pascal series with a_n = phi_n(m, q); order defaults to the
    adaptive truncation rule."""
    if order is None:
        order = adaptive_truncation_order(p)
    if order < 1:
        raise ValueError("order must be >= 1")
    return PowerSeries(pascal_coefficients(p, order))


def hadamard_convolve(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficientwise product; the result is truncated (silently) to the
    smaller of the two orders."""
    k = min(f.order, g.order)
    return PowerSeries(f.coeffs[: k - 1] * g.coeffs[: k - 1])


def integral_transform(f: PowerSeries) -> PowerSeries:
    """G(z) = integral_0^z f(t)/t dt, i.e. a_n -> a_n / n; order preserved."""
    n = np.arange(2.0, f.order + 1.0)
    return PowerSeries(f.coeffs / n)


def rtau_bound(n, r: RTauParams):
    """2|tau|(1-delta)/(1+vartheta(n-1)), vectorised in n; unchecked, for
    callers whose n >= 2 by construction."""
    return 2.0 * abs(r.tau) * (1.0 - r.delta) / (1.0 + r.vartheta * (n - 1.0))


def extremal_rtau_series(r: RTauParams, order: int) -> PowerSeries:
    """Worst-case series whose every coefficient sits on the R^tau bound."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return PowerSeries(rtau_bound(np.arange(2.0, order + 1.0), r))


def _horner(coeffs, z):
    """The polynomial with coefficients coeffs (constant term first) at z,
    |z| < 1, by Horner's rule; z may be a scalar or an array."""
    zarr = np.asarray(z, dtype=complex)
    if np.any(np.abs(zarr) >= 1.0):
        raise ValueError("evaluation requires |z| < 1")
    out = np.polyval(coeffs[::-1], zarr)
    return complex(out) if np.ndim(z) == 0 else out


def derivative_coeffs(f: PowerSeries, derivative: int = 0) -> np.ndarray:
    """The coefficients of f, f' or f'' (derivative 0, 1 or 2), constant
    term first."""
    if derivative == 0:
        return np.concatenate(([0.0, 1.0], f.coeffs))
    n = np.arange(2.0, f.order + 1.0)
    if derivative == 1:
        return np.concatenate(([1.0], n * f.coeffs))
    if derivative == 2:
        return n * (n - 1.0) * f.coeffs
    raise ValueError(f"derivative must be 0, 1 or 2, got {derivative!r}")


def evaluate(f: PowerSeries, z):
    """f(z) for |z| < 1 by Horner's rule; z may be a scalar or an array."""
    return _horner(derivative_coeffs(f, 0), z)


def evaluate_d1(f: PowerSeries, z):
    """f'(z) for |z| < 1."""
    return _horner(derivative_coeffs(f, 1), z)


def evaluate_d2(f: PowerSeries, z):
    """f''(z) for |z| < 1."""
    return _horner(derivative_coeffs(f, 2), z)
