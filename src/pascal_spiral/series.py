"""Pascal-distribution power series: pmf, coefficients, truncated series,
convolution, the integral transform, and coefficient bounds for the
bounded-turning-type class R^tau."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRUNCATION_CAP = 100_000
TAIL_THRESHOLD = 1e-14


class SummationDivergenceError(RuntimeError):
    """A truncated series or sum (adaptive_truncation_order, oracle_sum) hit
    the order cap with its geometric tail bound still unmet.

    Carries the magnitude of the last computed term so callers can
    distinguish a divergent sum from a slowly converging one."""

    def __init__(self, last_term: float, order: int):
        super().__init__(
            f"summation did not converge within {order} terms "
            f"(last term magnitude {last_term:.3e})"
        )
        self.last_term = last_term
        self.order = order


SeriesTruncationError = SummationDivergenceError


@dataclass(frozen=True)
class PascalParams:
    """Shape m >= 1 and success parameter 0 <= q < 1.

    q = 1 is rejected outright: every closed form downstream divides by 1-q.
    """

    m: float
    q: float

    def __post_init__(self):
        if not self.m >= 1.0:
            raise ValueError(f"shape parameter m must be >= 1, got {self.m}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"success parameter q must be in [0, 1), got {self.q}")


@dataclass(frozen=True)
class RTauParams:
    """Parameters (tau, vartheta, delta) of the class R^tau(vartheta, delta)."""

    tau: complex = 1.0
    vartheta: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if abs(self.tau) == 0.0:
            raise ValueError("tau must be nonzero")
        if not 0.0 < self.vartheta <= 1.0:
            raise ValueError(f"vartheta must be in (0, 1], got {self.vartheta}")
        if not self.delta < 1.0:
            raise ValueError(f"delta must be < 1, got {self.delta}")


def _pmf_prefix(p: PascalParams, k_max: int) -> np.ndarray:
    """P(x = 0), ..., P(x = k_max) by the multiplicative recurrence: the
    binomial coefficient is accumulated as a rising-factorial product
    (m)(m+1)...(m+k-1)/k!, which stays finite for real m and avoids
    factorial overflow."""
    j = np.arange(1.0, k_max + 1.0)
    factors = np.empty(k_max + 1)
    factors[0] = (1.0 - p.q) ** p.m
    factors[1:] = (p.q * (p.m + j - 1.0)) / j
    return np.cumprod(factors)


def pascal_pmf(k: int, p: PascalParams) -> float:
    """P(x = k) = C(k+m-1, m-1) q^k (1-q)^m."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return float(_pmf_prefix(p, k)[-1])


def pascal_coefficient(n: int, p: PascalParams) -> float:
    """n-th series coefficient phi_n = C(n+m-2, m-1) q^{n-1} (1-q)^m, n >= 2.

    Identical to pascal_pmf(n-1, p) by index shift; sharing the code path is
    deliberate (the equality is relied on exactly)."""
    if n < 2:
        raise ValueError(f"coefficient index must be >= 2, got {n}")
    return pascal_pmf(n - 1, p)


def pascal_coefficients(p: PascalParams, n_max: int) -> np.ndarray:
    """phi_n for n = 2..n_max as an array, via the same recurrence as
    pascal_pmf (bitwise-identical values)."""
    if n_max < 2:
        return np.empty(0)
    return _pmf_prefix(p, n_max - 1)[1:]


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

    def coefficient(self, n: int) -> complex:
        if n == 1:
            return 1.0 + 0.0j
        if 2 <= n <= self.order:
            return complex(self._coeffs[n - 2])
        raise IndexError(f"coefficient index {n} outside 1..{self.order}")

    def __repr__(self):
        return f"PowerSeries(order={self.order})"

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs.shape == other._coeffs.shape and bool(
            np.all(self._coeffs == other._coeffs)
        )

    def __hash__(self):
        return hash(self._coeffs.tobytes())


def identity_series() -> PowerSeries:
    """The series f(z) = z."""
    return PowerSeries()


def geometric_tail(term, rhat):
    """Bound |term| rhat/(1-rhat) on the sum after a term of magnitude |term|
    whose successors shrink by ratios at most rhat; inf where rhat >= 1.
    Elementwise on arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhat < 1.0, np.abs(term) * rhat / (1.0 - rhat), np.inf)


def order_blocks(cap: int):
    """The ranges [n0, hi) of orders n = 2..cap that a tail-bounded
    summation walks: 512 orders first, doubling up to 16384 per block."""
    n0, size = 2, 512
    while n0 <= cap:
        hi = min(n0 + size, cap + 1)
        yield n0, hi
        n0, size = hi, min(size * 2, 16384)


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
    m, q = p.m, p.q
    term = pascal_coefficient(2, p) * radius**2
    for n0, hi in order_blocks(cap):
        n = np.arange(float(n0), float(hi))
        rhat = radius * q * (n + m - 1.0) / n
        # terms[i] is the scaled term at order n0 + i; the last one opens
        # the next block
        terms = np.cumprod(np.concatenate(([term], rhat)))
        done = geometric_tail(terms[:-1], rhat) < threshold
        if done.any():
            return n0 + int(np.argmax(done))
        term = float(terms[-1])
    raise SeriesTruncationError(term, cap)


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


def rtau_coefficient_bound(n: int, r: RTauParams) -> float:
    """Sharp coefficient bound 2|tau|(1-delta)/(1+vartheta(n-1)) for members
    of R^tau(vartheta, delta), n >= 2."""
    if n < 2:
        raise ValueError(f"coefficient index must be >= 2, got {n}")
    return rtau_bound(n, r)


def extremal_rtau_series(r: RTauParams, order: int) -> PowerSeries:
    """Worst-case series whose every coefficient sits on the R^tau bound."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return PowerSeries(rtau_bound(np.arange(2.0, order + 1.0), r))


def _check_disk(z) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation requires |z| < 1")


def _as_points(z):
    zarr = np.asarray(z, dtype=complex)
    _check_disk(zarr)
    return zarr, np.ndim(z) == 0


def evaluate(f: PowerSeries, z):
    """f(z) for |z| < 1 by Horner's rule; z may be a scalar or an array."""
    zarr, scalar = _as_points(z)
    full = np.concatenate(([0.0, 1.0], f.coeffs))
    out = np.polyval(full[::-1], zarr)
    return complex(out) if scalar else out


def evaluate_d1(f: PowerSeries, z):
    """f'(z) for |z| < 1."""
    zarr, scalar = _as_points(z)
    n = np.arange(2.0, f.order + 1.0)
    full = np.concatenate(([1.0], n * f.coeffs))
    out = np.polyval(full[::-1], zarr)
    return complex(out) if scalar else out


def evaluate_d2(f: PowerSeries, z):
    """f''(z) for |z| < 1."""
    zarr, scalar = _as_points(z)
    n = np.arange(2.0, f.order + 1.0)
    full = n * (n - 1.0) * f.coeffs
    out = np.polyval(full[::-1], zarr)
    return complex(out) if scalar else out
