"""Numerical check of the defining analytic conditions on sampled points of
the unit disk.

A passing report means "no violation found on the grid" (evidence, not
proof); a failing report carries a concrete counterexample point and is a
proof of non-membership.

verify_on_disk screens the grid by FFT and reads its minimum by Horner's
rule at the witness.  On a ring z_j = r e^{2 pi i j/k}, j = 0..k-1, a
polynomial's values are sum_n c_n r^n e^{2 pi i nj/k}: the unnormalised
inverse DFT of c_n r^n folded mod k (Cooley & Tukey, Math. Comp. 19, 1965).
So R rings of k angles cost O(R (N + k log k)) for a series of order N, and
O(R N) memory, where Horner's rule at every point costs O(N R k).  Each
ring value lies within a few ulps of sum_n |c_n| r^n of the exact sum
(tests/test_disk.py checks 1e-15 of that against 30-digit sums).  The
screen decides the denominator exit and the witness; the reported minimum
is the scalar functional there, so it equals spiral_functional or
convex_spiral_functional at the witness bit for bit.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .criteria import SpiralClassParams
from .series import PowerSeries, derivative_coeffs, evaluate, evaluate_d1, evaluate_d2

DENOMINATOR_FLOOR = 1e-14
DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995)
TAIL_REFUSAL = 1e-8


class DenominatorError(ArithmeticError):
    """The functional's denominator vanished (to within the floor) at z."""

    def __init__(self, z: complex):
        super().__init__(f"functional denominator vanished near z = {z}")
        self.z = z


@dataclass(frozen=True)
class DiskGrid:
    """Concentric sample rings: radii in (0, 1-1e-3], angles_per_ring >= 8.
    Rings cluster near the boundary by default because the functionals take
    their extrema there."""

    radii: tuple[float, ...] = DEFAULT_RADII
    angles_per_ring: int = 720

    def __post_init__(self):
        if not self.radii:
            raise ValueError("at least one radius is required")
        for r in self.radii:
            if not 0.0 < r <= 1.0 - 1e-3:
                raise ValueError(f"radii must lie in (0, 1-1e-3], got {r}")
        if operator.index(self.angles_per_ring) < 8:
            raise ValueError("angles_per_ring must be >= 8")

    @property
    def point_count(self) -> int:
        return len(self.radii) * self.angles_per_ring


def default_grid() -> DiskGrid:
    return DiskGrid()


@dataclass(frozen=True)
class DiskReport:
    """Minimum of the functional over the grid with its attaining point.
    passed means min_value > -tolerance, i.e. no violation found."""

    min_value: float
    witness: complex
    passed: bool
    points_checked: int
    note: str = "no violation found"


# the derivatives of f that each family's functional reads
_DERIVATIVES = {"S": (0, 1), "K": (1, 2)}


def _derivatives(family: str) -> tuple[int, int]:
    try:
        return _DERIVATIVES[family]
    except KeyError:
        raise ValueError(f"family must be 'S' or 'K', got {family!r}") from None


def _num_den_from(family, z, a, b, rho):
    """Numerator and denominator of the family's functional at z, from the
    values a, b there of the two derivatives it reads: f and f' for S
    (zf' over (1-rho)f + rho zf'), f' and f'' for K (zf'' + f' over
    f' + rho zf'')."""
    if family == "S":
        num = z * b
        return num, (1.0 - rho) * a + rho * num
    zd2 = z * b
    return zd2 + a, a + rho * zd2


def _num_den(f: PowerSeries, z, c: SpiralClassParams, family: str):
    # the evaluators are read at call time, so that a wrapper installed on
    # this module's names sees every call
    evaluators = (evaluate, evaluate_d1, evaluate_d2)
    a, b = (evaluators[d](f, z) for d in _derivatives(family))
    return _num_den_from(family, z, a, b, c.rho)


def _ring_values(f: PowerSeries, derivatives, radii, k: int) -> np.ndarray:
    """The given derivatives of f at r e^{2 pi i j/k}, j = 0..k-1, for each r
    in radii: shape (len(derivatives), len(radii) * k), ring by ring.

    On a ring, sum_n c_n r^n e^{2 pi i nj/k} is the unnormalised inverse DFT
    of the scaled coefficients c_n r^n folded mod k (summed over n = m,
    m + k, m + 2k, ...), which is exact for any order, above k included."""
    size = -(-(f.order + 1) // k) * k
    scaled = np.zeros((len(derivatives), len(radii), size), dtype=complex)
    powers = np.power.outer(radii, np.arange(float(f.order + 1)))
    for row, d in zip(scaled, derivatives):
        coeffs = derivative_coeffs(f, d)
        np.multiply(coeffs, powers[:, : coeffs.size], out=row[:, : coeffs.size])
    folded = scaled.reshape(len(derivatives), len(radii), -1, k).sum(axis=2)
    return np.fft.ifft(folded, axis=-1, norm="forward").reshape(len(derivatives), -1)


def _functional_scalar(f, z, c, family):
    if not 0.0 < abs(z) < 1.0:
        raise ValueError("functional requires 0 < |z| < 1")
    num, den = _num_den(f, complex(z), c, family)
    if abs(den) <= DENOMINATOR_FLOOR:
        raise DenominatorError(z)
    phase = cmath.exp(1j * c.xi)
    return (phase * num / den).real - c.gamma * math.cos(c.xi)


def spiral_functional(f: PowerSeries, z: complex, c: SpiralClassParams) -> float:
    """Re(e^{i xi} zf'/((1-rho)f + rho zf')) - gamma cos(xi)."""
    return _functional_scalar(f, z, c, "S")


def convex_spiral_functional(f: PowerSeries, z: complex, c: SpiralClassParams) -> float:
    """Re(e^{i xi} (zf'' + f')/(f' + rho zf'')) - gamma cos(xi)."""
    return _functional_scalar(f, z, c, "K")


def verify_on_disk(
    f: PowerSeries,
    c: SpiralClassParams,
    family: str = "S",
    grid: DiskGrid | None = None,
    tolerance: float = 1e-6,
    tail_check: bool = True,
) -> DiskReport:
    """Screen the matching functional at every grid point by FFT (module
    docstring); return the minimum, the witness attaining it (the first such
    point, ring by ring), and a pass flag.  min_value, and so passed, is the
    functional at the witness by Horner's rule.  A denominator within
    DENOMINATOR_FLOOR, on the screen or at the witness, fails with min_value
    -inf at the point where it vanished; points_checked then counts the
    rings before that point's ring.  Any other screen value that is not
    finite (an overflowing series) raises ArithmeticError.

    tail_check guards against verifying a series whose truncation tail could
    dwarf the tolerance: the last stored coefficient times r_max^N must not
    exceed 1e-8.  Pass tail_check=False for series that are exact
    polynomials rather than truncations."""
    if grid is None:
        grid = default_grid()
    radii = tuple(sorted(grid.radii))
    r_max = radii[-1]
    if tail_check and f.order >= 2:
        last = abs(f.coeffs[-1])
        if last * r_max**f.order > TAIL_REFUSAL:
            raise ValueError(
                "series truncation too coarse for disk verification: "
                f"|a_N| r^N = {last * r_max ** f.order:.3e} > {TAIL_REFUSAL:g}"
            )
    k = grid.angles_per_ring
    angles = np.exp(2j * math.pi * np.arange(k) / k)
    # ring by ring in order of radius, k angles per ring
    z = (np.array(radii)[:, None] * angles).ravel()
    # an overflowing series must neither warn nor reach the minimum as nan
    # (np.argmin reads nan as the minimum): a non-finite screen raises
    with np.errstate(all="ignore"):
        a, b = _ring_values(f, _derivatives(family), radii, k)
        num, den = _num_den_from(family, z, a, b, c.rho)
        bad = np.abs(den) <= DENOMINATOR_FLOOR
        if bad.any():
            return _denominator_exit(z, int(np.argmax(bad)), k)
        vals = (cmath.exp(1j * c.xi) * num / den).real - c.gamma * math.cos(c.xi)
        finite = np.isfinite(vals)
        if not finite.all():
            raise ArithmeticError(
                f"functional not finite at z = {complex(z[np.argmin(finite)])}"
            )
        j = int(np.argmin(vals))  # first occurrence: innermost ring, smallest angle
        try:
            best = _functional_scalar(f, complex(z[j]), c, family)
        except DenominatorError:
            return _denominator_exit(z, j, k)
    passed = best > -tolerance
    return DiskReport(
        min_value=best,
        witness=complex(z[j]),
        passed=passed,
        points_checked=z.size,
        note="no violation found" if passed else "violation at witness",
    )


def _denominator_exit(z, j: int, k: int) -> DiskReport:
    return DiskReport(
        min_value=-math.inf,
        witness=complex(z[j]),
        passed=False,
        points_checked=j // k * k,
        note="denominator vanished at witness",
    )
