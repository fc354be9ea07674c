"""Numerical check of the defining analytic conditions on sampled points of
the unit disk.

A passing report means "no violation found on the grid" (evidence, not
proof); a failing report carries a concrete counterexample point and is a
proof of non-membership.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .criteria import SpiralClassParams
from .series import PowerSeries, evaluate, evaluate_d1, evaluate_d2

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


def _num_den(f: PowerSeries, z, c: SpiralClassParams, family: str):
    if family == "S":
        num = z * evaluate_d1(f, z)
        den = (1.0 - c.rho) * evaluate(f, z) + c.rho * num
    elif family == "K":
        d1 = evaluate_d1(f, z)
        zd2 = z * evaluate_d2(f, z)
        num = zd2 + d1
        den = d1 + c.rho * zd2
    else:
        raise ValueError(f"family must be 'S' or 'K', got {family!r}")
    return num, den


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
    """Evaluate the matching functional at every grid point; return the grid
    minimum, the witness attaining it, and a pass flag.

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
    phase = cmath.exp(1j * c.xi)
    level = c.gamma * math.cos(c.xi)
    k = grid.angles_per_ring
    angles = np.exp(2j * math.pi * np.arange(k) / k)
    # ring by ring in order of radius, k angles per ring
    z = (np.array(radii)[:, None] * angles).ravel()
    num, den = _num_den(f, z, c, family)
    bad = np.abs(den) <= DENOMINATOR_FLOOR
    if bad.any():
        j = int(np.argmax(bad))
        return DiskReport(
            min_value=-math.inf,
            witness=complex(z[j]),
            passed=False,
            points_checked=j // k * k,
            note="denominator vanished at witness",
        )
    vals = (phase * num / den).real - level
    j = int(np.argmin(vals))  # first occurrence: innermost ring, smallest angle
    best = float(vals[j])
    passed = best > -tolerance
    return DiskReport(
        min_value=best,
        witness=complex(z[j]),
        passed=passed,
        points_checked=z.size,
        note="no violation found" if passed else "violation at witness",
    )
