"""Critical-q search (where a criterion becomes tight) and parameter sweeps.

Bisection is used instead of Newton: the margins are cheap to evaluate and
bisection needs no derivative or conditioning assumptions.  Monotonicity of
the margin in q is asserted empirically before every search."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .criteria import CriterionId, SpiralClassParams, evaluate_criterion
from .series import PascalParams, RTauParams
from .summation import SummationDivergenceError

Q_MAX = 1.0 - 1e-9
MAX_ITERATIONS = 60
_MONOTONE_SAMPLES = 16
_MONOTONE_SLACK = 1e-12

BOUNDARY_ALL_Q = "satisfied_for_all_q"
BOUNDARY_NO_Q = "unsatisfied_for_all_q"


class NonMonotoneMarginError(RuntimeError):
    """The criterion margin failed the decreasing-in-q precheck."""


@dataclass(frozen=True)
class CriticalQ:
    q_star: float
    iterations: int
    residual_margin: float
    boundary: str = ""


@dataclass(frozen=True)
class ScanRow:
    criterion: str
    variant: str
    m: float
    xi: float
    gamma: float
    rho: float
    q_star: float
    iterations: int
    residual_margin: float
    boundary: str = ""
    error: str = ""


def _margin(cid, variant, m, q, c, r) -> float:
    try:
        return evaluate_criterion(cid, PascalParams(m, q), c, r, variant).margin
    except SummationDivergenceError:
        # positive-term sum blew past the order cap: the lhs is at least the
        # (already huge) partial sum, so the margin is effectively -inf
        return -math.inf


def critical_q(
    cid: CriterionId,
    variant: str,
    m: float,
    c: SpiralClassParams,
    r: RTauParams | None = None,
    tol: float = 1e-10,
) -> CriticalQ:
    """Bisection for the q at which the criterion margin crosses zero.

    Every criterion is satisfied as q -> 0 (lhs -> 0 <= 1-gamma), so the
    bracket is (0, Q_MAX).  The margin is sampled at 16 points first and a
    sign-pattern violation of monotonicity is a hard error."""
    samples = [Q_MAX * k / _MONOTONE_SAMPLES for k in range(1, _MONOTONE_SAMPLES + 1)]
    margins = [_margin(cid, variant, m, q, c, r) for q in samples]
    for a, b in zip(margins, margins[1:]):
        if b > a + _MONOTONE_SLACK:
            raise NonMonotoneMarginError(
                f"margin of {cid.value} not decreasing in q (variant={variant})"
            )
    if margins[-1] > 0.0:
        return CriticalQ(Q_MAX, 0, margins[-1], BOUNDARY_ALL_Q)
    if margins[0] <= 0.0 and _margin(cid, variant, m, samples[0] * 1e-6, c, r) <= 0.0:
        return CriticalQ(0.0, 0, margins[0], BOUNDARY_NO_Q)
    lo, hi = 0.0, Q_MAX
    iterations = 0
    mid = 0.5 * (lo + hi)
    fm = -math.inf
    while iterations < MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        iterations += 1
        fm = _margin(cid, variant, m, mid, c, r)
        if abs(fm) <= tol or hi - lo < 1e-14:
            break
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    return CriticalQ(mid, iterations, fm)


def scan(
    cid: CriterionId,
    variant: str,
    m_grid,
    xi_grid,
    gamma_grid,
    rho_grid,
    r: RTauParams | None = None,
    tol: float = 1e-10,
) -> list[ScanRow]:
    """Cartesian product sweep; rows are ordered lexicographically by grid
    indices and per-row failures are captured in the row, not raised."""
    for name, grid in (
        ("m", m_grid), ("xi", xi_grid), ("gamma", gamma_grid), ("rho", rho_grid)
    ):
        if not grid:
            raise ValueError(f"{name} grid must be nonempty")
    rows = []
    for m in m_grid:
        for xi in xi_grid:
            for gamma in gamma_grid:
                for rho in rho_grid:
                    c = SpiralClassParams(xi=xi, gamma=gamma, rho=rho)
                    try:
                        res, error = critical_q(cid, variant, m, c, r, tol), ""
                    except Exception as exc:  # per-row capture, scan continues
                        res, error = CriticalQ(0.0, 0, 0.0), str(exc)
                    rows.append(ScanRow(
                        cid.value, variant, m, xi, gamma, rho, **asdict(res), error=error
                    ))
    return rows
