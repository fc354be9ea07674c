"""Critical-q search (where a criterion becomes tight) and parameter sweeps.

The margin is sampled at 16 values of q, which checks empirically that it
decreases in q and brackets its zero between neighbouring samples.  From
that bracket the root is found by ITP (interpolate, truncate, project;
Oliveira & Takahashi, ACM TOMS 47(1), 2020): a regula falsi step, pulled
toward the midpoint and kept within bisection's worst-case step count.  It
needs no derivative, keeps bisection's guarantee, and converges
superlinearly on the smooth margins, typically in 3 to 8 steps."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .criteria import CriterionId, SpiralClassParams, evaluate_criterion
from .series import PascalParams, RTauParams
from .summation import SummationDivergenceError

Q_MAX = 1.0 - 1e-9
MAX_ITERATIONS = 60
# the search stops once |margin| is at most this, or once the bracket the
# step was chosen from is narrower than _Q_TOL
MARGIN_TOL = 1e-10
_Q_TOL = 1e-14
# ITP's truncation kappa1 * width**kappa2, written as 0.2 of the first
# bracket times (width / first width)**kappa2, with kappa2 in the paper's
# range [1, 1 + golden ratio); and its slack n0 of steps over bisection
_ITP_DELTA0 = 0.2
_ITP_KAPPA2 = 2.5
_ITP_N0 = 1
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
        # the direct sum did not meet its tail bound by the order cap; -inf
        # is a convention for "unsatisfied", not a bound: at q = Q_MAX the
        # scaled partial sum is about (1e-9)^m times the raw one, tiny, and
        # a bounded lhs can sit here too (ROADMAP item 2: enclosures).  The
        # error is discarded unread, so a doomed sum (every direct sample at
        # Q_MAX) never walks its coefficients to the cap
        return -math.inf


def critical_q(
    cid: CriterionId,
    variant: str,
    m: float,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> CriticalQ:
    """The q at which the criterion margin crosses zero.

    Every criterion is satisfied as q -> 0 (lhs -> 0 <= 1-gamma).  The margin
    is sampled at q = Q_MAX k/16, k = 1..16, and a sign-pattern violation of
    monotonicity is a hard error.  The search starts from the bracket the
    samples give: the first sample with margin <= 0 and the one before it,
    or, when the first sample is already <= 0, the probe at 1e-6 times it.
    iterations counts the ITP steps, one margin evaluation each, after the
    samples and the probe."""
    samples = [Q_MAX * k / _MONOTONE_SAMPLES for k in range(1, _MONOTONE_SAMPLES + 1)]
    margins = [_margin(cid, variant, m, q, c, r) for q in samples]
    for a, b in zip(margins, margins[1:]):
        if b > a + _MONOTONE_SLACK:
            raise NonMonotoneMarginError(
                f"margin of {cid.value} not decreasing in q (variant={variant})"
            )
    if margins[-1] > 0.0:
        return CriticalQ(Q_MAX, 0, margins[-1], BOUNDARY_ALL_Q)
    # a NaN last margin is neither > 0 nor <= 0: it closes the bracket
    hi = next((k for k, f in enumerate(margins) if f <= 0.0), _MONOTONE_SAMPLES - 1)
    if hi:
        lo_q, f_lo = samples[hi - 1], margins[hi - 1]
    else:
        lo_q = samples[0] * 1e-6
        f_lo = _margin(cid, variant, m, lo_q, c, r)
        if f_lo <= 0.0:
            return CriticalQ(0.0, 0, margins[0], BOUNDARY_NO_Q)
    return _itp(
        lambda q: _margin(cid, variant, m, q, c, r), lo_q, samples[hi], f_lo, margins[hi]
    )


def _itp(f, lo: float, hi: float, f_lo: float, f_hi: float) -> CriticalQ:
    """ITP search for the zero of a decreasing f with f(lo) > 0 >= f(hi).

    A step whose bracket has a non-finite end (the -inf of a diverged sum)
    is a midpoint step.  The projection keeps every step within the radius
    that brings the bracket below _Q_TOL in n_max steps, bisection's count
    plus _ITP_N0."""
    width0 = hi - lo
    n_max = math.ceil(math.log2(width0 / _Q_TOL)) + _ITP_N0
    for iterations in range(1, MAX_ITERATIONS + 1):
        width = hi - lo
        x = mid = 0.5 * (lo + hi)
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            x_f = lo + width * f_lo / (f_lo - f_hi)  # regula falsi
            sigma = math.copysign(1.0, mid - x_f)
            delta = _ITP_DELTA0 * width0 * (width / width0) ** _ITP_KAPPA2
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            radius = _Q_TOL * 2.0 ** (n_max - iterations) - 0.5 * width
            x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
            if not lo < x < hi:  # rounding at a narrow bracket
                x = mid
        f_x = f(x)
        if abs(f_x) <= MARGIN_TOL or width < _Q_TOL:
            break
        if f_x > 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return CriticalQ(x, iterations, f_x)


def scan(
    cid: CriterionId,
    variant: str,
    m_grid,
    xi_grid,
    gamma_grid,
    rho_grid,
    r: RTauParams | None = None,
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
                        res, error = critical_q(cid, variant, m, c, r), ""
                    # per-row capture of the errors cli.main reports; the
                    # scan continues, and any other exception is a bug
                    except (ValueError, ArithmeticError, RuntimeError) as exc:
                        res, error = CriticalQ(0.0, 0, 0.0), str(exc)
                    rows.append(ScanRow(
                        cid.value, variant, m, xi, gamma, rho, **asdict(res), error=error
                    ))
    return rows
