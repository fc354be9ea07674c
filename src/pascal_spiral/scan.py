"""Critical-q search (where a criterion becomes tight) and parameter sweeps.

Every margin 1-gamma - lhs decreases in q, in all 18 (criterion, variant)
forms.  With X ~ NB(m, q), P(X = k) = C(k+m-1, m-1) q^k (1-q)^m, the direct
lhs of theta-in-k, integral-in-s and the lambda criteria is E[h(X)] with
h(0) = 0 and h(k) = w(k+1), where w is weight_K, weight_S/n, or weight_S or
weight_K times the R^tau bound; the rederived lambda-in-k closed form is the
R^tau prefactor times E[h(X)] with w = weight_S.  Each w is >= 0 and
nondecreasing in n, because the slope A of weight_S(n) = A(n-1) + 1-gamma
is >= 1-gamma >= (1-gamma) vartheta; and NB(m, q) increases in q in the
likelihood-ratio order (Shaked & Shanthikumar, Stochastic Orders, 2007,
1.C), so E[h(X)] does too.  The theta-in-s and integral-in-k lhs is
A sum_k k C(k+m-1, m-1) q^k in every variant, a power series with
nonnegative coefficients.  The other closed forms equal a direct lhs (times
the positive R^tau prefactor for lambda-in-s) or are sums of terms that each
increase in q (the printed convex form of theta-in-k and lambda-in-k).  So
only rounding can make a margin rise, as sum_Sinv's does below q ~ 1e-3;
tests/test_scan.py checks the property over the documented domain.

At q = 0 the lhs is 0 and the margin 1-gamma > 0, so a root is either
interior or absent up to Q_MAX.  critical_q brackets it by halving 1-q and
finds it by ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM
TOMS 47(1), 2020): a regula falsi step, pulled toward the midpoint and kept
within bisection's worst-case step count.  It needs no derivative, keeps
bisection's guarantee, and converges superlinearly on the smooth margins."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .criteria import CriterionId, SpiralClassParams, evaluate_criterion
from .series import PascalParams, RTauParams
from .summation import SummationDivergenceError

Q_MAX = 1.0 - 1e-9
MAX_ITERATIONS = 60
# the search stops once |margin| is at most this times 1-gamma, the rhs (an
# absolute bound takes a false root where 1-gamma, and with it the margin's
# scale, is tiny), or once the bracket the step was chosen from is narrower
# than _Q_TOL
MARGIN_TOL = 1e-10
_Q_TOL = 1e-14
# ITP's truncation kappa1 * width**kappa2, written as 0.2 of the first
# bracket times (width / first width)**kappa2, with kappa2 in the paper's
# range [1, 1 + golden ratio); and its slack n0 of steps over bisection
_ITP_DELTA0 = 0.2
_ITP_KAPPA2 = 2.5
_ITP_N0 = 1
_MONOTONE_SLACK = 1e-12

BOUNDARY_ALL_Q = "satisfied_for_all_q"
# no result carries this label (the margin at q = 0 is 1-gamma > 0, so every
# root is interior or all-q); perfbench/checks.py still reads it
BOUNDARY_NO_Q = "unsatisfied_for_all_q"


class NonMonotoneMarginError(RuntimeError):
    """A halving probe's margin rose above the one before it."""


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
        # error is discarded unread, so a doomed sum (the direct margin at
        # Q_MAX that critical_q takes first) never walks its coefficients to
        # the cap
        return -math.inf


def critical_q(
    cid: CriterionId,
    variant: str,
    m: float,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> CriticalQ:
    """The q at which the criterion margin crosses zero.

    The margin at Q_MAX decides the all-q boundary.  Otherwise the bracket
    starts at (0, 1-gamma), exact since the lhs at q = 0 is 0, and its upper
    end halves 1-q: q = 1 - 2^-k for k = 1, 2, ..., with the Q_MAX value in
    place of any q past Q_MAX, up to the first margin that is <= 0 (or
    NaN).  A probe whose margin rises above the one before it by more than
    _MONOTONE_SLACK raises NonMonotoneMarginError.  iterations counts the
    ITP steps, one margin evaluation each, after the probes."""
    def margin(q):
        return _margin(cid, variant, m, q, c, r)

    f_top = margin(Q_MAX)
    if f_top > 0.0:
        return CriticalQ(Q_MAX, 0, f_top, BOUNDARY_ALL_Q)
    rhs = 1.0 - c.gamma
    lo, f_lo, gap = 0.0, rhs, 0.5
    while True:
        hi = min(1.0 - gap, Q_MAX)
        f_hi = f_top if hi == Q_MAX else margin(hi)
        if f_hi > f_lo + _MONOTONE_SLACK:
            raise NonMonotoneMarginError(
                f"margin of {cid.value} not decreasing in q (variant={variant})"
            )
        if not f_hi > 0.0:  # a NaN margin closes the bracket too
            return _itp(margin, lo, hi, f_lo, f_hi, MARGIN_TOL * rhs)
        lo, f_lo, gap = hi, f_hi, 0.5 * gap


def _itp(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> CriticalQ:
    """ITP search for the zero of a decreasing f with f(lo) > 0 >= f(hi),
    to |f| <= tol.

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
        if abs(f_x) <= tol or width < _Q_TOL:
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
