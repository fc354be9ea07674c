"""Critical-q search (where a criterion becomes tight) and parameter sweeps.

Every margin 1-gamma - lhs decreases in q, and in m, in all 18 (criterion,
variant) forms.  With X ~ NB(m, q), P(X = k) = C(k+m-1, m-1) q^k (1-q)^m,
the direct lhs of theta-in-k, integral-in-s and the lambda criteria is
E[h(X)] with h(0) = 0 and h(k) = w(k+1), where w is weight_K, weight_S/n,
or weight_S or weight_K times the R^tau bound; the rederived lambda-in-k
closed form is the R^tau prefactor times E[h(X)] with w = weight_S.  Each w
is >= 0 and nondecreasing in n, because the slope A of
weight_S(n) = A(n-1) + 1-gamma is >= 1-gamma >= (1-gamma) vartheta; and
NB(m, q) increases in q, and in m, in the likelihood-ratio order (for
q' > q the pmf ratio is proportional to (q'/q)^k, for m' > m to
Gamma(k+m')/Gamma(k+m), both increasing in k; Shaked & Shanthikumar,
Stochastic Orders, 2007, 1.C), so E[h(X)] increases in both.  The
theta-in-s and integral-in-k lhs is A sum_k k C(k+m-1, m-1) q^k in every
variant, a power series in q whose coefficients (m)_k/k! increase in m.
The other closed forms equal a direct lhs (times the positive R^tau
prefactor for lambda-in-s) or are sums of terms that each increase in q
and in m (the printed convex form of theta-in-k and lambda-in-k).  So
only rounding can make a margin rise, as sum_Sinv's final - q can, by
about (1/q + m) eps relative; tests/test_scan.py checks both properties
over the documented domain, q down to 1e-14.

At q = 0 the lhs is 0 and the margin 1-gamma > 0, so a root is either
interior or absent up to Q_MAX.  critical_q brackets it by halving 1-q and
finds it by ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM
TOMS 47(1), 2020): a regula falsi step, pulled toward the midpoint and kept
within bisection's worst-case step count.  It needs no derivative, keeps
bisection's guarantee, and converges superlinearly on the smooth margins.

A direct root first tries the root of a closed margin that equals the
direct margin in exact arithmetic: the rederived form of theta-in-s,
theta-in-k, integral-in-s and integral-in-k, and for the lambda criteria,
at every vartheta, criteria._lhs_rtau_exact from summation.sum_J.  The
closed root is found by the same search on (0, _START_Q_MAX], to a bracket
below _Q_TOL, before any margin of the variant is evaluated; its
evaluations are not margin evaluations of the variant.  After the direct
margin at Q_MAX, the direct margin at the closed root usually meets the
stop rule, and that root is returned with iterations == 0; otherwise the
start is dropped, and the search runs as it does with no start."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product

from .criteria import (
    CriterionId, SpiralClassParams, _lhs_closed, _lhs_rtau_exact, _rtau_prefactor,
    evaluate_criterion,
)
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
# the closed search of a direct root's start runs on (0, _START_Q_MAX], up
# to a halving probe: sum_J needs about 37/(1-q) terms as m -> 1 (4e10 at
# Q_MAX), and at Q_MAX the closed forms of theta-in-s and integral-in-s
# raise ZeroDivisionError from m = 35 and 36
_START_Q_MAX = 1.0 - 2.0**-7

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
        # the direct sum did not meet its tail bound by the order cap.  The
        # lambda-in-s lhs E[h(X)] stays below sup h = 2|tau|(1-delta) A/vartheta,
        # so 1-gamma minus that, if positive, bounds the margin at every q.
        # Otherwise -inf is a convention for "unsatisfied", not a bound: the
        # bounded integral-in-s lhs can sit here too (ROADMAP items 4, 13)
        if cid is CriterionId.LAMBDA_RTAU_IN_S:
            bound = 1.0 - c.gamma - _rtau_prefactor(r) * c.slope
            if bound > 0.0:
                return bound
        return -math.inf


def critical_q(
    cid: CriterionId,
    variant: str,
    m: float,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> CriticalQ:
    """The q at which the criterion margin crosses zero, found by _search;
    the direct variant starts from _closed_root where it has one."""
    rhs = 1.0 - c.gamma
    return _search(
        lambda q: _margin(cid, variant, m, q, c, r),
        rhs,
        MARGIN_TOL * rhs,
        f"margin of {cid.value} not decreasing in q (variant={variant})",
        _closed_root(cid, variant, m, c, r),
    )


def _closed_root(cid, variant, m, c, r) -> float | None:
    """For the direct variant, the root of a closed margin that equals the
    direct one in exact arithmetic: the rederived form, or for the lambda
    criteria criteria._lhs_rtau_exact; else None.  It is solved to a
    bracket below _Q_TOL, not to MARGIN_TOL, so that it sits on the direct
    root to rounding.  None too where the closed margin stays positive up to
    _START_Q_MAX or its search fails, and for a lambda criterion without r,
    whose direct margin raises: the direct search then runs cold."""
    if variant != "direct" or (cid.needs_rtau and r is None):
        return None
    rhs = 1.0 - c.gamma
    # chosen once: cid.needs_rtau costs about as much as a PascalParams
    if cid.needs_rtau:
        def margin(q):
            return rhs - _lhs_rtau_exact(cid, PascalParams(m, q), c, r)
    else:
        def margin(q):
            return rhs - _lhs_closed(cid, PascalParams(m, q), c, r, True)[0]

    try:
        res = _search(margin, rhs, 0.0, "closed margin not decreasing in q", top=_START_Q_MAX)
    except (ArithmeticError, SummationDivergenceError, NonMonotoneMarginError):
        return None
    return None if res.boundary else res.q_star


def _search(
    margin, rhs: float, tol: float, rising: str, q_h=None, top: float = Q_MAX
) -> CriticalQ:
    """The zero of margin(q), decreasing from rhs = margin(0) > 0, to
    |margin| <= tol or a bracket below _Q_TOL, on (0, top].

    The margin at top decides the all-q boundary.  Then a start q_h, if
    given, whose margin is at most tol in size is the root, after no ITP
    step; any other start is dropped.  The bracket's upper end halves 1-q:
    q = 1 - 2^-k for k = 1, 2, ..., with top's value in place of any q past
    it, up to the first margin that is <= 0 (or NaN).  A probe whose margin
    rises above the one before it by more than _MONOTONE_SLACK raises
    NonMonotoneMarginError(rising).  iterations counts the ITP steps, one
    margin evaluation each, after the probes."""
    f_top = margin(top)
    if f_top > 0.0:
        return CriticalQ(top, 0, f_top, BOUNDARY_ALL_Q)
    if q_h is not None:
        f_h = margin(q_h)
        if abs(f_h) <= tol:
            return CriticalQ(q_h, 0, f_h)
    lo, f_lo, gap = 0.0, rhs, 0.5
    while True:
        q = min(1.0 - gap, top)
        f = f_top if q == top else margin(q)
        if f > f_lo + _MONOTONE_SLACK:
            raise NonMonotoneMarginError(rising)
        if not f > 0.0:  # a NaN margin closes the bracket too
            return _itp(margin, lo, q, f_lo, f, tol)
        lo, f_lo, gap = q, f, 0.5 * gap


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
    # an empty generator is truthy, so each grid is read into a tuple first
    m_grid, xi_grid, gamma_grid, rho_grid = map(tuple, (m_grid, xi_grid, gamma_grid, rho_grid))
    for name, grid in (
        ("m", m_grid), ("xi", xi_grid), ("gamma", gamma_grid), ("rho", rho_grid)
    ):
        if not grid:
            raise ValueError(f"{name} grid must be nonempty")
    rows = []
    for m, xi, gamma, rho in product(m_grid, xi_grid, gamma_grid, rho_grid):
        c = SpiralClassParams(xi=xi, gamma=gamma, rho=rho)
        try:
            res, error = critical_q(cid, variant, m, c, r), ""
        # per-row capture of the errors cli.main reports; the scan
        # continues, and any other exception is a bug
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            res, error = CriticalQ(0.0, 0, 0.0), str(exc)
        rows.append(ScanRow(cid.value, variant, m, xi, gamma, rho, **asdict(res), error=error))
    return rows
