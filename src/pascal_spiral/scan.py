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

As q -> 1 each lhs rises to its limit L = sup h (criteria._lhs_limit): A
for integral-in-s, 2|tau|(1-delta) A/vartheta for lambda-in-s, inf for the
rest, in every variant.  A margin that cannot be evaluated (a sum past its
cap, a closed form's ArithmeticError, or an lhs that is not finite) is
1-gamma - L if >= 0, else -inf.

A direct sum near q = 1 is past oracle_sum's reach: at Q_MAX it would need
about 3.7e10 terms.  The oracle has one way to fail, walking all
TRUNCATION_CAP terms before it raises, so _margin first tests a certificate
that the sum cannot stop, and where it holds takes the value above without
summing.  This is the only early "cannot stop" rule, and it sits here,
where the monotone weights it needs are known.  Since w >= 0 is
nondecreasing and every coefficient ratio q(n+m-1)/n is >= q, each term is
t_n >= t_2 q^(n-2), each partial sum is <= t_n (n-1) q^-(n-2), and the
oracle's tail bound is >= t_n q/(1-q).  The stop rule
tail < TAIL_THRESHOLD max(float_min, |partial|) is relative, so no order
n <= N = TRUNCATION_CAP meets it when q^(N-1) >= 2 TAIL_THRESHOLD (1-q)(N-1),
the 2 being slack for rounding: a condition on q alone, whatever the
weight's scale.  It covers 1-q up to about 2.8e-4, against the oracle's
true reach of about 3.6e-4.  The proof needs the first term w(2) m q to be
nonzero, so that the partial sums are positive (a sum of zeros stops at
once).  Every direct w(2) is > 0, weight_S(2) = A + 1-gamma times 2, 1/2 or
a positive R^tau bound; only a first term within a factor of about 1e12 of
the float underflow could round a later term to 0.

At q = 0 the lhs is 0 and the margin 1-gamma > 0, so a root is either
interior or absent up to Q_MAX, where a margin >= 0 means all q, as in
Verdict.satisfied.  critical_q brackets it by halving 1-q and finds it by
ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47(1),
2020): a regula falsi step, pulled toward the midpoint and kept within
bisection's worst-case step count.  It needs no derivative, keeps
bisection's guarantee, and converges superlinearly on the smooth margins.

A direct root first tries the root of a closed margin that equals the
direct margin in exact arithmetic: the rederived form of theta-in-s,
theta-in-k, integral-in-s and integral-in-k, and for the lambda criteria,
at every vartheta, criteria._lhs_rtau_exact from summation.sum_J.  The
closed root is found by the same halving walk and ITP on (0, _START_Q_MAX],
to a bracket below _Q_TOL, after the direct margin at Q_MAX and only where
that margin is < 0, so an all-q row builds no start; its evaluations are
not margin evaluations of the variant.  That walk's top is its last probe,
reached only when every lower one is positive, so a closed form that
refuses near q = 1, or sum_J at its dearest there, costs nothing to a root
below.  The direct margin at the closed root usually meets the stop rule,
and that root is returned with iterations == 0; otherwise the start is
dropped, and the search runs as it does with no start."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .criteria import (
    CriterionId, SpiralClassParams, _lhs_closed, _lhs_limit, _lhs_rtau_exact,
    evaluate_criterion,
)
from .series import TAIL_THRESHOLD, TRUNCATION_CAP, PascalParams, RTauParams
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
# to a halving probe, its last: sum_J needs about 37/(1-q) terms as m -> 1
# (4e10 at Q_MAX), and at Q_MAX the closed forms of theta-in-s and
# integral-in-s raise ZeroDivisionError from m = 35 and 36
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
    p = PascalParams(m, q)
    if not (variant == "direct" and _past_oracle_reach(q)):
        try:
            verdict = evaluate_criterion(cid, p, c, r, variant)
        except (SummationDivergenceError, ArithmeticError):
            pass
        else:
            # an lhs that is not finite has failed in floating point, like
            # one that raises (ROADMAP item 5)
            if math.isfinite(verdict.lhs):
                return verdict.margin
    # 1-gamma - L bounds the margin at every q when >= 0 (the module
    # docstring); -inf otherwise means "unsatisfied", not a bound: the lhs
    # can still sit below 1-gamma at this q (ROADMAP item 13)
    bound = 1.0 - c.gamma - _lhs_limit(cid, c, r)
    return bound if bound >= 0.0 else -math.inf


def _past_oracle_reach(q: float) -> bool:
    """True only where oracle_sum cannot meet its stop rule on a direct sum
    by TRUNCATION_CAP, so that the sum would raise SummationDivergenceError:
    the certificate of the module docstring, with a factor 2 of slack for
    rounding.  It assumes the sum's first term w(2) m q is not 0."""
    n = TRUNCATION_CAP - 1.0
    return q**n >= 2.0 * TAIL_THRESHOLD * (1.0 - q) * n


def critical_q(
    cid: CriterionId,
    variant: str,
    m: float,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> CriticalQ:
    """The zero of the criterion margin, decreasing in q from 1-gamma at
    q = 0, to |margin| <= MARGIN_TOL (1-gamma) or a bracket below _Q_TOL,
    on (0, Q_MAX].

    The first probe is Q_MAX: a margin >= 0 there is the all-q boundary.
    Then the direct variant tries _closed_root's start, which is the root,
    after no ITP step, if its margin meets that stop rule; any other start
    is dropped, and _walk brackets the root.  iterations counts the ITP
    steps, one margin evaluation each, after the probes."""
    if cid.needs_rtau and r is None:
        raise ValueError(f"{cid.value} requires R^tau parameters")
    rhs = 1.0 - c.gamma
    tol = MARGIN_TOL * rhs

    def margin(q):
        return _margin(cid, variant, m, q, c, r)

    f_top = margin(Q_MAX)
    if f_top >= 0.0:
        return CriticalQ(Q_MAX, 0, f_top, BOUNDARY_ALL_Q)
    q_h = _closed_root(cid, variant, m, c, r)
    if q_h is not None:
        f_h = margin(q_h)
        if abs(f_h) <= tol:
            return CriticalQ(q_h, 0, f_h)
    rising = f"margin of {cid.value} not decreasing in q (variant={variant})"
    return _walk(margin, rhs, tol, rising, Q_MAX)


def _closed_root(cid, variant, m, c, r) -> float | None:
    """For the direct variant, the root of a closed margin that equals the
    direct one in exact arithmetic: the rederived form, or for the lambda
    criteria criteria._lhs_rtau_exact; else None.  It is solved to a
    bracket below _Q_TOL, not to MARGIN_TOL, so that it sits on the direct
    root to rounding.  None too where the closed margin stays positive up
    to _START_Q_MAX (the walk's all-q) or its search fails: the direct
    search then runs cold."""
    if variant != "direct":
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
        res = _walk(margin, rhs, 0.0, "closed margin not decreasing in q", _START_Q_MAX)
    except (ArithmeticError, SummationDivergenceError, NonMonotoneMarginError):
        return None
    return None if res.boundary else res.q_star


def _walk(margin, rhs: float, tol: float, rising: str, top: float) -> CriticalQ:
    """The halving walk of margin(q), decreasing from rhs = margin(0) > 0,
    on (0, top], then _itp on the bracket it closes.

    The bracket's upper end halves 1-q: q = 1 - 2^-k for k = 1, 2, ..., with
    top in place of any q past it, up to the first margin that is <= 0 (or
    NaN).  top is the last probe, reached only when every lower one is
    positive; a margin >= 0 there is the all-q boundary.  A probe whose
    margin rises above the one before it by more than _MONOTONE_SLACK
    raises NonMonotoneMarginError(rising)."""
    lo, f_lo, gap = 0.0, rhs, 0.5
    while True:
        q = min(1.0 - gap, top)
        f = margin(q)
        if f > f_lo + _MONOTONE_SLACK:
            raise NonMonotoneMarginError(rising)
        if q == top and f >= 0.0:
            return CriticalQ(top, 0, f, BOUNDARY_ALL_Q)
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
        rows.append(ScanRow(
            cid.value, variant, m, xi, gamma, rho,
            res.q_star, res.iterations, res.residual_margin, res.boundary, error,
        ))
    return rows
