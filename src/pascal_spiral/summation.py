"""Closed forms for the weighted Pascal coefficient sums, each paired with a
brute-force truncated-summation oracle.

Convention: every sum here but sum_J is the *raw* coefficient sum
sum_{n>=2} w(n) C(n+m-2, m-1) q^{n-1}, without the (1-q)^m factor.  The
coefficients (1-q)^m C(n+m-2, m-1) q^{n-1} are P(X = n-1), X ~ NB(m, q), so
sum_S0, sum_S1 and sum_S2 are the moments P(X >= 1), E[X] and E[X(X-1)] of
_nb_moments divided by P(X = 0) = (1-q)^m.  Criteria code applies that
factor explicitly.  sum_J carries it, because its raw sum overflows at large
m where the scaled one does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    PascalParams,
    SummationDivergenceError,
    TAIL_THRESHOLD,
    TRUNCATION_CAP,
    coefficient_blocks,
    geometric_tail,
    order_blocks,
)


_EPS = float(np.finfo(float).eps)
# the factor by which terms may cancel in a sum that a closed form takes
# (sum_J, criteria._lhs_rtau_exact) before it refuses: 2^12 eps is about
# 9e-13 relative
CANCELLATION_LIMIT = 2.0**12


def oracle_sum(
    weight,
    p: PascalParams,
    cap: int = TRUNCATION_CAP,
) -> tuple[float, int] | tuple[np.ndarray, int]:
    """Brute-force sum of w(n) C(n+m-2, m-1) q^{n-1} from n = 2 up to an
    adaptively chosen order N.

    weight is a vectorised, elementwise callable of at most polynomial
    growth.  A weight returning shape (len(n),) gives (value, N).  One
    returning shape (k, len(n)), k >= 1, sums its k rows in one pass over one
    shared coefficient sequence and gives (values, sum of the k orders N):
    each row stops where it would alone, and equals bit for bit the value of
    a weight returning that row only.

    The weight is called once per block of series.order_blocks (512 orders,
    doubling up to 16384) on its orders n0..hi, the first call telling k,
    so a k-row sum's temporaries hold k x up to 16,385 values.

    Termination uses the geometric tail bound
    |t_N| rhat/(1-rhat) < TAIL_THRESHOLD*max(1, |partial|), where rhat
    majorises every remaining term ratio (the coefficient ratio q(n+m-1)/n
    decreases in n for m >= 1).  If a row has not met it by order cap, the
    first such row raises SummationDivergenceError."""
    m, q = p.m, p.q
    if q == 0.0:
        shape = np.shape(weight(np.empty(0)))
        k = 1 if len(shape) == 1 else shape[0]
        return _oracle_result([0.0] * k, [2] * k, len(shape) == 1)
    blocks = coefficient_blocks(m, q, m * q, cap)
    k = 0  # number of rows, told by the first weight evaluation
    orders = [0]  # orders[i] stays 0 while row i is open
    total = 0.0
    last_term = [m * q]
    # raw coefficients, weights and their terms overflow to inf at large m
    # or a huge weight, and inf - inf or inf/inf is nan; such a row's tail
    # bound is inf or nan, it cannot stop, and it raises at the cap
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, n, ratios, coeffs in blocks:
            # weights are evaluated once on n0..hi and sliced into w(n), w(n+1)
            w_ext = np.asarray(weight(n), dtype=float)
            if not k:
                scalar = w_ext.ndim == 1
                k = left = w_ext.reshape(-1, len(n)).shape[0]
                values, orders = [0.0] * k, [0] * k
            w_ext = w_ext.reshape(k, -1)
            wn, wnext = w_ext[:, :-1], w_ext[:, 1:]
            terms = wn * coeffs
            # in place where a temporary would hold k rows: the same operations
            prefix = np.cumsum(terms, axis=1)
            prefix += total
            # a zero weight followed by a zero weight contributes nothing to
            # the tail ratio; a zero followed by a nonzero forces one more step
            wratio = np.where(wnext == 0.0, 1.0, np.inf)
            np.divide(wnext, wn, out=wratio, where=wn != 0.0)
            rhat = np.maximum(wratio, 1.0, out=wratio)
            rhat *= ratios[:-1]
            done = geometric_tail(terms, rhat) < TAIL_THRESHOLD * np.maximum(
                1.0, np.abs(prefix)
            )
            if done.any():
                first = done.argmax(axis=1)
                for i in range(k):
                    j = first[i]
                    if not orders[i] and done[i, j]:
                        values[i], orders[i] = prefix[i, j], n0 + int(j)
                        left -= 1
                if not left:
                    return _oracle_result(values, orders, scalar)
            total = prefix[:, -1:]
            last_term = np.abs(terms[:, -1])
    raise SummationDivergenceError(float(last_term[orders.index(0)]), cap)


def _oracle_result(values, orders, scalar):
    if scalar:
        return float(values[0]), orders[0]
    return np.array(values, dtype=float), sum(orders)


def _nb_moments(p: PascalParams) -> tuple[float, float, float, float]:
    """(P(X >= 1), E[X], E[X(X-1)], P(X = 0)) of X ~ NB(m, q), the one place
    these moments are written.  P(X >= 1) is -expm1(m log1p(-q)), since
    1 - (1-q)^m cancels as q -> 0."""
    m, q = p.m, p.q
    d = 1.0 - q
    return (
        -math.expm1(m * math.log1p(-q)),
        m * q / d,
        m * (m + 1.0) * q**2 / d**2,
        d**m,
    )


def sum_S0(p: PascalParams) -> float:
    """sum_{n>=2} C(n+m-2, m-1) q^{n-1} = (1-q)^{-m} - 1."""
    m0, _, _, t = _nb_moments(p)
    return m0 / t


def sum_S1(p: PascalParams) -> float:
    """sum_{n>=2} (n-1) C(n+m-2, m-1) q^{n-1} = q m / (1-q)^{m+1}."""
    _, m1, _, t = _nb_moments(p)
    return m1 / t


def sum_S2(p: PascalParams) -> float:
    """sum_{n>=2} (n-1)(n-2) C(n+m-2, m-1) q^{n-1}
    = q^2 m(m+1) / (1-q)^{m+2}."""
    _, _, m2, t = _nb_moments(p)
    return m2 / t


def sum_Sinv(p: PascalParams) -> float:
    """sum_{n>=2} (1/n) C(n+m-2, m-1) q^{n-1} = (L expm1(y)/y - q)/q, with
    L = -ln(1-q) and y = (m-1)L, since (1-q)^(1-m) = e^y.  It is taken as
    (L (1-q) (-expm1(-y)/y) / t - q)/q with t = (1-q)^m, since
    e^y - 1 = (1-q)(1 - e^-y)/t, so e^y is never formed: only the final - q
    cancels, about (1/q + m) eps relative."""
    if p.q == 0.0:
        return 0.0
    L = -math.log1p(-p.q)
    y = (p.m - 1.0) * L
    # y is 0 at m = 1, or below q ~ 1e-308, where -expm1(-y)/y is 1
    g = -math.expm1(-y) / y if y else 1.0
    return (L * (1.0 - p.q) * g / (1.0 - p.q) ** p.m - p.q) / p.q


def sum_J(p: PascalParams, vartheta: float) -> float:
    """J = sum_{k>=1} P(X = k)/(1 + vartheta k), X ~ NB(m, q), that is
    (1-q)^m sum_{n>=2} C(n+m-2, m-1) q^{n-1}/(1 + vartheta(n-1)): the
    R^tau-weighted sum, (1-q)^m sum_Sinv at vartheta = 1.

    With a = 1/vartheta, sum_{k>=0} (m)_k q^k/(k! (1 + vartheta k)) is
    2F1(m, a; a+1; q), which Euler's transformation (DLMF 15.8.1) writes as
    (1-q)^(1-m) sum_{j>=0} e_j q^j, with e_0 = 1 and
    e_{j+1}/e_j = (a+1-m+j)/(a+1+j).  So
    J = (1-q) (sum_{j>=1} e_j q^j - expm1((m-1) log1p(-q))), whose terms
    decay like j^-m q^j.  From j = m-a-1 on they keep one sign and shrink
    by ratios below q; the sum stops at the end of the first block there
    whose last term's geometric tail is below eps times the bracket.  It
    walks series.order_blocks over j = 0..TRUNCATION_CAP-1, with a first
    block of the log(eps(1-q))/log(q) terms that q^j alone needs, about
    37/(1-q) as q -> 1; if the last block misses the stop rule, it raises
    SummationDivergenceError.

    Before j = m-a-1 the terms alternate in sign, and cancel where m is well
    above a+1 (at vartheta = 1 and m = 627, 6e-15 relative at q = 0.01,
    8e-4 at q = 0.05).  Where the magnitudes of the blocks that begin there
    sum to more than CANCELLATION_LIMIT times the bracket, or the bracket is
    nan, it raises FloatingPointError."""
    m, q = p.m, p.q
    if q == 0.0:
        return 0.0
    d = 1.0 / vartheta + 1.0
    c = d - m
    e = math.expm1((m - 1.0) * math.log1p(-q))
    s, term, spread = 0.0, 1.0, 0.0
    first = int(math.log(_EPS * (1.0 - q)) / math.log(q)) + 1
    # alternating terms can overflow to inf, and their sum to nan
    with np.errstate(over="ignore", invalid="ignore"):
        for j0, hi in order_blocks(TRUNCATION_CAP - 1, 0, first):
            j = np.arange(float(j0), float(hi))
            terms = c + j
            terms /= d + j
            terms *= q
            np.cumprod(terms, out=terms)
            terms *= term
            if c + j0 < 0.0:
                spread += float(np.abs(terms).sum())
            s += float(terms.sum())
            term = float(terms[-1])
            # (a nan sum stops here too)
            if c + hi >= 0.0 and not abs(term) * q > _EPS * (1.0 - q) * abs(s - e):
                break
        else:
            raise SummationDivergenceError(abs(term), TRUNCATION_CAP)
    if not spread <= CANCELLATION_LIMIT * abs(s - e):
        raise FloatingPointError(
            f"sum_J cancels at m={m}, q={q}, vartheta={vartheta}"
        )
    return (1.0 - q) * (s - e)


IDENTITY_IDS = ("S0", "S1", "S2", "Sinv")

_IDENTITY_CLOSED = {"S0": sum_S0, "S1": sum_S1, "S2": sum_S2, "Sinv": sum_Sinv}
_IDENTITY_WEIGHT = {
    "S0": np.ones_like,
    "S1": lambda n: n - 1.0,
    "S2": lambda n: (n - 1.0) * (n - 2.0),
    "Sinv": lambda n: 1.0 / n,
}


@dataclass(frozen=True)
class IdentityReport:
    """One closed form checked against its truncated oracle."""

    identity_id: str
    closed_form: float
    truncated: float
    truncation_order: int
    abs_error: float


def identity_report(identity_id: str, p: PascalParams) -> IdentityReport:
    if identity_id not in _IDENTITY_CLOSED:
        raise ValueError(f"unknown identity {identity_id!r}")
    closed = _IDENTITY_CLOSED[identity_id](p)
    truncated, order = oracle_sum(_IDENTITY_WEIGHT[identity_id], p)
    return IdentityReport(identity_id, closed, truncated, order, abs(closed - truncated))


def all_identity_reports(p: PascalParams) -> list[IdentityReport]:
    return [identity_report(i, p) for i in IDENTITY_IDS]
