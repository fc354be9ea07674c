"""Closed forms for the weighted Pascal coefficient sums, each paired with a
brute-force truncated-summation oracle.

Convention: every sum here is the *raw* coefficient sum
sum_{n>=2} w(n) C(n+m-2, m-1) q^{n-1}, without the (1-q)^m factor.  Criteria
code applies that factor explicitly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import (
    PascalParams,
    SummationDivergenceError,
    TAIL_THRESHOLD,
    TRUNCATION_CAP,
    coefficient_blocks,
    geometric_tail,
)


def _weight_one(n):
    return np.ones_like(n)


def _weight_n_minus_1(n):
    return n - 1.0


def _weight_rising2(n):
    return (n - 1.0) * (n - 2.0)


def _weight_inv_n(n):
    return 1.0 / n


WEIGHTS: dict[str, Callable] = {
    "one": _weight_one,
    "n_minus_1": _weight_n_minus_1,
    "rising2": _weight_rising2,
    "inv_n": _weight_inv_n,
}


# a sum is doomed when the coefficient ratio at the cap clears 1 by more
# than the few ulps that rounding q*(n+m-1)/n can move it at any order
_DOOMED_RATIO = 1.0 + 8.0 * np.finfo(float).eps


def oracle_sum(
    weight,
    p: PascalParams,
    cap: int = TRUNCATION_CAP,
) -> tuple[float, int] | tuple[np.ndarray, int]:
    """Brute-force sum of w(n) C(n+m-2, m-1) q^{n-1} from n = 2 up to an
    adaptively chosen order N.

    weight is one of the WEIGHTS keys or a vectorised, elementwise callable
    of at most polynomial growth.  A weight returning shape (len(n),) gives
    (value, N).  One returning shape (k, len(n)) sums its k rows in one pass
    over one shared coefficient sequence and gives (values, sum of the k
    orders N): each row stops where it would alone, and equals bit for bit
    the value of a weight returning that row only.

    The weight is called once per block of series.order_blocks (512 orders,
    doubling up to 16384) on its orders n0..hi, the first call telling k,
    so a k-row sum's temporaries hold k x up to 16,385 values.

    Termination uses the geometric tail bound
    |t_N| rhat/(1-rhat) < TAIL_THRESHOLD*max(1, |partial|), where rhat
    majorises every remaining term ratio (the coefficient ratio q(n+m-1)/n
    decreases in n for m >= 1).  If a row has not met it by order cap, the
    first such row raises SummationDivergenceError.

    Doomed sums stop early.  Since the coefficient ratio decreases in n, a
    ratio >= 1 at n = cap (with a few ulps to spare) makes every ratio up to
    the cap >= 1; rhat, the ratio times max(1, w(n+1)/w(n)), is then >= 1
    too, the tail bound is inf at every order, and no row, whatever its
    weight, can stop.  Such a sum evaluates its weight at orders cap and
    cap + 1 only (a zero-row weight still gives (empty, 0)) and raises at
    once.  Its error carries the coefficient walk to the cap, deferred: the
    blocks are walked, under the numpy error state saved at the raise, the
    first time last_term or str() is read (and again at the next read if
    that walk raised), and give the same message, last_term and order as
    the full walk.  A caller that discards the error
    walks no block.  Only numpy's floating-point warnings and errors can
    differ: the weighted terms and partial sums are never formed, and an
    overflow of the coefficients warns (or, under np.errstate(over="raise")
    or warnings as errors, raises) at the read, not at the call."""
    w = WEIGHTS[weight] if isinstance(weight, str) else weight
    m, q = p.m, p.q
    if q == 0.0:
        shape = np.shape(w(np.empty(0)))
        k = 1 if len(shape) == 1 else shape[0]
        return _oracle_result([0.0] * k, [2] * k, len(shape) == 1)
    # (a cap below 2 has no block to walk, and raises below)
    if cap >= 2 and q * (cap + m - 1.0) / cap >= _DOOMED_RATIO:
        w_end = np.asarray(w(np.array([cap, cap + 1.0])), dtype=float).reshape(-1, 2)
        if not len(w_end):
            return np.empty(0), 0
        # row 0 is the first open row; c_cap is walked for only if read
        raise SummationDivergenceError(
            functools.partial(_doomed_last_term, m, q, cap, w_end[:1, 0], np.geterr()), cap
        )
    blocks = coefficient_blocks(m, q, m * q, cap)
    k = 0  # number of rows, told by the first weight evaluation
    orders = [0]  # orders[i] stays 0 while row i is open
    total = 0.0
    last_term = [m * q]
    for n0, n, ratios, coeffs in blocks:
        # weights are evaluated once on n0..hi and sliced into w(n), w(n+1)
        w_ext = np.asarray(w(n), dtype=float)
        if not k:
            scalar = w_ext.ndim == 1
            k = left = w_ext.reshape(-1, len(n)).shape[0]
            if not k:
                return np.empty(0), 0
            values, orders = [0.0] * k, [0] * k
        w_ext = w_ext.reshape(k, -1)
        wn, wnext = w_ext[:, :-1], w_ext[:, 1:]
        terms = wn * coeffs
        prefix = total + np.cumsum(terms, axis=1)
        # a zero weight followed by a zero weight contributes nothing to
        # the tail ratio; a zero followed by a nonzero forces one more step
        wratio = np.where(wnext == 0.0, 1.0, np.inf)
        np.divide(wnext, wn, out=wratio, where=wn != 0.0)
        rhat = ratios[:-1] * np.maximum(wratio, 1.0)
        done = geometric_tail(terms, rhat) < TAIL_THRESHOLD * np.maximum(1.0, np.abs(prefix))
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


def _doomed_last_term(m, q, cap, w_cap, err) -> float:
    """|w(cap) c_cap| of a doomed sum: its coefficient walked through every
    block, under the numpy error state of the oracle_sum call that raised.
    Each call walks from the first block, so a read that raises (an overflow
    under over="raise" or warnings as errors) raises the same on the next."""
    with np.errstate(**err):
        # only the coefficient advances
        for *_, coeffs in coefficient_blocks(m, q, m * q, cap):
            pass
        # the product as in terms
        return float(np.abs(w_cap * coeffs[-1:])[0])


def _oracle_result(values, orders, scalar):
    if scalar:
        return float(values[0]), orders[0]
    return np.array(values, dtype=float), sum(orders)


def sum_S0(p: PascalParams) -> float:
    """sum_{n>=2} C(n+m-2, m-1) q^{n-1} = (1-q)^{-m} - 1."""
    return (1.0 - p.q) ** (-p.m) - 1.0


def sum_S1(p: PascalParams) -> float:
    """sum_{n>=2} (n-1) C(n+m-2, m-1) q^{n-1} = q m / (1-q)^{m+1}."""
    return p.q * p.m / (1.0 - p.q) ** (p.m + 1.0)


def sum_S2(p: PascalParams) -> float:
    """sum_{n>=2} (n-1)(n-2) C(n+m-2, m-1) q^{n-1}
    = q^2 m(m+1) / (1-q)^{m+2}."""
    return p.q**2 * p.m * (p.m + 1.0) / (1.0 - p.q) ** (p.m + 2.0)


# Below this distance from m = 1 the closed form for sum_Sinv divides by a
# catastrophically small (m-1); fall back to the oracle there.
_SINV_M1_WINDOW = 1e-4


def sum_Sinv(p: PascalParams) -> float:
    """sum_{n>=2} (1/n) C(n+m-2, m-1) q^{n-1}.

    For m > 1:
        [(1-q) - (1-q)^m - q(m-1)(1-q)^m] / (q(m-1)(1-q)^m).
    At m = 1 the analytic limit is (-ln(1-q) - q)/q; for 0 < |m-1| < 1e-4
    the oracle is used instead of the ill-conditioned closed form."""
    if p.q == 0.0:
        return 0.0
    if p.m == 1.0:
        return (-math.log1p(-p.q) - p.q) / p.q
    if abs(p.m - 1.0) < _SINV_M1_WINDOW:
        return oracle_sum("inv_n", p)[0]
    t = (1.0 - p.q) ** p.m
    return ((1.0 - p.q) - t - p.q * (p.m - 1.0) * t) / (p.q * (p.m - 1.0) * t)


IDENTITY_IDS = ("S0", "S1", "S2", "Sinv")

_IDENTITY_CLOSED = {"S0": sum_S0, "S1": sum_S1, "S2": sum_S2, "Sinv": sum_Sinv}
_IDENTITY_WEIGHT = {"S0": "one", "S1": "n_minus_1", "S2": "rising2", "Sinv": "inv_n"}


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
