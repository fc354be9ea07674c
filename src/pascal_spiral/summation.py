"""Closed forms for the weighted Pascal coefficient sums, each paired with a
brute-force truncated-summation oracle.

Convention: every sum here is the *raw* coefficient sum
sum_{n>=2} w(n) C(n+m-2, m-1) q^{n-1}, without the (1-q)^m factor.  Criteria
code applies that factor explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import (
    PascalParams,
    SummationDivergenceError,
    TAIL_THRESHOLD,
    TRUNCATION_CAP,
    geometric_tail,
    order_blocks,
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


# terms (rows x columns) in one sub-chunk of a block, as in the largest
# block of a one-row sum
_CHUNK = 16384


def oracle_sum(
    weight,
    p: PascalParams,
    cap: int = TRUNCATION_CAP,
) -> tuple[float, int] | tuple[np.ndarray, int]:
    """Brute-force sum of w(n) C(n+m-2, m-1) q^{n-1} from n = 2 up to an
    adaptively chosen order N.

    weight is one of the WEIGHTS keys or a vectorised callable of at most
    polynomial growth.  A weight returning shape (len(n),) gives (value, N).
    One returning shape (k, len(n)) sums its k rows in one pass over one
    shared coefficient sequence and gives (values, sum of the k orders N):
    each row stops where it would alone, and equals bit for bit the value of
    a weight returning that row only.

    Termination uses the geometric tail bound
    |t_N| rhat/(1-rhat) < TAIL_THRESHOLD*max(1, |partial|), where rhat
    majorises every remaining term ratio (the coefficient ratio q(n+m-1)/n
    decreases in n for m >= 1).  If a row has not met it by order cap, the
    first such row raises SummationDivergenceError."""
    w = WEIGHTS[weight] if isinstance(weight, str) else weight
    m, q = p.m, p.q
    if q == 0.0:
        shape = np.shape(w(np.empty(0)))
        k = 1 if len(shape) == 1 else shape[0]
        return _oracle_result([0.0] * k, [2] * k, len(shape) == 1)
    k = 0  # number of rows, told by the first weight evaluation
    orders = [0]  # orders[i] stays 0 while row i is open
    total = 0.0
    coeff = m * q  # raw coefficient at n = 2
    last_term = [coeff]
    for n0, hi in order_blocks(cap):
        size = hi - n0
        # weights are evaluated once on n0..hi and sliced into w(n), w(n+1)
        n = np.arange(float(n0), float(hi + 1))
        ratios = q * (n + m - 1.0) / n
        factors = np.empty(size)
        factors[0] = coeff
        factors[1:] = ratios[: size - 1]
        coeffs = np.cumprod(factors)
        w_block = None
        if not k:
            # the first block (at most 512 orders) is evaluated in one call,
            # whose shape tells k; every later call covers one sub-chunk
            w_block = np.asarray(w(n), dtype=float)
            scalar = w_block.ndim == 1
            w_block = w_block.reshape(-1, size + 1)
            k = left = w_block.shape[0]
            if not k:
                return np.empty(0), 0
            values, orders = [0.0] * k, [0] * k
            chunk = max(1, _CHUNK // k)
        for j0 in range(0, size, chunk):
            j1 = min(j0 + chunk, size)
            if w_block is None:
                w_ext = np.asarray(w(n[j0 : j1 + 1]), dtype=float).reshape(k, -1)
            else:
                w_ext = w_block[:, j0 : j1 + 1]
            wn, wnext = w_ext[:, :-1], w_ext[:, 1:]
            terms = wn * coeffs[j0:j1]
            if j0:  # the block-local running sum carries on from the last chunk
                run = np.cumsum(np.concatenate((run[:, -1:], terms), axis=1), axis=1)[:, 1:]
            else:
                run = np.cumsum(terms, axis=1)
            prefix = total + run
            # a zero weight followed by a zero weight contributes nothing to
            # the tail ratio; a zero followed by a nonzero forces one more step
            wratio = np.where(wnext == 0.0, 1.0, np.inf)
            np.divide(wnext, wn, out=wratio, where=wn != 0.0)
            rhat = ratios[j0:j1] * np.maximum(wratio, 1.0)
            done = geometric_tail(terms, rhat) < TAIL_THRESHOLD * np.maximum(1.0, np.abs(prefix))
            if done.any():
                first = done.argmax(axis=1)
                for i in range(k):
                    j = first[i]
                    if not orders[i] and done[i, j]:
                        values[i], orders[i] = prefix[i, j], n0 + j0 + int(j)
                        left -= 1
                if not left:
                    return _oracle_result(values, orders, scalar)
        total = prefix[:, -1:]
        coeff = float(coeffs[-1] * ratios[size - 1])
        last_term = np.abs(terms[:, -1])
    raise SummationDivergenceError(float(last_term[orders.index(0)]), cap)


def _oracle_result(values, orders, scalar):
    if scalar:
        return float(values[0]), orders[0]
    return np.array(values, dtype=float), sum(orders)


def sum_S0(p: PascalParams) -> float:
    """sum_{n>=2} C(n+m-2, m-1) q^{n-1} = (1-q)^{-m} - 1."""
    if p.q == 0.0:
        return 0.0
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
