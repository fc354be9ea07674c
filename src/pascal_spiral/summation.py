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

from .series import PascalParams, SummationDivergenceError, TAIL_THRESHOLD, TRUNCATION_CAP


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


def oracle_sum(
    weight,
    p: PascalParams,
    tol: float = TAIL_THRESHOLD,
    cap: int = TRUNCATION_CAP,
) -> tuple[float, int]:
    """Brute-force sum of w(n) C(n+m-2, m-1) q^{n-1} from n = 2 up to an
    adaptively chosen order N; returns (value, N).

    weight is one of the WEIGHTS keys or a vectorised callable of at most
    polynomial growth.  Termination uses the geometric tail bound
    |t_N| rhat/(1-rhat) < tol*max(1, |partial|), where rhat majorises every
    remaining term ratio (the coefficient ratio q(n+m-1)/n decreases in n
    for m >= 1)."""
    w = WEIGHTS[weight] if isinstance(weight, str) else weight
    m, q = p.m, p.q
    if q == 0.0:
        return 0.0, 2
    total = 0.0
    coeff = m * q  # raw coefficient at n = 2
    n0 = 2
    block = 512
    last_term = coeff
    while n0 <= cap:
        hi = min(n0 + block, cap + 1)
        n = np.arange(float(n0), float(hi))
        ratios = q * (n + m - 1.0) / n
        factors = np.empty_like(n)
        factors[0] = coeff
        factors[1:] = ratios[:-1]
        coeffs = np.cumprod(factors)
        wn = np.asarray(w(n), dtype=float)
        terms = wn * coeffs
        prefix = total + np.cumsum(terms)
        wnext = np.asarray(w(n + 1.0), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero weight followed by a zero weight contributes nothing to
            # the tail ratio; a zero followed by a nonzero forces one more step
            wratio = np.where(
                wn != 0.0, wnext / wn, np.where(wnext == 0.0, 1.0, np.inf)
            )
        rhat = ratios * np.maximum(wratio, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(rhat < 1.0, np.abs(terms) * rhat / (1.0 - rhat), np.inf)
        done = tail < tol * np.maximum(1.0, np.abs(prefix))
        if done.any():
            i = int(np.argmax(done))
            return float(prefix[i]), int(n[i])
        total = float(prefix[-1])
        coeff = float(coeffs[-1] * ratios[-1])
        last_term = float(abs(terms[-1]))
        n0 = hi
        block = min(block * 2, 16384)
    raise SummationDivergenceError(last_term, cap)


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
