"""Membership criteria for the Pascal series, its convolution with the
extremal R^tau series, and its integral transform.

Each criterion is evaluated in three variants:

  paper     -- the published closed form, exactly as printed;
  rederived -- an independently re-derived closed form (differs from paper
               only for the convex-side criteria theta-in-k / lambda-in-k,
               whose printed form contains an erratum);
  direct    -- brute-force summation of the exact per-term weights; this is
               the authoritative value.

For the starlike-side criteria on Theta and its integral transform into the
convex class (theta-in-s / integral-in-k), the raw coefficient sum is
rearranged by an exact monotone transform so that all three variants report
the same left-hand scale; the satisfied flag is unchanged by this.

For the convolution criteria (lambda-in-s / lambda-in-k) the closed forms
replace the R^tau bound 1/(1+vartheta(n-1)) by the larger 1/(vartheta n), so
they equal direct only at vartheta = 1 and are upper bounds otherwise; at
m=2, q=0.3, xi=gamma=rho=0, lambda-in-s gives paper 1.4571 vs direct 1.2406
at vartheta 0.7.  The printed lambda-in-k form also carries the convex-side
erratum and differs from direct at every vartheta.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .series import PascalParams, PowerSeries, RTauParams, rtau_bound
from .summation import oracle_sum, sum_Sinv


@dataclass(frozen=True)
class SpiralClassParams:
    """Class parameters (xi, gamma, rho): spiral angle |xi| < pi/2, order
    0 <= gamma < 1, denominator weight 0 <= rho < 1."""

    xi: float
    gamma: float
    rho: float = 0.0

    def __post_init__(self):
        if not abs(self.xi) < math.pi / 2:
            raise ValueError(f"|xi| must be < pi/2, got {self.xi}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")

    @property
    def sec_xi(self) -> float:
        return 1.0 / math.cos(self.xi)


class CriterionId(enum.Enum):
    THETA_IN_S = "theta-in-s"
    THETA_IN_K = "theta-in-k"
    LAMBDA_RTAU_IN_S = "lambda-in-s"
    LAMBDA_RTAU_IN_K = "lambda-in-k"
    G_IN_K = "integral-in-k"
    G_IN_S = "integral-in-s"

    @property
    def needs_rtau(self) -> bool:
        return self in (CriterionId.LAMBDA_RTAU_IN_S, CriterionId.LAMBDA_RTAU_IN_K)


VARIANTS = ("paper", "rederived", "direct")


@dataclass(frozen=True)
class Verdict:
    """One criterion evaluation: lhs vs rhs = 1 - gamma."""

    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    variant: str
    disagreement: float | None = None


def weight_S(n, c: SpiralClassParams):
    """Per-coefficient weight of the starlike-side sufficient condition:
    (1-rho)(n-1)sec(xi) + (1-gamma)(1+n*rho-rho).  Vectorised in n."""
    return (1.0 - c.rho) * (n - 1.0) * c.sec_xi + (1.0 - c.gamma) * (
        1.0 + n * c.rho - c.rho
    )


def weight_K(n, c: SpiralClassParams):
    """Convex-side weight: n times weight_S."""
    return n * weight_S(n, c)


def deficiency(f: PowerSeries, c: SpiralClassParams, family: str = "S") -> float:
    """sum of weight(n)|a_n| over the stored (truncated) coefficients minus
    (1-gamma); membership is sufficient when <= 0."""
    if family not in ("S", "K"):
        raise ValueError(f"family must be 'S' or 'K', got {family!r}")
    n = np.arange(2.0, f.order + 1.0)
    w = weight_S(n, c) if family == "S" else weight_K(n, c)
    return float(np.sum(w * np.abs(f.coeffs)) - (1.0 - c.gamma))


def _slope(c: SpiralClassParams) -> float:
    # weight_S(n) = A*(n-1) + (1-gamma) with A as below
    return (1.0 - c.rho) * c.sec_xi + c.rho * (1.0 - c.gamma)


def _rtau_prefactor(r: RTauParams) -> float:
    return 2.0 * abs(r.tau) * (1.0 - r.delta) / r.vartheta


def _spiral_sum_closed(p: PascalParams, c: SpiralClassParams) -> float:
    d = (1.0 - p.q) ** (p.m + 1.0)
    if d == 0.0:
        # (1-q)^(m+1) underflows at large m; raise as a float division does,
        # where numpy would return inf for a batch of classes
        raise ZeroDivisionError("float division by zero")
    return _slope(c) * p.q * p.m / d


def _convex_sum_printed(p: PascalParams, c: SpiralClassParams) -> float:
    # the published convex-side closed form, reproduced verbatim
    s, g, rho = c.sec_xi, c.gamma, c.rho
    m, q = p.m, p.q
    t = (1.0 - q) ** m
    return (
        ((1.0 - rho) * s + (1.0 - g)) * m * (m + 1.0) * q**2 / (1.0 - q) ** 2
        + (2.0 * (1.0 - rho) * s + (1.0 - g) * (4.0 - rho)) * m * q / (1.0 - q)
        + (1.0 - g) * (2.0 - rho) * (1.0 - t)
    )


def _convex_sum_rederived(p: PascalParams, c: SpiralClassParams) -> float:
    # expansion n*weight_S(n) = A(n-1)(n-2) + (2A + 1-gamma)(n-1) + (1-gamma)
    a = _slope(c)
    g = c.gamma
    m, q = p.m, p.q
    t = (1.0 - q) ** m
    return (
        a * m * (m + 1.0) * q**2 / (1.0 - q) ** 2
        + (2.0 * a + 1.0 - g) * m * q / (1.0 - q)
        + (1.0 - g) * (1.0 - t)
    )


def _braces_closed(p: PascalParams, c: SpiralClassParams) -> float:
    # sum of (1/n)*weight_S(n)*phi_n in closed form
    t = (1.0 - p.q) ** p.m
    g_inv = t * sum_Sinv(p)
    return _slope(c) * (1.0 - t) + (1.0 - c.rho) * (
        1.0 - c.gamma - c.sec_xi
    ) * g_inv


def _m1_raw_closed(p: PascalParams, c: SpiralClassParams) -> float:
    # sum of weight_S(n)*phi_n in closed form (unnormalised)
    t = (1.0 - p.q) ** p.m
    return _slope(c) * p.q * p.m / (1.0 - p.q) + (1.0 - c.gamma) * (1.0 - t)


def _direct_sum(weight_fn, p: PascalParams) -> list[float]:
    values, _ = oracle_sum(weight_fn, p)
    t = (1.0 - p.q) ** p.m
    return [t * value for value in np.ravel(values).tolist()]


def _columns(cs):
    """The parameters of the classes cs as (k, 1) columns under the
    SpiralClassParams names, so that weight_S(n, _columns(cs)) holds one row
    per class, each computed elementwise as weight_S(n, c).  One class is
    returned as itself: the closed forms take 5-9 us on its floats and
    16-47 us on (1, 1) columns."""
    if len(cs) == 1:
        return cs[0]
    cols = np.array([[c.rho, c.gamma, c.sec_xi] for c in cs]).reshape(-1, 3)
    return SimpleNamespace(rho=cols[:, 0:1], gamma=cols[:, 1:2], sec_xi=cols[:, 2:3])


def _lhs_closed(
    cid: CriterionId, p: PascalParams, cs, r: RTauParams | None, rederived: bool
) -> list[float]:
    """Closed-form lhs of each class in the sequence cs, computed on the
    columns of all classes at once."""
    c = _columns(cs)
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        lhs = _spiral_sum_closed(p, c)
    elif cid is CriterionId.THETA_IN_K:
        lhs = _convex_sum_rederived(p, c) if rederived else _convex_sum_printed(p, c)
    elif cid is CriterionId.G_IN_S:
        lhs = _braces_closed(p, c)
    elif cid is CriterionId.LAMBDA_RTAU_IN_S:
        lhs = _rtau_prefactor(r) * _braces_closed(p, c)
    elif cid is CriterionId.LAMBDA_RTAU_IN_K:
        closed = _m1_raw_closed if rederived else _convex_sum_printed
        lhs = _rtau_prefactor(r) * closed(p, c)
    else:
        raise ValueError(cid)
    return np.ravel(lhs).tolist()


def _lhs_direct(
    cid: CriterionId, p: PascalParams, cs, r: RTauParams | None
) -> list[float]:
    """Direct lhs of each class in the sequence cs, from one oracle pass."""
    cols = _columns(cs)
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        # for the integral transform the convex weight n*weight_S(n) meets
        # coefficients phi_n/n; the n*(1/n) cancellation is exact, so both
        # criteria share one sum
        t = (1.0 - p.q) ** p.m
        raw = _direct_sum(lambda n: weight_S(n, cols), p)
        return [(v - (1.0 - c.gamma) * (1.0 - t)) / t for v, c in zip(raw, cs)]
    if cid is CriterionId.THETA_IN_K:
        return _direct_sum(lambda n: weight_K(n, cols), p)
    if cid is CriterionId.G_IN_S:
        return _direct_sum(lambda n: weight_S(n, cols) / n, p)
    if cid is CriterionId.LAMBDA_RTAU_IN_S:
        return _direct_sum(lambda n: weight_S(n, cols) * rtau_bound(n, r), p)
    if cid is CriterionId.LAMBDA_RTAU_IN_K:
        return _direct_sum(lambda n: weight_K(n, cols) * rtau_bound(n, r), p)
    raise ValueError(cid)


def evaluate_criterion(
    cid: CriterionId,
    p: PascalParams,
    c: SpiralClassParams,
    r: RTauParams | None = None,
    variant: str = "direct",
) -> Verdict:
    """Evaluate one criterion in one variant.  r is required exactly for the
    convolution criteria (lambda-in-s / lambda-in-k) and ignored otherwise."""
    if cid.needs_rtau:
        if r is None:
            raise ValueError(f"{cid.value} requires R^tau parameters")
    else:
        r = None
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "direct":
        lhs = _lhs_direct(cid, p, (c,), r)[0]
    else:
        lhs = _lhs_closed(cid, p, (c,), r, rederived=(variant == "rederived"))[0]
    rhs = 1.0 - c.gamma
    margin = rhs - lhs
    return Verdict(lhs=lhs, rhs=rhs, margin=margin, satisfied=margin >= 0.0, variant=variant)


def evaluate_all(
    cid: CriterionId,
    p: PascalParams,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> dict[str, Verdict]:
    """All three variants, with the max pairwise lhs disagreement attached."""
    verdicts = {v: evaluate_criterion(cid, p, c, r, v) for v in VARIANTS}
    values = [verdicts[v].lhs for v in VARIANTS]
    spread = max(abs(a - b) for a in values for b in values)
    return {v: replace(verdicts[v], disagreement=spread) for v in VARIANTS}


def corollary(
    cid: CriterionId,
    p: PascalParams,
    c: SpiralClassParams,
    r: RTauParams | None = None,
    variant: str = "direct",
) -> Verdict:
    """The rho = 0 specialisation of the same criterion (same code path, so
    results are bitwise-equal to evaluate_criterion at rho = 0)."""
    c0 = SpiralClassParams(xi=c.xi, gamma=c.gamma, rho=0.0)
    return evaluate_criterion(cid, p, c0, r, variant)


# -- default grids used by the acceptance sweeps and the discrepancy report --

DEFAULT_M_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
DEFAULT_Q_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_XI_GRID = (0.0, math.pi / 6, math.pi / 3)
DEFAULT_GAMMA_GRID = (0.0, 0.25, 0.5, 0.75)
DEFAULT_RHO_GRID = (0.0, 0.3, 0.6)
DEFAULT_RTAU = RTauParams(tau=1.0, vartheta=1.0, delta=0.0)


def discrepancy_report(
    threshold: float = 1e-6,
    m_grid=DEFAULT_M_GRID,
    q_grid=DEFAULT_Q_GRID,
    xi_grid=DEFAULT_XI_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    rho_grid=DEFAULT_RHO_GRID,
    r: RTauParams = DEFAULT_RTAU,
) -> dict:
    """Compare the printed closed form against the direct sum for every
    criterion over the grid; collect the rows where they disagree.

    The closed forms and the direct sums of all classes at one (criterion,
    m, q) come from one batch each; each value equals its evaluate_criterion
    lhs bit for bit.

    The flag threshold is scaled by max(1, |direct|): at the large-lhs corner
    of the grid plain double rounding already exceeds 1e-6 absolute, so an
    unscaled test would flag agreement noise."""
    classes = [
        SpiralClassParams(xi, gamma, rho)
        for xi in xi_grid for gamma in gamma_grid for rho in rho_grid
    ]
    flagged = []
    counts = {cid.value: 0 for cid in CriterionId}
    checked = 0
    for cid in CriterionId:
        rc = r if cid.needs_rtau else None
        for m in m_grid:
            for q in q_grid:
                p = PascalParams(m, q)
                # closed forms before direct sums, so that a closed-form error
                # surfaces before a sum runs to its order cap.  As point by
                # point, none runs over no classes, and an overflow gives a
                # silent inf or nan, as on floats
                with np.errstate(over="ignore", invalid="ignore"):
                    papers = _lhs_closed(cid, p, classes, rc, False) if classes else []
                directs = _lhs_direct(cid, p, classes, rc)
                checked += len(classes)
                for c, paper, direct in zip(classes, papers, directs):
                    diff = abs(paper - direct)
                    if diff > threshold * max(1.0, abs(direct)):
                        counts[cid.value] += 1
                        flagged.append(
                            {
                                "criterion": cid.value,
                                "m": m,
                                "q": q,
                                "xi": c.xi,
                                "gamma": c.gamma,
                                "rho": c.rho,
                                "paper_lhs": paper,
                                "direct_lhs": direct,
                                "abs_diff": diff,
                            }
                        )
    return {
        "threshold": threshold,
        "points_checked": checked,
        "flagged_counts": counts,
        "flagged_rows": flagged,
    }
