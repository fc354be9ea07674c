"""Membership criteria for the Pascal series, its convolution with the
extremal R^tau series, and its integral transform.

Each criterion is evaluated in three variants:

  paper     -- the published closed form, exactly as printed;
  rederived -- an independently re-derived closed form (differs from paper
               only for the convex-side criteria theta-in-k / lambda-in-k,
               whose printed form contains an erratum);
  direct    -- brute-force summation of the exact per-term weights; this is
               the authoritative value.

Every direct weight is linear in the class: A*b0(n) + B*b1(n), with
A = (1-rho)sec(xi) + rho(1-gamma) >= 0, B = 1-gamma > 0 and a basis (b0, b1)
per criterion, e.g. (n-1, 1) for theta-in-s and (n(n-1), n) for theta-in-k.
One class (evaluate_criterion) or two are summed one row each; a batch of
more classes (discrepancy_report) sums the two basis rows once and combines
them per class.  evaluate_criterion sums its one criterion's row alone;
discrepancy_report stacks the rows of every criterion at one (m, q) in one
oracle pass, each row equal bit for bit to its sum alone.  On 6 criteria x
9 (m, q) x 25 classes, with q from 1e-6 to 0.99 and sec(xi) up to 1e4, both
stay within 1.5e-14*max(1, |lhs|) of a 40-digit sum, and within 1e-14 of
each other on that scale.

For the starlike-side criteria on Theta and its integral transform into the
convex class (theta-in-s / integral-in-k), the raw coefficient sum is
rearranged by an exact monotone transform so that all three variants report
the same left-hand scale; the satisfied flag is unchanged by this.

For the convolution criteria (lambda-in-s / lambda-in-k) the closed forms
replace the R^tau bound 1/(1+vartheta(n-1)) by the larger 1/(vartheta n), so
they equal direct only at vartheta = 1 and are upper bounds otherwise; at
m=2, q=0.3, xi=gamma=rho=0, lambda-in-s gives paper 1.4571 vs direct 1.2406
at vartheta 0.7.  The printed lambda-in-k form also carries the convex-side
erratum and differs from direct at every vartheta.  The direct lambda lhs
has a closed form at every vartheta too, _lhs_rtau_exact from
summation.sum_J; it starts scan's direct lambda roots, and the rederived
variant keeps the 1/(vartheta n) bound (ROADMAP item 6).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np

from .series import PascalParams, RTauParams, rtau_bound
from .summation import CANCELLATION_LIMIT, oracle_sum, sum_J, sum_Sinv


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

    @property
    def slope(self) -> float:
        """A of weight_S(n) = A(n-1) + (1-gamma)."""
        return (1.0 - self.rho) * self.sec_xi + self.rho * (1.0 - self.gamma)


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


def weight_S(n, c: SpiralClassParams):
    """Per-coefficient weight of the starlike-side sufficient condition:
    (1-rho)(n-1)sec(xi) + (1-gamma)(1+n*rho-rho).  Vectorised in n."""
    return (1.0 - c.rho) * (n - 1.0) * c.sec_xi + (1.0 - c.gamma) * (
        1.0 + n * c.rho - c.rho
    )


def weight_K(n, c: SpiralClassParams):
    """Convex-side weight: n times weight_S."""
    return n * weight_S(n, c)


def _rtau_prefactor(r: RTauParams) -> float:
    return 2.0 * abs(r.tau) * (1.0 - r.delta) / r.vartheta


def _spiral_sum_closed(p: PascalParams, c: SpiralClassParams) -> float:
    d = (1.0 - p.q) ** (p.m + 1.0)
    if d == 0.0:
        # (1-q)^(m+1) underflows at large m; raise as a float division does,
        # where numpy would return inf for a batch of classes
        raise ZeroDivisionError("float division by zero")
    return c.slope * p.q * p.m / d


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
    a = c.slope
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
    return c.slope * (1.0 - t) + (1.0 - c.rho) * (
        1.0 - c.gamma - c.sec_xi
    ) * g_inv


def _m1_raw_closed(p: PascalParams, c: SpiralClassParams) -> float:
    # sum of weight_S(n)*phi_n in closed form (unnormalised)
    t = (1.0 - p.q) ** p.m
    return c.slope * p.q * p.m / (1.0 - p.q) + (1.0 - c.gamma) * (1.0 - t)


def _lhs_rtau_exact(
    cid: CriterionId, p: PascalParams, c: SpiralClassParams, r: RTauParams
) -> float:
    """The direct lhs of lambda-in-s or lambda-in-k in closed form, at every
    vartheta, from the sums J_i of k^i P(X = k)/(1 + vartheta k) over k >= 1,
    X ~ NB(m, q).  J_0 is sum_J, and k/(1 + vartheta k) is
    (1 - 1/(1 + vartheta k))/vartheta, so J_1 = ((1-t) - J_0)/vartheta and
    J_2 = (mq/(1-q) - J_1)/vartheta, t = (1-q)^m.  The direct weight at
    n = k+1 is P(A k + B), P = 2|tau|(1-delta), for lambda-in-s and
    P(k+1)(A k + B) for lambda-in-k: their lhs are P(A J_1 + B J_0) and
    P(A J_2 + (A+B) J_1 + B J_0).

    A difference x - y magnifies the relative errors of x and y by
    (x + y)/(x - y), about 1 + 2/vartheta here at small q.  Where the
    product of these factors passes CANCELLATION_LIMIT (lambda-in-k at
    small q below vartheta = 0.032), it raises FloatingPointError."""
    m, q, theta = p.m, p.q, r.vartheta
    a, b = c.slope, 1.0 - c.gamma
    u = -math.expm1(m * math.log1p(-q))
    j0 = sum_J(p, theta)
    j1 = (u - j0) / theta
    loss = (u + j0) / (u - j0)
    lhs = a * j1 + b * j0
    if cid is CriterionId.LAMBDA_RTAU_IN_K:
        v = m * q / (1.0 - q)
        j2 = (v - j1) / theta
        loss *= (v + j1) / (v - j1)
        lhs = a * j2 + (a + b) * j1 + b * j0
    if not loss <= CANCELLATION_LIMIT:
        raise FloatingPointError(f"{cid.value} closed form cancels at vartheta={theta}")
    return 2.0 * abs(r.tau) * (1.0 - r.delta) * lhs


def _columns(classes):
    """The parameters of a sequence of classes as (k, 1) columns under the
    SpiralClassParams names, slope included, so that weight_S(n, cols) holds
    one row per class, each computed elementwise as weight_S(n, c)."""
    cols = np.array([[c.rho, c.gamma, c.sec_xi, c.slope] for c in classes]).reshape(-1, 4)
    return SimpleNamespace(
        rho=cols[:, 0:1], gamma=cols[:, 1:2], sec_xi=cols[:, 2:3], slope=cols[:, 3:4]
    )


def _lhs_closed(
    cid: CriterionId, p: PascalParams, c, r: RTauParams | None, rederived: bool
) -> list[float]:
    """Closed-form lhs of c, one SpiralClassParams or the _columns of several
    classes, one value per class."""
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        lhs = _spiral_sum_closed(p, c)
    elif cid is CriterionId.THETA_IN_K:
        lhs = _convex_sum_rederived(p, c) if rederived else _convex_sum_printed(p, c)
    elif cid is CriterionId.G_IN_S:
        lhs = _braces_closed(p, c)
    elif cid is CriterionId.LAMBDA_RTAU_IN_S:
        lhs = _rtau_prefactor(r) * _braces_closed(p, c)
    else:  # LAMBDA_RTAU_IN_K
        closed = _m1_raw_closed if rederived else _convex_sum_printed
        lhs = _rtau_prefactor(r) * closed(p, c)
    return np.ravel(lhs).tolist()


# each criterion's direct weight from s = weight_S(n, rows): the convex side
# takes n*weight_S(n), the convolutions the R^tau bound.  For the integral
# transform the convex weight n*weight_S(n) meets coefficients phi_n/n; the
# n*(1/n) cancellation is exact, so integral-in-k shares theta-in-s's weight,
# the same function, and with it theta-in-s's rows
_DIRECT_WEIGHTS = {
    CriterionId.THETA_IN_S: lambda n, s, r: s,
    CriterionId.THETA_IN_K: lambda n, s, r: n * s,
    CriterionId.G_IN_S: lambda n, s, r: s / n,
    CriterionId.LAMBDA_RTAU_IN_S: lambda n, s, r: s * rtau_bound(n, r),
    CriterionId.LAMBDA_RTAU_IN_K: lambda n, s, r: n * s * rtau_bound(n, r),
}
_DIRECT_WEIGHTS[CriterionId.G_IN_K] = _DIRECT_WEIGHTS[CriterionId.THETA_IN_S]


def _lhs_direct(
    cids: tuple[CriterionId, ...], p: PascalParams, c, r: RTauParams | None
) -> list[list[float]]:
    """Direct lhs of each criterion of cids for c, one SpiralClassParams or
    the _columns of several classes: one value list per criterion, one value
    per class, all from one oracle pass over the coefficients of p.

    One class is summed on its floats, one or two columns one row each.
    More columns share one sum of two basis rows per criterion: every direct
    weight is A*b0(n) + B*b1(n), with A = c.slope >= 0 and B = 1 - gamma in
    (0, 1], so the classes enter only through A and B, and combining the
    rows cancels nothing.  Row 0 is a*b0(n), with a the largest A: the
    oracle's stop rule, absolute below 1, then bounds each class's share of
    the truncation error by what its own row's stop rule would allow, as
    B <= 1 does for row 1.  Several criteria stack their rows, all built
    from one weight_S per block; each row stops where, and equals bit for
    bit what, it would alone."""
    batch = not isinstance(c, SpiralClassParams)
    rows = c
    if batch and len(c.gamma) > 2:
        # at rho = 0, A = sec_xi and B = 1 - gamma: these two pseudo-classes
        # are (A, B) = (a, 0) and (0, 1), whose weight rows are a*b0(n) and
        # b1(n) exactly, every other factor being 0 or 1
        a = float(c.slope.max())
        rows = SimpleNamespace(
            rho=np.zeros((2, 1)), gamma=np.array([[1.0], [0.0]]), sec_xi=np.array([[a], [0.0]])
        )
    summed = list(dict.fromkeys(_DIRECT_WEIGHTS[cid] for cid in cids))
    k = len(rows.gamma) if batch else 1
    if len(summed) == 1:
        # no stacking: a stacked weight's numpy calls and loop per block
        # would slow the one-criterion path of evaluate_criterion
        weight = lambda n: summed[0](n, weight_S(n, rows), r)  # noqa: E731
    else:
        def weight(n):
            s = weight_S(n, rows)
            stacked = np.empty((len(summed) * k, len(n)))
            for i, row in enumerate(summed):
                stacked[i * k:(i + 1) * k] = row(n, s, r)
            return stacked
    t = (1.0 - p.q) ** p.m
    sums = t * oracle_sum(weight, p)[0]
    out = []
    for cid in cids:
        i = summed.index(_DIRECT_WEIGHTS[cid])
        values = sums if len(summed) == 1 else sums[i * k:(i + 1) * k]
        if rows is not c:
            values = c.slope * (values[0] / a) + (1.0 - c.gamma) * values[1]
        elif batch:
            # the (k,) row sums as a column, the shape of c.gamma
            values = values[:, None]
        if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
            values = (values - (1.0 - c.gamma) * (1.0 - t)) / t
        out.append(np.ravel(values).tolist())
    return out


def evaluate_criterion(
    cid: CriterionId,
    p: PascalParams,
    c: SpiralClassParams,
    r: RTauParams | None = None,
    variant: str = "direct",
) -> Verdict:
    """Evaluate one criterion in one variant.  r is required exactly for the
    convolution criteria (lambda-in-s / lambda-in-k) and ignored otherwise."""
    if cid.needs_rtau and r is None:
        raise ValueError(f"{cid.value} requires R^tau parameters")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "direct":
        lhs = _lhs_direct((cid,), p, c, r)[0][0]
    else:
        lhs = _lhs_closed(cid, p, c, r, rederived=(variant == "rederived"))[0]
    rhs = 1.0 - c.gamma
    margin = rhs - lhs
    return Verdict(lhs=lhs, rhs=rhs, margin=margin, satisfied=margin >= 0.0, variant=variant)


def evaluate_all(
    cid: CriterionId,
    p: PascalParams,
    c: SpiralClassParams,
    r: RTauParams | None = None,
) -> tuple[dict[str, Verdict], float]:
    """All three variants, and the largest pairwise difference of their lhs."""
    verdicts = {v: evaluate_criterion(cid, p, c, r, v) for v in VARIANTS}
    values = [verdicts[v].lhs for v in VARIANTS]
    return verdicts, max(abs(a - b) for a in values for b in values)


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

# the keys of a flagged discrepancy_report row, in order
DISCREPANCY_FIELDS = (
    "criterion", "m", "q", "xi", "gamma", "rho", "paper_lhs", "direct_lhs", "abs_diff",
)


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

    The classes' parameter columns are built once.  Every closed form runs
    first, all classes at one (criterion, m, q) in one batch, each equal to
    its evaluate_criterion lhs bit for bit.  Then one oracle pass per (m, q)
    sums the direct rows of every criterion.  The direct values of up to two
    classes equal their evaluate_criterion lhs bit for bit too; more classes
    share two basis rows per criterion, combined per class in the moment
    form of the module docstring, which agrees with the one-row sums to
    1e-14*max(1, |lhs|).  integral-in-k takes theta-in-s's rows, which its
    own sum equals by construction.

    The flag threshold is scaled by max(1, |direct|): at the large-lhs corner
    of the grid plain double rounding already exceeds 1e-6 absolute, so an
    unscaled test would flag agreement noise."""
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if r is None:
        # as evaluate_criterion refuses it, here before any sum runs
        raise ValueError(f"{CriterionId.LAMBDA_RTAU_IN_S.value} requires R^tau parameters")
    classes = [
        SpiralClassParams(xi, gamma, rho)
        for xi, gamma, rho in product(xi_grid, gamma_grid, rho_grid)
    ]
    cols = _columns(classes)
    points = list(product(m_grid, q_grid))
    params = [PascalParams(m, q) for m, q in points]
    batches = [(cid.value, m, q) for cid in CriterionId for m, q in points]
    papers, directs = [], []
    # as point by point, nothing runs over no classes
    if classes:
        # closed forms before direct sums, so that a closed-form error
        # surfaces before a sum runs to its order cap.  An overflow gives
        # a silent inf or nan, as on floats
        with np.errstate(over="ignore", invalid="ignore"):
            for cid in CriterionId:
                for p in params:
                    papers += _lhs_closed(cid, p, cols, r, False)
        by_point = [_lhs_direct(tuple(CriterionId), p, cols, r) for p in params]
        # in the (criterion, m, q) order of papers
        for i in range(len(CriterionId)):
            for direct in by_point:
                directs += direct[i]
    # the test of abs(paper - direct) > threshold*max(1, |direct|) on floats,
    # where nan and inf compare as they do there, and silently
    with np.errstate(all="ignore"):
        diff = np.abs(np.subtract(papers, directs))
        flags = diff > threshold * np.maximum(1.0, np.abs(directs))
    counts = {cid.value: 0 for cid in CriterionId}
    flagged = []
    diffs = diff.tolist()
    criterion_, m_, q_, xi_, gamma_, rho_, paper_, direct_, diff_ = DISCREPANCY_FIELDS
    for i in np.flatnonzero(flags).tolist():
        b, j = divmod(i, len(classes))
        (cid, m, q), c = batches[b], classes[j]
        counts[cid] += 1
        flagged.append({
            criterion_: cid, m_: m, q_: q, xi_: c.xi, gamma_: c.gamma, rho_: c.rho,
            paper_: papers[i], direct_: directs[i], diff_: diffs[i],
        })
    return {
        "threshold": threshold,
        "points_checked": len(papers),
        "flagged_counts": counts,
        "flagged_rows": flagged,
    }
