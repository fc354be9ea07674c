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
One class (evaluate_criterion) is summed as one row; a batch of classes
(discrepancy_report) sums the two basis rows once and combines them per
class.  evaluate_criterion sums its one criterion's row alone;
discrepancy_report stacks the rows of every criterion at one (m, q) in one
oracle pass, each row equal bit for bit to its sum alone.  On 6 criteria x
9 (m, q) x 25 classes, with q from 1e-6 to 0.99 and sec(xi) up to 1e4, both
stay within 1.5e-14 relative of a 40-digit sum, and within 7e-15 relative
of each other.  theta-in-s and integral-in-k are the exception: their
(values - B(1-t))/t step cancels at small q, 5.9e-11 relative at q = 1e-6,
so they hold only on the scale of max(1, |lhs|), to 1.5e-14.

For the starlike-side criteria on Theta and its integral transform into the
convex class (theta-in-s / integral-in-k), the raw coefficient sum is
rearranged by an exact monotone transform so that all three variants report
the same left-hand scale; the satisfied flag is unchanged by this.

Theta's coefficients are phi_n = P(X = n-1), X ~ NB(m, q), so each closed
form combines the moments P(X >= 1), E[X], E[X(X-1)] and P(X = 0) of
summation._nb_moments, with sum_Sinv for integral-in-s and lambda-in-s.  The
printed convex form keeps its printed coefficients, each printed factor being
the moment it names.

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
from .summation import CANCELLATION_LIMIT, _nb_moments, oracle_sum, sum_J, sum_Sinv


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


def _lhs_limit(cid: CriterionId, c: SpiralClassParams, r: RTauParams | None) -> float:
    """The lhs's limit as q -> 1 in every variant: the sup of its weight."""
    if cid is CriterionId.G_IN_S:
        return c.slope
    if cid is CriterionId.LAMBDA_RTAU_IN_S:
        return _rtau_prefactor(r) * c.slope
    return math.inf


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
    theta = r.vartheta
    a, b = c.slope, 1.0 - c.gamma
    u, v, _, _ = _nb_moments(p)
    j0 = sum_J(p, theta)
    j1 = (u - j0) / theta
    loss = (u + j0) / (u - j0)
    lhs = a * j1 + b * j0
    if cid is CriterionId.LAMBDA_RTAU_IN_K:
        j2 = (v - j1) / theta
        loss *= (v + j1) / (v - j1)
        lhs = a * j2 + (a + b) * j1 + b * j0
    if not loss <= CANCELLATION_LIMIT:
        raise FloatingPointError(f"{cid.value} closed form cancels at vartheta={theta}")
    return 2.0 * abs(r.tau) * (1.0 - r.delta) * lhs


def _columns(classes):
    """The parameters of a sequence of classes as (k, 1) columns under the
    SpiralClassParams names, slope included, so that _lhs_closed and the
    combination of _lhs_direct's basis sums give one value per class, each
    computed elementwise as for that class alone."""
    cols = np.array([[c.rho, c.gamma, c.sec_xi, c.slope] for c in classes]).reshape(-1, 4)
    return SimpleNamespace(
        rho=cols[:, 0:1], gamma=cols[:, 1:2], sec_xi=cols[:, 2:3], slope=cols[:, 3:4]
    )


def _lhs_closed(
    cid: CriterionId, p: PascalParams, c, r: RTauParams | None, rederived: bool
) -> list[float]:
    """Closed-form lhs of c, one SpiralClassParams or the _columns of several
    classes, one value per class, from the NB moments m0 = P(X >= 1),
    m1 = E[X], m2 = E[X(X-1)] and t = P(X = 0) of summation._nb_moments."""
    m0, m1, m2, t = _nb_moments(p)
    if cid in (CriterionId.THETA_IN_S, CriterionId.G_IN_K):
        # the raw sum E[X]/t, divided on floats: a t that underflows at large
        # m raises ZeroDivisionError for one class and a batch alike
        lhs = c.slope * (m1 / t)
    elif cid in (CriterionId.G_IN_S, CriterionId.LAMBDA_RTAU_IN_S):
        lhs = c.slope * m0 + (1.0 - c.rho) * (1.0 - c.gamma - c.sec_xi) * (t * sum_Sinv(p))
        if cid is CriterionId.LAMBDA_RTAU_IN_S:
            lhs = _rtau_prefactor(r) * lhs
    else:  # THETA_IN_K, LAMBDA_RTAU_IN_K
        b = 1.0 - c.gamma
        if not rederived:
            # the published convex-side closed form, its coefficients verbatim
            s, rho = c.sec_xi, c.rho
            lhs = (
                ((1.0 - rho) * s + b) * m2
                + (2.0 * (1.0 - rho) * s + b * (4.0 - rho)) * m1
                + b * (2.0 - rho) * m0
            )
        elif cid is CriterionId.THETA_IN_K:
            # n weight_S(n) = A(n-1)(n-2) + (2A + B)(n-1) + B
            a = c.slope
            lhs = a * m2 + (2.0 * a + b) * m1 + b * m0
        else:
            lhs = c.slope * m1 + b * m0
        if cid is CriterionId.LAMBDA_RTAU_IN_K:
            lhs = _rtau_prefactor(r) * lhs
    # one class's float goes out without a round-trip through numpy
    return [float(lhs)] if isinstance(c, SpiralClassParams) else np.ravel(lhs).tolist()


# each criterion's direct weight from s, one class's weight_S(n) or a
# batch's basis rows n-1 and 1 (_lhs_direct): the convex side takes n*s,
# the convolutions the R^tau bound.  For the integral transform the convex
# weight n*weight_S(n) meets coefficients phi_n/n; the n*(1/n) cancellation
# is exact, so integral-in-k shares theta-in-s's weight, the same function,
# and with it theta-in-s's rows
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

    One class is summed on its floats.  A batch shares one sum of two basis
    rows per criterion: every direct weight is A*b0(n) + B*b1(n), with
    A = c.slope >= 0 and B = 1 - gamma in (0, 1], so the classes enter only
    through A and B, and combining the rows cancels nothing.  The rows put
    n-1 and 1, the two terms of weight_S(n) = A(n-1) + B, in place of
    weight_S; the oracle's stop rule is relative, so each basis sum M0, M1
    carries its own relative truncation error into A*M0 + B*M1.  Several
    criteria stack their rows, all built from one basis per block; each row
    stops where, and equals bit for bit what, it would alone."""
    batch = not isinstance(c, SpiralClassParams)
    if batch:
        basis = lambda n: np.stack([n - 1.0, np.ones_like(n)])  # noqa: E731
    else:
        basis = lambda n: weight_S(n, c)  # noqa: E731
    summed = list(dict.fromkeys(_DIRECT_WEIGHTS[cid] for cid in cids))
    if len(summed) == 1:
        # no stacking: a stacked weight's numpy calls and loop per block
        # would slow the one-criterion path of evaluate_criterion
        weight = lambda n: summed[0](n, basis(n), r)  # noqa: E731
    else:
        def weight(n):
            s = basis(n)
            return np.vstack([row(n, s, r) for row in summed])
    t = (1.0 - p.q) ** p.m
    # one list per summed weight: its two basis sums, or one class's sum
    sums = np.asarray(t * oracle_sum(weight, p)[0]).reshape(len(summed), -1).tolist()
    out = []
    for cid in cids:
        own = sums[summed.index(_DIRECT_WEIGHTS[cid])]
        # a batch's basis sums M0, M1 combine as A*M0 + B*M1
        values = c.slope * own[0] + (1.0 - c.gamma) * own[1] if batch else own[0]
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
    sums the direct rows of every criterion: the classes share two basis
    rows per criterion, combined per class as A*M0 + B*M1, which agrees with
    evaluate_criterion's one-row sums to 7e-15 relative (the module
    docstring).  integral-in-k takes theta-in-s's rows, which its own sum
    equals by construction.

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
