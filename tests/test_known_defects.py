"""Known defects, each stated as the behaviour the program should have.

Every test is a strict xfail that names the exception it raises today, so a
different failure still shows, and a fix makes the suite fail until its
marker is removed (xfail_strict in pyproject.toml).  A fixed case of a test
whose other cases still fail runs as a plain case."""
import json
import math

import numpy as np
import pytest

from pascal_spiral import cli
from pascal_spiral.criteria import CriterionId, SpiralClassParams, evaluate_criterion
from pascal_spiral.disk import DiskReport, default_grid, verify_on_disk
from pascal_spiral.scan import BOUNDARY_ALL_Q, critical_q
from pascal_spiral.series import (
    PascalParams,
    SummationDivergenceError,
    adaptive_truncation_order,
    theta_series,
)
from pascal_spiral.summation import sum_Sinv

FLAT = SpiralClassParams(0.0, 0.0, 0.0)


def _ten_terms(m: float, q: float, weight) -> float:
    """sum_{n=2}^{11} weight(n) c_n with c_n = C(n+m-2, m-1) q^{n-1}, in
    floats; at q = 1e-6 and a weight of at most n^2 the terms past n = 11 are
    below 1e-50 of the sum."""
    total, c = 0.0, m * q
    for n in range(2, 12):
        total += weight(n) * c
        c *= q * (n + m - 1.0) / n
    return total


@pytest.mark.xfail(
    raises=AssertionError,
    reason="sum_Sinv's final - q cancels at small q: relative errors "
    "5.6e-10, 1.0e-10, 7.0e-12 at q = 1e-6",
)
@pytest.mark.parametrize("m", [1.0002, 1.5, 3.0])
def test_sum_sinv_is_accurate_at_small_q(m):
    want = _ten_terms(m, 1e-6, lambda n: 1.0 / n)
    assert math.isclose(sum_Sinv(PascalParams(m, 1e-6)), want, rel_tol=1e-12)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="direct critical_q reports q* = 0.9996776868173889 after 36 "
    "steps toward the -inf its margin gives where the oracle hits its "
    "term cap, although the margin 1 - q is positive for every q",
)
def test_direct_critical_q_finds_no_false_root():
    result = critical_q(CriterionId.G_IN_S, "direct", 1.0, FLAT)
    assert result.boundary == BOUNDARY_ALL_Q


@pytest.mark.xfail(
    raises=AssertionError,
    reason="direct critical_q reports q* = 0.99957275390625 (residual 7.8e-11, "
    "2 steps) at m = 3, and the same q* (residual 4.2e-14, 2 steps) at m = 4: "
    "the stop rule |margin| <= MARGIN_TOL (1-gamma) = 1e-10 takes the margin "
    "(1-q)^m for a root, although it is positive for every q < 1",
)
def test_direct_critical_q_takes_no_small_positive_margin_for_a_root():
    result = critical_q(CriterionId.G_IN_S, "direct", 3.0, FLAT)
    assert result.boundary == BOUNDARY_ALL_Q


@pytest.mark.xfail(
    raises=ValueError,
    reason="verify_on_disk refuses the series verify-disk --m 1 --q 0.003 "
    "builds: |a_N| r^N = 2.638e-08 > 1e-08",
)
def test_verify_on_disk_accepts_the_series_verify_disk_builds():
    p = PascalParams(1.0, 0.003)
    theta = theta_series(p, adaptive_truncation_order(p, threshold=1e-10, radius=0.995))
    assert isinstance(verify_on_disk(theta, FLAT, "S", default_grid()), DiskReport)


@pytest.mark.xfail(
    raises=SummationDivergenceError,
    reason="the direct sum walks raw coefficients C(n+m-2, m-1) q^{n-1}, which "
    "overflow at m = 3000, q = 0.3: did not converge within 100000 terms "
    "(last term magnitude inf)",
)
def test_direct_theta_in_s_gives_a_verdict_at_large_m():
    with np.errstate(all="ignore"):
        verdict = evaluate_criterion(CriterionId.THETA_IN_S, PascalParams(3000.0, 0.3), FLAT)
    assert not verdict.satisfied


@pytest.mark.xfail(
    raises=AssertionError,
    reason="oracle_sum's stop rule |tail| < TAIL_THRESHOLD max(1, |partial|) is "
    "absolute below 1: the direct theta-in-k lhs 4.8e-5 at m = 12, q = 1e-6 is "
    "off by 1.2e-10 relative (1.3e-11 at m = 3)",
)
def test_direct_lhs_below_one_is_accurate_relative_to_itself():
    lhs = evaluate_criterion(CriterionId.THETA_IN_K, PascalParams(12.0, 1e-6), FLAT).lhs
    want = (1.0 - 1e-6) ** 12 * _ten_terms(12.0, 1e-6, lambda n: n * n)
    assert math.isclose(lhs, want, rel_tol=1e-13)


_NON_FINITE_CHECK = pytest.mark.xfail(
    raises=ValueError,
    reason="--format json writes what json.dumps gives: check at m = 2000, "
    "q = 0.3 gives every lhs Infinity and every margin -Infinity, and --variant "
    "all adds disagreement NaN; RFC 8259 JSON carries neither",
)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["check", "thm1", "--m", "2000", "--q", "0.3", "--variant", "paper"],
            id="check-paper", marks=_NON_FINITE_CHECK,
        ),
        pytest.param(
            ["check", "thm1", "--m", "2000", "--q", "0.3", "--variant", "all"],
            id="check-all", marks=_NON_FINITE_CHECK,
        ),
        # the direct lambda-in-s row is satisfied_for_all_q, its residual the
        # finite margin bound
        pytest.param(["scan", "lambda-in-s", "--tau-re", "0.3", "--m-grid", "1"], id="scan-lambda-in-s"),
    ],
)
def test_check_json_output_is_strict_json(capsys, argv):
    def refuse(constant):
        raise ValueError(f"{constant} is not a JSON value")

    with np.errstate(all="ignore"):
        cli.main(argv + ["--format", "json"])
    json.loads(capsys.readouterr().out, parse_constant=refuse)
