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
from pascal_spiral.scan import BOUNDARY_ALL_Q, MARGIN_TOL, critical_q
from pascal_spiral.series import (
    PascalParams,
    RTauParams,
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
        pytest.param(
            ["identities", "--m", "2000", "--q", "0.3"],
            id="identities", marks=pytest.mark.xfail(
                raises=ValueError,
                reason="identities at m = 2000, q = 0.3 exits 0 with closed_form "
                "and truncated Infinity and abs_error NaN for S0, S1 and S2 "
                "(ROADMAP item 5)",
            ),
        ),
        pytest.param(
            ["scan", "theta-in-s", "--variant", "rederived", "--m-grid", "1e18"],
            id="scan-rederived-large-m", marks=pytest.mark.xfail(
                raises=ValueError,
                reason="scan at m = 1e18 exits 0 with residual_margin -Infinity: "
                "the closed lhs divides by (1-q)^m, which underflows to 0 at "
                "q* = 3.6e-15, and the margin falls back to -inf (ROADMAP item 5)",
            ),
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


@pytest.mark.xfail(
    raises=AssertionError,
    reason="_itp stops on a bracket below the absolute _Q_TOL = 1e-14 before "
    "|margin| <= MARGIN_TOL: at m = 1e10 the margin is steep in q and the "
    "root q* = 5.67e-11 is reported with residual_margin 5.6e-5 (ROADMAP item 17)",
)
def test_small_roots_through_m_meet_the_margin_tolerance():
    root = critical_q(CriterionId.THETA_IN_S, "rederived", 1e10, FLAT)
    assert abs(root.residual_margin) <= MARGIN_TOL


@pytest.mark.xfail(
    raises=AssertionError,
    reason="oracle_sum's ratio bound max(1, w(n+1)/w(n)) q(n+m-1)/n stays >= 1 "
    "up to n = q/(1-q) for a weight that grows like n, so the direct sum cannot "
    "stop past 1-q = 1e-5 however small its terms; the margin reads -inf there "
    "and ITP closes on the jump: q* = 0.9999900000926409, residual_margin 1.0, "
    "31 steps (ROADMAP item 13)",
)
def test_direct_lambda_in_k_with_tiny_tau_is_all_q():
    # the lhs stays below about 1e-20 up to Q_MAX
    root = critical_q(CriterionId.LAMBDA_RTAU_IN_K, "direct", 1.0, FLAT, RTauParams(1e-30, 1.0, 0.0))
    assert root.boundary == BOUNDARY_ALL_Q


@pytest.mark.xfail(
    raises=AssertionError,
    reason="criteria._lhs_closed takes t * sum_Sinv(p) with t = (1-q)^m = 9.0e-314 "
    "(subnormal) and sum_Sinv(p) = inf, so the product is inf, its coefficient "
    "(1-rho)(1-gamma - sec xi) is negative, and the paper and rederived lhs read "
    "-inf: margin inf, satisfied True (ROADMAP item 5)",
)
def test_closed_integral_in_s_lhs_is_finite_at_large_m():
    c = SpiralClassParams(1.0922534926317535, 0.3388152296515011, 0.7464556029874259)
    p = PascalParams(1039.9226245360026, 0.5)
    for variant in ("paper", "rederived"):
        lhs = evaluate_criterion(CriterionId.G_IN_S, p, c, None, variant).lhs
        assert math.isfinite(lhs) and lhs >= 0.0, variant


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the direct sum's raw coefficients overflow from q = 0.0125 at "
    "m = 56,876 (SummationDivergenceError, last term inf); scan._margin reads "
    "that by the limit rule as -inf (L = inf for lambda-in-k), and ITP closes "
    "on the jump: q* = 0.012416 after 47 steps, residual_margin 0.3997, where "
    "rederived gives 0.023113 (ROADMAP item 5, the large-m raw scale)",
)
def test_direct_lambda_in_k_root_at_large_m_matches_rederived():
    # rederived equals direct in exact arithmetic at vartheta = 1
    c = SpiralClassParams(0.0887732246739238, 0.1466025388990907, 0.5431724258821143)
    r = RTauParams(-0.001430361639308902 - 0.0002552858901074239j, 1.0, 0.7635136699087006)
    m = 56875.845311834055
    direct = critical_q(CriterionId.LAMBDA_RTAU_IN_K, "direct", m, c, r)
    rederived = critical_q(CriterionId.LAMBDA_RTAU_IN_K, "rederived", m, c, r)
    assert math.isclose(direct.q_star, rederived.q_star, rel_tol=1e-6)
