"""Spirallike membership criteria for Pascal-distribution power series.

Closed-form sufficient conditions (with an independently re-derived variant
where the printed form is suspect) are checked against brute-force truncated
summation, and every satisfied criterion can be cross-examined by sampling
the defining analytic condition on the unit disk."""

from .series import (
    PascalParams,
    PowerSeries,
    RTauParams,
    adaptive_truncation_order,
    evaluate,
    evaluate_d1,
    evaluate_d2,
    extremal_rtau_series,
    hadamard_convolve,
    identity_series,
    integral_transform,
    pascal_coefficients,
    theta_series,
)
from .summation import (
    IdentityReport,
    SummationDivergenceError,
    all_identity_reports,
    identity_report,
    oracle_sum,
    sum_S0,
    sum_S1,
    sum_S2,
    sum_Sinv,
    sum_J,
)
from .criteria import (
    CriterionId,
    SpiralClassParams,
    Verdict,
    corollary,
    discrepancy_report,
    evaluate_all,
    evaluate_criterion,
    weight_K,
    weight_S,
)
from .disk import (
    DenominatorError,
    DiskGrid,
    DiskReport,
    convex_spiral_functional,
    default_grid,
    spiral_functional,
    verify_on_disk,
)
from .scan import (
    BOUNDARY_ALL_Q,
    CriticalQ,
    NonMonotoneMarginError,
    ScanRow,
    critical_q,
    scan,
)

__all__ = [
    "PascalParams", "PowerSeries", "RTauParams",
    "adaptive_truncation_order", "evaluate", "evaluate_d1", "evaluate_d2",
    "extremal_rtau_series", "hadamard_convolve", "identity_series",
    "integral_transform", "pascal_coefficients", "theta_series",
    "IdentityReport", "SummationDivergenceError", "all_identity_reports",
    "identity_report", "oracle_sum", "sum_S0", "sum_S1", "sum_S2", "sum_Sinv",
    "sum_J",
    "CriterionId", "SpiralClassParams", "Verdict", "corollary",
    "discrepancy_report", "evaluate_all", "evaluate_criterion", "weight_K",
    "weight_S",
    "DenominatorError", "DiskGrid", "DiskReport", "convex_spiral_functional",
    "default_grid", "spiral_functional", "verify_on_disk",
    "BOUNDARY_ALL_Q", "CriticalQ", "NonMonotoneMarginError", "ScanRow",
    "critical_q", "scan",
]

__version__ = "0.1.0"
