"""The package runs on numpy alone: importing it and its front end loads
none of the libraries that only the tests use."""
import os
import pathlib
import subprocess
import sys

TEST_ONLY = ("scipy", "mpmath", "hypothesis", "jsonschema", "pytest")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_package_loads_no_test_only_library():
    code = (
        "import sys\n"
        "import pascal_spiral, pascal_spiral.cli, pascal_spiral.schemas\n"
        f"print(' '.join(name for name in {TEST_ONLY!r} if name in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


PUBLIC = (
    "BOUNDARY_ALL_Q", "CriterionId", "CriticalQ", "DenominatorError", "DiskGrid",
    "DiskReport", "IdentityReport", "NonMonotoneMarginError", "PascalParams",
    "PowerSeries", "RTauParams", "ScanRow", "SpiralClassParams",
    "SummationDivergenceError", "Verdict", "adaptive_truncation_order",
    "all_identity_reports", "convex_spiral_functional", "corollary", "critical_q",
    "default_grid", "discrepancy_report", "evaluate", "evaluate_all",
    "evaluate_criterion", "evaluate_d1", "evaluate_d2", "extremal_rtau_series",
    "hadamard_convolve", "identity_report", "identity_series", "integral_transform",
    "oracle_sum", "pascal_coefficients", "scan", "spiral_functional", "sum_J",
    "sum_S0", "sum_S1", "sum_S2", "sum_Sinv", "theta_series", "verify_on_disk",
    "weight_K", "weight_S",
)


def test_public_surface_is_pinned():
    """__all__ names each public object once, every name resolves (a stale
    entry breaks `from pascal_spiral import *`), and adding or removing a
    name is a deliberate change to this pin."""
    import pascal_spiral

    names = pascal_spiral.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from pascal_spiral import *", namespace)
    assert set(names) <= namespace.keys()
    assert tuple(sorted(names)) == PUBLIC
