"""Every subcommand under one derandomised property gate.

Seeded argv, drawn from the parser's own choices and from the edges of the
documented domain (the docstrings of PascalParams, SpiralClassParams,
RTauParams and DiskGrid), run through an in-process cli.main.  Whatever the argv, the run ends in one of the documented ways:
exit 1 with exactly one `error: ` line on stderr, or exit 0 or 2 with an
empty stderr and json that validates against SCHEMAS[command].  A numpy
warning would reach a user's stderr, so it counts as stderr here.  Strict
JSON (no Infinity or NaN) is not asserted: its known failures are strict
xfails in tests/test_known_defects.py."""
import contextlib
import io
import json
import math
import warnings

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from pascal_spiral import cli, criteria
from pascal_spiral.schemas import SCHEMAS

GATE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _domain(inside, edges, outside=()):
    """Inside the documented domain 3 draws in 4, one of its edge values 1
    in 5, and a value just past an edge, which must be refused, 1 in 20."""
    weighted = [inside] * 15 + [st.sampled_from(edges)] * 4
    if outside:
        weighted.append(st.sampled_from(outside))
    return st.sampled_from(weighted).flatmap(lambda s: s)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


HALF_PI = math.pi / 2
BELOW_ONE = math.nextafter(1.0, 0.0)
TINY = math.ulp(0.0)
M = _domain(
    st.one_of(_log_uniform(1.0, 1e5), _log_uniform(1e-9, 1.0).map(lambda d: 1.0 + d)),
    [1.0, 1.0 + 1e-9, 1e5],
    [BELOW_ONE],
)
Q = _domain(
    st.one_of(_log_uniform(1e-12, 0.999), _log_uniform(1e-9, 1.0).map(lambda d: 1.0 - d)),
    [0.0, 1e-12, 1.0 - 1e-9, BELOW_ONE],
    [1.0],
)
XI = _domain(
    st.floats(-HALF_PI, HALF_PI, exclude_min=True, exclude_max=True),
    [-math.nextafter(HALF_PI, 0.0), math.nextafter(HALF_PI, 0.0)],
    [HALF_PI],
)
UNIT = _domain(st.floats(0.0, 1.0, exclude_max=True), [0.0, BELOW_ONE], [1.0])
# tau = tau_re + i tau_im is refused only where both parts are 0
TAU = _domain(st.floats(-1e3, 1e3), [1e-30, -1e30], [0.0])
VARTHETA = _domain(st.floats(1e-3, 1.0), [TINY, 1e-3, 1.0], [0.0])
DELTA = _domain(st.floats(-10.0, 1.0, exclude_max=True), [-1e308, BELOW_ONE], [1.0])
A2 = _domain(st.floats(-1e308, 1e308), [-1e308, 0.0, 1e308], [math.inf])
RADIUS = _domain(st.floats(1e-3, 0.999), [TINY, 0.999], [1.0])
ANGLES = _domain(st.integers(8, 64), [8, 720], [7])
THRESHOLD = _domain(_log_uniform(1e-16, 1.0), [0.0], [-1.0])
CRITERION = st.sampled_from(sorted(cli._CRITERIA))


def _opt(name: str, value) -> str:
    # --name=value, so that a negative number is not read as an option
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _grid(values, size: int = 2):
    return st.lists(values, min_size=1, max_size=size).map(
        lambda xs: ",".join(repr(x) for x in xs)
    )


@st.composite
def _options(draw, **strategies):
    return [_opt(name.replace("_", "-"), draw(s)) for name, s in strategies.items()]


PASCAL = _options(m=M, q=Q)
CLASS = _options(xi=XI, gamma=UNIT, rho=UNIT)
RTAU = _options(tau_re=TAU, tau_im=TAU, vartheta=VARTHETA, delta=DELTA)
DEGREES = st.sampled_from([[], ["--degrees"]])


def _run(argv: list[str]):
    """cli.main(argv) in process: (status, stdout, stderr), any warning
    written to stderr as Python would print it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return status, out.getvalue(), stderr


def _assert_documented_exit(argv: list[str]) -> None:
    status, stdout, stderr = _run(argv)
    assert status in (0, 1, 2), (argv, status)
    if status == 1:
        assert stdout == "", argv
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
    else:
        assert stderr == "", (argv, stderr)
        jsonschema.validate(json.loads(stdout), SCHEMAS[argv[0]])


@GATE
@given(n=st.sampled_from([1, 2, 3, 40]), pascal=PASCAL)
def test_coeffs(n, pascal):
    _assert_documented_exit(["coeffs", f"--n={n}", *pascal])


@GATE
@given(pascal=PASCAL)
def test_identities(pascal):
    _assert_documented_exit(["identities", *pascal])


@GATE
@given(
    criterion=CRITERION,
    variant=st.sampled_from([*criteria.VARIANTS, "all"]),
    pascal=PASCAL,
    klass=CLASS,
    rtau=RTAU,
    degrees=DEGREES,
)
def test_check(criterion, variant, pascal, klass, rtau, degrees):
    _assert_documented_exit(
        ["check", criterion, f"--variant={variant}", *pascal, *klass, *rtau, *degrees]
    )


@GATE
@given(
    function=st.sampled_from(["identity", "theta", "integral", "lambda-rtau", "single"]),
    family=st.sampled_from(["S", "K"]),
    a2=A2,
    radii=_grid(RADIUS),
    angles=ANGLES,
    pascal=PASCAL,
    klass=CLASS,
    rtau=RTAU,
    degrees=DEGREES,
)
def test_verify_disk(function, family, a2, radii, angles, pascal, klass, rtau, degrees):
    _assert_documented_exit([
        "verify-disk", f"--function={function}", f"--class={family}", _opt("a2", a2),
        f"--radii={radii}", f"--angles={angles}", *pascal, *klass, *rtau, *degrees,
    ])


@GATE
@given(
    criterion=CRITERION,
    variant=st.sampled_from(criteria.VARIANTS),
    m_grid=_grid(M),
    xi_grid=_grid(XI),
    gamma_grid=_grid(UNIT),
    rho_grid=_grid(UNIT),
    rtau=RTAU,
    degrees=DEGREES,
)
def test_scan(criterion, variant, m_grid, xi_grid, gamma_grid, rho_grid, rtau, degrees):
    _assert_documented_exit([
        "scan", criterion, f"--variant={variant}", f"--m-grid={m_grid}",
        f"--xi-grid={xi_grid}", f"--gamma-grid={gamma_grid}",
        f"--rho-grid={rho_grid}", *rtau, *degrees,
    ])


@GATE
@given(
    threshold=THRESHOLD,
    m_grid=_grid(M, 1),
    q_grid=_grid(Q, 1),
    xi_grid=_grid(XI, 1),
    gamma_grid=_grid(UNIT, 1),
    rho_grid=_grid(UNIT, 1),
    rtau=RTAU,
)
def test_discrepancy_report(threshold, m_grid, q_grid, xi_grid, gamma_grid, rho_grid, rtau):
    _assert_documented_exit([
        "discrepancy-report", _opt("threshold", threshold), f"--m-grid={m_grid}",
        f"--q-grid={q_grid}", f"--xi-grid={xi_grid}", f"--gamma-grid={gamma_grid}",
        f"--rho-grid={rho_grid}", *rtau,
    ])
