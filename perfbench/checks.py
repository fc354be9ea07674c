"""Output checks, run between ops and outside the timed region.

Each check returns a list of problems; an empty list means the op's output
is correct.  Tolerances:

- direct left-hand sides (grid-report): |pkg - ref| <= 1e-9 * max(1, |ref|),
  the same mixed scale discrepancy_report itself uses for its flags;
- q* (root-scan): the reference margin of the same variant must be > 0 at
  q* - h and < 0 at q* + h, with h = 1e-5 q* + 1e-9; boundary rows must have
  the reference margin's sign on their side;
- disk-verify: coefficients within 1e-9 relative of the reference; min_value
  within 1e-7 * max(1, |ref|) of both the reference functional and the
  package's scalar functional at the witness; a criterion that the
  reference direct sum satisfies with margin > 1e-9 must pass;
- cli-session: exit code equal to in-process cli.main (status 1, the
  cli's error exit, is raised by the op and counts as a refusal), empty
  stderr, stdout byte-equal to cli.main, json valid against
  pascal_spiral.schemas.SCHEMAS, csv rows of equal width with CRLF endings.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math

import jsonschema

import reference
from workloads import CRITERIA, FUNCTION_CRITERION

LHS_TOL = 1e-9
ROOT_REL_STEP = 1e-5
ROOT_ABS_STEP = 1e-9
COEFF_TOL = 1e-9
FUNCTIONAL_TOL = 1e-7
SATISFIED_MARGIN = 1e-9
DISK_TOLERANCE = 1e-6


def _close(value, ref, tol):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def check_grid_report(ctx, inp, out):
    problems = []
    grids = [inp[k] for k in ("m_grid", "q_grid", "xi_grid", "gamma_grid", "rho_grid")]
    expected_points = len(CRITERIA) * math.prod(len(g) for g in grids)
    if out["points_checked"] != expected_points:
        problems.append(f"points_checked {out['points_checked']} != {expected_points}")
    rows = out["flagged_rows"]
    counts = {cid: 0 for cid in CRITERIA}
    for row in rows:
        counts[row["criterion"]] += 1
    if counts != out["flagged_counts"]:
        problems.append("flagged_counts disagree with flagged_rows")
    moments = {}
    threshold = inp["threshold"]
    for row in rows:
        key = (row["criterion"].startswith("lambda"), row["m"], row["q"])
        if key not in moments:
            moments[key] = reference.moments(row["m"], row["q"], inp["rtau"] if key[0] else None)
        ref = reference.direct_lhs(
            row["criterion"], row["m"], row["q"], row["xi"], row["gamma"], row["rho"],
            mom=moments[key],
        )
        if not _close(row["direct_lhs"], ref, LHS_TOL):
            problems.append(f"direct_lhs {row['direct_lhs']!r} != reference {ref!r} at {row}")
        if row["abs_diff"] != abs(row["paper_lhs"] - row["direct_lhs"]):
            problems.append(f"abs_diff inconsistent at {row}")
        if not row["abs_diff"] > threshold * max(1.0, abs(row["direct_lhs"])):
            problems.append(f"row flagged below threshold: {row}")
    return problems, len(rows)


def check_root_scan(ctx, inp, out):
    scan_mod = ctx.mod["scan"]
    crit, variant = inp["criterion"], inp["variant"]
    rtau = inp["rtau"] if crit.startswith("lambda") else None
    expected = [
        (m, xi, g, rho)
        for m in inp["m_grid"] for xi in inp["xi_grid"]
        for g in inp["gamma_grid"] for rho in inp["rho_grid"]
    ]
    problems = []
    if [(r.m, r.xi, r.gamma, r.rho) for r in out] != expected:
        return [f"rows do not follow the grid order for {inp}"], 0

    def ref(row, q):
        return reference.margin(crit, variant, row.m, q, row.xi, row.gamma, row.rho, rtau)

    checked = 0
    for row in out:
        if row.error:
            problems.append(f"error row: {row.error}")
            continue
        checked += 1
        if row.boundary == scan_mod.BOUNDARY_ALL_Q:
            if not ref(row, scan_mod.Q_MAX) > 0.0:
                problems.append(f"satisfied_for_all_q but reference margin <= 0 at Q_MAX: {row}")
        elif row.boundary == scan_mod.BOUNDARY_NO_Q:
            if not ref(row, scan_mod.Q_MAX / 16 * 1e-6) <= 0.0:
                problems.append(f"unsatisfied_for_all_q but reference margin > 0: {row}")
        else:
            h = ROOT_REL_STEP * row.q_star + ROOT_ABS_STEP
            lo, hi = ref(row, row.q_star - h), ref(row, min(row.q_star + h, scan_mod.Q_MAX))
            if not (lo > 0.0 > hi):
                problems.append(
                    f"reference margin does not change sign around q*={row.q_star!r}: "
                    f"{lo!r} at q*-h, {hi!r} at q*+h ({crit}, {variant}, {row})"
                )
    return problems, checked


def check_disk_verify(ctx, inp, out):
    f, rep = out["series"], out["report"]
    disk = ctx.mod["disk"]
    fam = inp["family"]
    xi, g, rho = inp["xi"], inp["gamma"], inp["rho"]
    problems = []
    coeffs = reference.series_coefficients(inp["function"], inp["m"], inp["q"], f.order, inp["rtau"])
    got = f.coeffs.real
    if f.coeffs.imag.any() or not all(
        abs(a - b) <= COEFF_TOL * abs(b) for a, b in zip(got, coeffs)
    ):
        problems.append(f"series coefficients differ from the reference ({inp})")
    grid = disk.default_grid()
    if rep.passed != (rep.min_value > -DISK_TOLERANCE):
        problems.append(f"pass flag inconsistent with min_value {rep.min_value!r}")
    if math.isfinite(rep.min_value):
        if rep.points_checked != grid.point_count:
            problems.append(f"points_checked {rep.points_checked} != {grid.point_count}")
        if not any(abs(abs(rep.witness) - r) < 1e-12 for r in grid.radii):
            problems.append(f"witness {rep.witness!r} is not on a grid ring")
        ref_value = reference.functional(coeffs, rep.witness, xi, g, rho, fam)
        scalar = (disk.spiral_functional if fam == "S" else disk.convex_spiral_functional)(
            f, rep.witness, ctx.mod["criteria"].SpiralClassParams(xi, g, rho)
        )
        for name, value in (("reference", ref_value), ("scalar", scalar)):
            if not _close(rep.min_value, value, FUNCTIONAL_TOL):
                problems.append(
                    f"min_value {rep.min_value!r} != {name} functional {value!r} at witness"
                )
    crit = FUNCTION_CRITERION[(inp["function"], fam)]
    direct_margin = reference.margin(crit, "direct", inp["m"], inp["q"], xi, g, rho, inp["rtau"])
    if direct_margin > SATISFIED_MARGIN and not rep.passed:
        problems.append(
            f"{crit} directly satisfied (margin {direct_margin:.3e}) but disk failed ({inp})"
        )
    return problems, 1


def in_process_cli(ctx, args):
    """cli.main on the same argv, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.mod["cli"].main(list(args))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def check_cli_session(ctx, inp, out):
    problems = []
    code, stdout, stderr = out.get("in_process") or in_process_cli(ctx, inp["args"])
    if out["returncode"] != code:
        problems.append(
            f"exit code {out['returncode']} (in-process {code}) for {inp['args']}: "
            f"{out['stderr'][-300:]!r}"
        )
    if out["stderr"]:
        problems.append(f"unexpected stderr {out['stderr'][-300:]!r}")
    if out["stdout"] != stdout:
        problems.append(f"stdout differs from in-process cli.main for {inp['args']}")
    text = out["stdout"].decode("utf-8")
    if inp["format"] == "json":
        try:
            jsonschema.validate(json.loads(text), ctx.mod["schemas"].SCHEMAS[inp["command"]])
        except (ValueError, jsonschema.ValidationError) as exc:
            problems.append(f"json invalid for {inp['args']}: {exc}")
    else:
        lines = text.split("\r\n")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if lines[-1] != "" or any("\n" in line for line in lines) or len(rows) < 2:
            problems.append(f"csv not CRLF-terminated rows for {inp['args']}")
        elif len({len(r) for r in rows}) != 1:
            problems.append(f"csv rows of unequal width for {inp['args']}")
    return problems, 1


def fingerprint(name, out, err):
    """Digest of an op's result, to compare repeated passes exactly."""
    if err is not None:
        value = (type(err).__name__, str(err))
    elif name == "disk-verify":
        value = (out["report"], out["series"].coeffs.tobytes())
    elif name == "cli-session":
        value = (out["returncode"], out["stdout"], out["stderr"])
    else:
        value = out
    return hashlib.sha1(repr(value).encode()).digest()


CHECKS = {
    "grid-report": check_grid_report,
    "root-scan": check_root_scan,
    "disk-verify": check_disk_verify,
    "cli-session": check_cli_session,
}
