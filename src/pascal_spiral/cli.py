"""Command-line front end: coefficients, identity checks, criterion
verdicts, disk verification, critical-q scans, and the paper-vs-direct
discrepancy report.

json and csv outputs are stable interfaces (schemas in schemas.py); human
is the json payload as indented text.  Exit status: 0 success (and, for
`check`, direct-variant satisfied), 2 for `check` with the direct variant
unsatisfied and for a failed `verify-disk`, 1 on any error."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import criteria, disk, series, summation
from .scan import ScanRow, scan as run_scan

# ScanRow's fields but boundary and error, which the csv contract leaves out
SCAN_CSV_COLUMNS = tuple(
    f.name for f in dataclasses.fields(ScanRow) if f.name not in ("boundary", "error")
)

# name -> (CriterionId, force_rho_zero): thm1-thm6 in the order CriterionId
# declares them, and cor1-cor6, their rho = 0 specialisations
_CRITERIA = {
    name: (cid, rho0)
    for i, cid in enumerate(criteria.CriterionId, 1)
    for name, rho0 in ((cid.value, False), (f"thm{i}", False), (f"cor{i}", True))
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# name -> default of each --<name>-grid option, in the order the help lists
# them: scan's one-point grids, and discrepancy-report's criteria defaults
_SCAN_GRIDS = {"m": (1.0,), "xi": (0.0,), "gamma": (0.0,), "rho": (0.0,)}
_REPORT_GRIDS = {
    "m": criteria.DEFAULT_M_GRID,
    "q": criteria.DEFAULT_Q_GRID,
    "xi": criteria.DEFAULT_XI_GRID,
    "gamma": criteria.DEFAULT_GAMMA_GRID,
    "rho": criteria.DEFAULT_RHO_GRID,
}


def _float_list(text: str) -> list[float]:
    # finite only: json has no inf or nan, and scan rows echo their grid values
    try:
        values = [float(part) for part in text.split(",") if part != ""]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a comma-separated list of finite floats: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pascal-spiral")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument(
        "--seed", type=int, default=0, help="ignored; every output is deterministic"
    )

    pascal = argparse.ArgumentParser(add_help=False)
    pascal.add_argument("--m", type=float, default=1.0)
    pascal.add_argument("--q", type=float, default=0.5)

    klass = argparse.ArgumentParser(add_help=False)
    klass.add_argument("--xi", type=float, default=0.0)
    klass.add_argument("--gamma", type=float, default=0.0)
    klass.add_argument("--rho", type=float, default=0.0)
    klass.add_argument("--degrees", action="store_true", help="xi given in degrees")

    rtau = argparse.ArgumentParser(add_help=False)
    rtau.add_argument("--tau-re", type=float, default=1.0)
    rtau.add_argument("--tau-im", type=float, default=0.0)
    rtau.add_argument("--vartheta", type=float, default=1.0)
    rtau.add_argument("--delta", type=float, default=0.0)

    p = sub.add_parser("coeffs", parents=[common, pascal])
    p.set_defaults(run=_cmd_coeffs)
    p.add_argument("--n", type=int, default=10, help="highest coefficient index")

    p = sub.add_parser("identities", parents=[common, pascal])
    p.set_defaults(run=_cmd_identities)

    p = sub.add_parser("check", parents=[common, pascal, klass, rtau])
    p.set_defaults(run=_cmd_check)
    p.add_argument("criterion")
    p.add_argument("--variant", choices=(*criteria.VARIANTS, "all"), default="all")

    p = sub.add_parser("verify-disk", parents=[common, pascal, klass, rtau])
    p.set_defaults(run=_cmd_verify_disk)
    p.add_argument(
        "--function",
        choices=("identity", "theta", "integral", "lambda-rtau", "single"),
        default="theta",
    )
    p.add_argument("--class", dest="family", choices=("S", "K"), default="S")
    p.add_argument("--a2", type=float, default=3.0, help="a_2 for --function single")
    p.add_argument("--radii", type=_float_list, default=disk.DEFAULT_RADII)
    p.add_argument("--angles", type=int, default=disk.DiskGrid.angles_per_ring)

    p = sub.add_parser("scan", parents=[common, rtau])
    p.set_defaults(run=_cmd_scan)
    p.add_argument("criterion")
    p.add_argument("--variant", choices=criteria.VARIANTS, default="direct")
    _add_grids(p, _SCAN_GRIDS)
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser("discrepancy-report", parents=[common, rtau])
    p.set_defaults(run=_cmd_discrepancy)
    p.add_argument("--threshold", type=float, default=1e-6)
    _add_grids(p, _REPORT_GRIDS)
    return parser


def _add_grids(p, defaults: dict) -> None:
    for name, default in defaults.items():
        p.add_argument(f"--{name}-grid", type=_float_list, default=list(default))


def _human(payload: dict) -> list[str]:
    """The json payload as indented text, keys in payload order: a leaf is
    `key: <json>`, an object `key:` over its entries indented two spaces, a
    nonempty list of objects `key:` over one `- name=<json> ...` line per
    element; any other list, the empty one included, is a leaf."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines += [f"{key}:", *("  " + line for line in _human(value))]
        elif value and isinstance(value, list) and isinstance(value[0], dict):
            lines += [f"{key}:"] + [
                "  - " + " ".join(f"{k}={json.dumps(v)}" for k, v in item.items())
                for item in value
            ]
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    return lines


def _emit(args, payload: dict, columns, records, status: int = 0) -> int:
    """Write one command's result in the --format it asked for, to --out or
    stdout, and return the command's exit status.

    payload is the json object less its first key, "command", which _emit
    takes from the parser (args.command); it is also, through _human, the
    human text.  The csv table has the header columns and one row
    record[col] for col in columns per record, mostly the records of the
    payload itself.  csv.writer writes floats with repr(), which is the csv
    contract's number format; a cell that needs another format arrives as a
    string."""
    payload = {"command": args.command, **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([record[col] for col in columns] for record in records)
        text = buf.getvalue()
    else:
        text = "\n".join(_human(payload)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return status


def _resolve_criterion(name: str):
    """Returns (CriterionId, force_rho_zero)."""
    try:
        return _CRITERIA[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(_CRITERIA))
        raise ValueError(f"unknown criterion {name!r} (valid: {valid})") from None


def _class_from(args, force_rho0: bool = False) -> criteria.SpiralClassParams:
    return criteria.SpiralClassParams(
        xi=math.radians(args.xi) if args.degrees else args.xi,
        gamma=args.gamma,
        rho=0.0 if force_rho0 else args.rho,
    )


def _rtau_from(args) -> series.RTauParams:
    return series.RTauParams(
        tau=complex(args.tau_re, args.tau_im),
        vartheta=args.vartheta,
        delta=args.delta,
    )


def _cmd_coeffs(args) -> int:
    p = series.PascalParams(args.m, args.q)
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    phis = list(enumerate(series.pascal_coefficients(p, args.n), start=2))
    # .17g rather than repr: phi_n is np.float64, and 0.0 must print as 0
    return _emit(
        args,
        {
            **dataclasses.asdict(p),
            "rows": [{"n": n, "phi_n": float(v)} for n, v in phis],
        },
        ("n", "phi_n"),
        [{"n": n, "phi_n": f"{v:.17g}"} for n, v in phis],
    )


def _cmd_identities(args) -> int:
    p = series.PascalParams(args.m, args.q)
    reports = [dataclasses.asdict(rep) for rep in summation.all_identity_reports(p)]
    return _emit(
        args,
        {**dataclasses.asdict(p), "identities": reports},
        [field.name for field in dataclasses.fields(summation.IdentityReport)],
        reports,
    )


def _cmd_check(args) -> int:
    cid, force_rho0 = _resolve_criterion(args.criterion)
    p = series.PascalParams(args.m, args.q)
    c = _class_from(args, force_rho0)
    r = _rtau_from(args) if cid.needs_rtau else None
    if args.variant == "all":
        verdicts, disagreement = criteria.evaluate_all(cid, p, c, r)
    else:
        verdicts = {args.variant: criteria.evaluate_criterion(cid, p, c, r, args.variant)}
        disagreement = None
    decisive = verdicts.get("direct") or next(iter(verdicts.values()))
    records = {name: dataclasses.asdict(v) for name, v in verdicts.items()}
    return _emit(
        args,
        {
            "criterion": cid.value,
            "params": {
                **dataclasses.asdict(p),
                **dataclasses.asdict(c),
                **(
                    {"tau_re": r.tau.real, "tau_im": r.tau.imag,
                     "vartheta": r.vartheta, "delta": r.delta}
                    if r is not None else {}
                ),
            },
            "verdicts": records,
            "disagreement": disagreement,
        },
        ("variant", "lhs", "rhs", "margin", "satisfied"),
        records.values(),
        0 if decisive.satisfied else 2,
    )


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# verify-disk's functions that are exact polynomials rather than truncations
_EXACT_FUNCTIONS = ("identity", "single")


def _build_function(args) -> series.PowerSeries:
    if args.function in _EXACT_FUNCTIONS:
        # m and q go unused here, but params echoes them and json has no inf
        # or nan; the other functions refuse them through PascalParams
        _finite("m", args.m)
        _finite("q", args.q)
    if args.function == "identity":
        return series.PowerSeries()
    if args.function == "single":
        return series.PowerSeries([complex(_finite("a2", args.a2))])
    p = series.PascalParams(args.m, args.q)
    order = series.adaptive_truncation_order(p, threshold=1e-10, radius=0.995)
    theta = series.theta_series(p, order)
    if args.function == "theta":
        return theta
    if args.function == "integral":
        return series.integral_transform(theta)
    # lambda-rtau: argparse's choices refuse any other function
    r = _rtau_from(args)
    return series.hadamard_convolve(theta, series.extremal_rtau_series(r, order))


def _cmd_verify_disk(args) -> int:
    f = _build_function(args)
    c = _class_from(args)
    grid = disk.DiskGrid(tuple(args.radii), args.angles)
    report = disk.verify_on_disk(
        f, c, args.family, grid, tolerance=1e-6,
        tail_check=args.function not in _EXACT_FUNCTIONS,
    )
    payload = {
        "function": args.function,
        "family": args.family,
        # the raw --m/--q, echoed even for functions that ignore them
        "params": {"m": args.m, "q": args.q, **dataclasses.asdict(c)},
        "pass": report.passed,
        "min_value": report.min_value,
        "witness": {"re": report.witness.real, "im": report.witness.imag},
        "points_checked": report.points_checked,
        "note": report.note,
    }
    return _emit(
        args,
        payload,
        (
            "function", "family", "pass", "min_value",
            "witness_re", "witness_im", "points_checked",
        ),
        [{**payload, "witness_re": report.witness.real, "witness_im": report.witness.imag}],
        0 if report.passed else 2,
    )


def _cmd_scan(args) -> int:
    cid, force_rho0 = _resolve_criterion(args.criterion)
    rho_grid = [0.0] if force_rho0 else args.rho_grid
    xi_grid = [math.radians(x) for x in args.xi_grid] if args.degrees else args.xi_grid
    r = _rtau_from(args) if cid.needs_rtau else None
    rows = run_scan(cid, args.variant, args.m_grid, xi_grid, args.gamma_grid, rho_grid, r=r)
    records = [dataclasses.asdict(row) for row in rows]
    return _emit(args, {"rows": records}, SCAN_CSV_COLUMNS, records)


def _cmd_discrepancy(args) -> int:
    report = criteria.discrepancy_report(
        threshold=args.threshold,
        r=_rtau_from(args),
        **{f"{name}_grid": getattr(args, f"{name}_grid") for name in _REPORT_GRIDS},
    )
    return _emit(args, report, criteria.DISCREPANCY_FIELDS, report["flagged_rows"])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
