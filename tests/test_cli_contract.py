"""Byte-level CLI contract: stdout, stderr and exit status of cli.main for a
fixed set of argument lists, pinned in tests/data/cli_contract.json.

The fixture was captured from cli.main before its per-command output code
was folded into one emitter, and its verify-disk default-grid and grid-error
cases before the parser took the grid defaults from disk, so a difference
here is a change of the json, csv or human output, not noise.  After an
intended change of that output, re-pin with

    PYTHONPATH=src python tests/test_cli_contract.py
"""
import contextlib
import io
import json
import pathlib

import pytest

from pascal_spiral import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_contract.json"
FORMATS = ("json", "csv", "human")
COMMANDS = {
    "coeffs": ["coeffs", "--m", "2", "--q", "0.4", "--n", "8"],
    "coeffs-q-zero": ["coeffs", "--m", "3", "--q", "0", "--n", "5"],
    "identities": ["identities", "--m", "1.5", "--q", "0.6"],
    "check-all": ["check", "thm1", "--m", "1", "--q", "0.2"],
    "check-single": [
        "check", "thm2", "--m", "2", "--q", "0.3", "--xi", "0.5", "--variant", "paper",
    ],
    "check-all-rtau": [
        "check", "lambda-in-k", "--m", "2", "--q", "0.3", "--vartheta", "0.7",
        "--tau-re", "0.8", "--tau-im", "0.3", "--delta", "0.1",
    ],
    "check-single-rtau": [
        "check", "thm3", "--m", "2", "--q", "0.3", "--vartheta", "0.7",
        "--variant", "direct",
    ],
    "check-unsatisfied": ["check", "thm1", "--m", "1", "--q", "0.39"],
    "check-corollary-degrees": [
        "check", "cor6", "--q", "0.3", "--rho", "0.6", "--gamma", "0.25",
        "--xi", "30", "--degrees",
    ],
    "verify-disk-default-grid": ["verify-disk", "--function", "single", "--a2", "0.1"],
    "verify-disk-pass": ["verify-disk", "--function", "identity", "--angles", "16"],
    "verify-disk-fail": [
        "verify-disk", "--function", "single", "--a2", "3", "--angles", "64",
    ],
    "verify-disk-theta": [
        "verify-disk", "--m", "1", "--q", "0.38", "--xi", "0.2", "--angles", "32",
    ],
    "verify-disk-integral": [
        "verify-disk", "--function", "integral", "--m", "2", "--q", "0.3",
        "--angles", "32",
    ],
    "verify-disk-lambda": [
        "verify-disk", "--function", "lambda-rtau", "--class", "K", "--m", "1.5",
        "--q", "0.1", "--tau-re", "0.5", "--radii", "0.5,0.9", "--angles", "32",
    ],
    "scan": ["scan", "thm1", "--m-grid", "1,2", "--gamma-grid", "0,0.5", "--seed", "7"],
    "scan-boundary": [
        "scan", "integral-in-s", "--variant", "paper", "--m-grid", "1,2",
        "--gamma-grid", "0,0.9",
    ],
    "scan-rtau-degrees": [
        "scan", "lambda-in-s", "--variant", "rederived", "--m-grid", "1,3",
        "--xi-grid", "0,30", "--degrees", "--delta", "0.9", "--vartheta", "0.5",
    ],
    "discrepancy-report": [
        "discrepancy-report", "--m-grid", "1,2", "--q-grid", "0.3,0.5",
        "--xi-grid", "0", "--gamma-grid", "0,0.5", "--rho-grid", "0",
    ],
}
ERRORS = {
    "coeffs-q-out-of-range": ["coeffs", "--q", "1.5"],
    "coeffs-n-too-small": ["coeffs", "--n", "1", "--format", "csv"],
    "check-unknown-criterion": ["check", "thm9"],
    "verify-disk-too-few-angles": ["verify-disk", "--angles", "4"],
    "verify-disk-no-radii": ["verify-disk", "--radii", ""],
    "verify-disk-radius-too-large": ["verify-disk", "--radii", "0.5,1.0"],
}
CASES = {
    f"{name}-{fmt}": [*argv, "--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in FORMATS
} | ERRORS


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": status}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(expected):
    assert set(expected) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_and_exit_status(case, expected):
    assert _run(CASES[case]) == expected[case]


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_holds_the_stdout_bytes(fmt, expected, tmp_path):
    path = tmp_path / "result"
    got = _run([*CASES[f"check-all-rtau-{fmt}"], "--out", str(path)])
    want = expected[f"check-all-rtau-{fmt}"]
    assert got == {**want, "stdout": ""}
    assert path.read_bytes() == want["stdout"].encode("utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case: _run(argv) for case, argv in CASES.items()}, indent=1) + "\n",
        encoding="utf-8",
    )
