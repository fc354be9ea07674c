import json
import subprocess
import sys

import jsonschema
import pytest

from pascal_spiral.cli import _CRITERIA, SCAN_CSV_COLUMNS
from pascal_spiral.schemas import SCHEMAS


def run_cli(*args):
    # decode by hand: universal-newline mode would mangle the CSV \r\n
    raw = subprocess.run(
        [sys.executable, "-m", "pascal_spiral.cli", *args],
        capture_output=True,
    )
    raw.stdout = raw.stdout.decode()
    raw.stderr = raw.stderr.decode()
    return raw


class TestExitCodes:
    def test_check_satisfied_exits_zero(self):
        r = run_cli("check", "thm1", "--m", "1", "--q", "0.2")
        assert r.returncode == 0

    def test_check_unsatisfied_exits_two(self):
        r = run_cli("check", "thm1", "--m", "1", "--q", "0.39")
        assert r.returncode == 2

    def test_invalid_q_exits_one_with_single_error_line(self):
        r = run_cli("coeffs", "--q", "1.5")
        assert r.returncode == 1
        lines = [line for line in r.stderr.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    @pytest.mark.parametrize("args, reason", [
        (("check", "lambda-in-s", "--m", "2", "--q", "0.3", "--tau-re", "nan",
          "--variant", "direct"), "tau must be finite and nonzero, got (nan+0j)"),
        (("check", "lambda-in-s", "--m", "2", "--q", "0.3", "--tau-re", "inf",
          "--variant", "direct"), "tau must be finite and nonzero, got (inf+0j)"),
        (("check", "lambda-in-s", "--m", "2", "--q", "0.3", "--delta=-inf"),
         "delta must be finite and < 1, got -inf"),
        (("coeffs", "--m", "inf"), "shape parameter m must be finite, got inf"),
        (("scan", "thm1", "--m-grid", "1,inf"),
         "argument --m-grid: not a comma-separated list of finite floats: '1,inf'"),
        (("discrepancy-report", "--threshold", "nan"),
         "threshold must be finite and >= 0, got nan"),
        (("verify-disk", "--function", "identity", "--m", "inf"), "m must be finite, got inf"),
        (("verify-disk", "--function", "identity", "--q", "nan"), "q must be finite, got nan"),
        (("verify-disk", "--function", "single", "--m=-inf"), "m must be finite, got -inf"),
        (("verify-disk", "--function", "single", "--a2", "inf"), "a2 must be finite, got inf"),
        (("verify-disk", "--function", "single", "--a2", "nan"), "a2 must be finite, got nan"),
        (("verify-disk", "--function", "theta", "--m", "inf"),
         "shape parameter m must be finite, got inf"),
        (("verify-disk", "--function", "integral", "--q", "nan"),
         "success parameter q must be in [0, 1), got nan"),
        (("verify-disk", "--function", "lambda-rtau", "--m", "nan"),
         "shape parameter m must be >= 1, got nan"),
    ], ids=[
        "tau-nan", "tau-inf", "delta-inf", "m-inf", "grid-inf", "threshold-nan",
        "disk-identity-m-inf", "disk-identity-q-nan", "disk-single-m-inf",
        "disk-single-a2-inf", "disk-single-a2-nan", "disk-theta-m-inf",
        "disk-integral-q-nan", "disk-lambda-m-nan",
    ])
    def test_non_finite_input_exits_one_with_its_reason(self, args, reason):
        # json has no inf or nan; the input is refused before any sum or
        # numpy warning
        r = run_cli(*args)
        assert (r.returncode, r.stdout, r.stderr) == (1, "", f"error: {reason}\n")

    def test_overflowing_direct_sum_writes_nothing_to_stderr(self):
        # the raw coefficients at m = 2000 overflow to inf inside oracle_sum,
        # which once let numpy print four overflow warnings
        r = run_cli("check", "thm1", "--m", "2000", "--q", "0.3", "--variant", "all")
        assert r.returncode == 2
        assert r.stderr == ""

    def test_unknown_criterion_exits_one(self):
        r = run_cli("check", "thm9")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")

    def test_unknown_flag_exits_one(self):
        r = run_cli("coeffs", "--bogus")
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_missing_subcommand_exits_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_tol_is_not_an_option(self):
        r = run_cli("check", "thm1", "--tol", "1e-8")
        assert r.returncode == 1
        assert "unrecognized arguments: --tol" in r.stderr


def test_theorem_and_corollary_numbers():
    # the paper's numbering: Theorems 1-6, Corollaries 1-6 at rho = 0
    names = (
        "theta-in-s", "theta-in-k", "lambda-in-s", "lambda-in-k",
        "integral-in-k", "integral-in-s",
    )
    want = {}
    for i, name in enumerate(names, 1):
        want.update({name: (name, False), f"thm{i}": (name, False), f"cor{i}": (name, True)})
    assert {key: (cid.value, rho0) for key, (cid, rho0) in _CRITERIA.items()} == want


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("coeffs", "--m", "2", "--q", "0.4", "--n", "20"),
            ("identities", "--m", "1.5", "--q", "0.6"),
            ("check", "thm2", "--m", "2", "--q", "0.3", "--xi", "0.5"),
            (
                "scan", "thm1", "--m-grid", "1,2",
                "--gamma-grid", "0,0.5", "--seed", "7",
            ),
        ],
    )
    def test_byte_identical_repeats(self, args):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


class TestJsonSchemas:
    def _validated(self, *args, command):
        r = run_cli(*args, "--format", "json")
        payload = json.loads(r.stdout)
        jsonschema.validate(payload, SCHEMAS[command])
        return r, payload

    def test_coeffs(self):
        r, payload = self._validated(
            "coeffs", "--m", "2", "--q", "0.5", "--n", "6", command="coeffs"
        )
        assert r.returncode == 0
        assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
        assert payload["rows"][0]["phi_n"] == 0.25

    def test_identities(self):
        r, payload = self._validated(
            "identities", "--m", "3", "--q", "0.4", command="identities"
        )
        assert r.returncode == 0
        assert [d["identity_id"] for d in payload["identities"]] == [
            "S0", "S1", "S2", "Sinv"
        ]
        assert all(d["abs_error"] < 1e-9 for d in payload["identities"])

    def test_check(self):
        r, payload = self._validated(
            "check", "thm1", "--m", "1", "--q", "0.2", command="check"
        )
        assert r.returncode == 0
        assert set(payload["verdicts"]) == {"paper", "rederived", "direct"}
        assert payload["verdicts"]["direct"]["satisfied"] is True

    def test_verify_disk(self):
        r, payload = self._validated(
            "verify-disk", "--function", "identity", "--angles", "16",
            command="verify-disk",
        )
        assert r.returncode == 0
        assert payload["pass"] is True

    def test_verify_disk_failure(self):
        r, payload = self._validated(
            "verify-disk", "--function", "single", "--a2", "3",
            "--angles", "64", command="verify-disk",
        )
        assert r.returncode == 2
        assert payload["pass"] is False
        assert payload["min_value"] < 0

    def test_scan(self):
        r, payload = self._validated(
            "scan", "thm1", "--m-grid", "1,2", "--gamma-grid", "0,0.5",
            command="scan",
        )
        assert r.returncode == 0
        assert len(payload["rows"]) == 4
        assert all(row["error"] == "" for row in payload["rows"])

    def test_discrepancy_report(self):
        r, payload = self._validated(
            "discrepancy-report",
            "--m-grid", "1,2", "--q-grid", "0.3,0.5", "--xi-grid", "0",
            "--gamma-grid", "0", "--rho-grid", "0",
            command="discrepancy-report",
        )
        assert r.returncode == 0
        assert payload["flagged_counts"]["theta-in-k"] >= 1
        assert payload["flagged_counts"]["theta-in-s"] == 0


class TestCsv:
    def test_coeffs_header_and_crlf(self):
        r = run_cli("coeffs", "--m", "1", "--q", "0.5", "--n", "4", "--format", "csv")
        lines = r.stdout.split("\r\n")
        assert lines[0] == "n,phi_n"
        assert lines[1].startswith("2,0.25")
        assert len(lines) == 5  # header + 3 rows + trailing empty

    def test_scan_header(self):
        r = run_cli("scan", "thm1", "--format", "csv")
        header = r.stdout.split("\r\n", 1)[0]
        assert header == ",".join(SCAN_CSV_COLUMNS)

    def test_coeffs_q_zero_all_zero_rows(self):
        r = run_cli("coeffs", "--m", "3", "--q", "0", "--n", "5", "--format", "csv")
        rows = [line for line in r.stdout.split("\r\n")[1:] if line]
        assert all(row.endswith(",0") for row in rows)


class TestConveniences:
    def test_degrees_flag(self):
        a = run_cli("check", "thm1", "--q", "0.3", "--xi", "60", "--degrees")
        b = run_cli("check", "thm1", "--q", "0.3", "--xi", "1.0471975511965976")
        assert json.loads(a.stdout)["verdicts"] == json.loads(b.stdout)["verdicts"]

    def test_corollary_alias_forces_rho_zero(self):
        a = run_cli("check", "cor1", "--q", "0.3", "--rho", "0.6")
        b = run_cli("check", "thm1", "--q", "0.3", "--rho", "0")
        assert json.loads(a.stdout)["verdicts"] == json.loads(b.stdout)["verdicts"]

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "coeffs.json"
        r = run_cli("coeffs", "--n", "4", "--out", str(path))
        assert r.returncode == 0
        assert r.stdout == ""
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, SCHEMAS["coeffs"])

    def test_human_format_runs(self):
        r = run_cli("identities", "--format", "human")
        assert r.returncode == 0
        assert "S0" in r.stdout
