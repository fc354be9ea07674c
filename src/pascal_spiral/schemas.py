"""JSON Schemas (draft 2020-12) for the stable CLI output formats.

The human format carries no stability guarantee; json and csv do.  CSV
column layouts are fixed per subcommand and documented in the README.

Every object is a closed record that requires each listed property, except
a scan row's `boundary` and `error` and the variants in check's `verdicts`."""


def _record(properties: dict, optional=()) -> dict:
    """A closed object requiring every property not named in optional."""
    return {
        "type": "object",
        "properties": properties,
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
    }


def _payload(command: str, properties: dict) -> dict:
    """The top-level record of one subcommand's json output."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        **_record({"command": {"const": command}, **properties}),
    }


_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_STRING = {"type": "string"}
_OBJECT = {"type": "object"}
_COMPLEX = _record({"re": _NUMBER, "im": _NUMBER})

COEFFS_SCHEMA = _payload("coeffs", {
    "m": _NUMBER,
    "q": _NUMBER,
    "rows": {"type": "array", "items": _record({"n": _INTEGER, "phi_n": _NUMBER})},
})

IDENTITIES_SCHEMA = _payload("identities", {
    "m": _NUMBER,
    "q": _NUMBER,
    "identities": {"type": "array", "items": _record({
        "identity_id": {"enum": ["S0", "S1", "S2", "Sinv"]},
        "closed_form": _NUMBER,
        "truncated": _NUMBER,
        "truncation_order": _INTEGER,
        "abs_error": _NUMBER,
    })},
})

_VERDICT = _record({
    "lhs": _NUMBER,
    "rhs": _NUMBER,
    "margin": _NUMBER,
    "satisfied": {"type": "boolean"},
    "variant": {"enum": ["paper", "rederived", "direct"]},
})

CHECK_SCHEMA = _payload("check", {
    "criterion": _STRING,
    "params": _OBJECT,
    # --variant picks which verdicts appear, so none is required
    "verdicts": {
        "type": "object",
        "properties": {"paper": _VERDICT, "rederived": _VERDICT, "direct": _VERDICT},
        "additionalProperties": False,
    },
    "disagreement": {"type": ["number", "null"]},
})

VERIFY_DISK_SCHEMA = _payload("verify-disk", {
    "function": _STRING,
    "family": {"enum": ["S", "K"]},
    "params": _OBJECT,
    "pass": {"type": "boolean"},
    "min_value": _NUMBER,
    "witness": _COMPLEX,
    "points_checked": _INTEGER,
    "note": _STRING,
})

SCAN_SCHEMA = _payload("scan", {
    # boundary and error appear only on rows where they are set
    "rows": {"type": "array", "items": _record(
        {
            "criterion": _STRING,
            "variant": _STRING,
            "m": _NUMBER,
            "xi": _NUMBER,
            "gamma": _NUMBER,
            "rho": _NUMBER,
            "q_star": _NUMBER,
            "iterations": _INTEGER,
            "residual_margin": _NUMBER,
            "boundary": _STRING,
            "error": _STRING,
        },
        optional=("boundary", "error"),
    )},
})

DISCREPANCY_SCHEMA = _payload("discrepancy-report", {
    "threshold": _NUMBER,
    "points_checked": _INTEGER,
    "flagged_counts": {"type": "object", "additionalProperties": _INTEGER},
    "flagged_rows": {"type": "array", "items": _record({
        "criterion": _STRING,
        "m": _NUMBER,
        "q": _NUMBER,
        "xi": _NUMBER,
        "gamma": _NUMBER,
        "rho": _NUMBER,
        "paper_lhs": _NUMBER,
        "direct_lhs": _NUMBER,
        "abs_diff": _NUMBER,
    })},
})

SCHEMAS = {
    "coeffs": COEFFS_SCHEMA,
    "identities": IDENTITIES_SCHEMA,
    "check": CHECK_SCHEMA,
    "verify-disk": VERIFY_DISK_SCHEMA,
    "scan": SCAN_SCHEMA,
    "discrepancy-report": DISCREPANCY_SCHEMA,
}
