"""JSON Schemas (draft 2020-12) for the stable CLI output formats.

The human format carries no stability guarantee; json and csv do.  CSV
column layouts are fixed per subcommand and documented in the README.

Every object is a closed record that requires each listed property, except
the variants in check's `verdicts`.  A record the package builds is read
from its declaration: an `identities` item from `IdentityReport`, a verdict
from `Verdict`, a `scan` row from `ScanRow`, a flagged row from
`criteria.DISCREPANCY_FIELDS`, the enums from `summation.IDENTITY_IDS` and
`criteria.VARIANTS`."""
import dataclasses
import typing

from .criteria import DISCREPANCY_FIELDS, VARIANTS, Verdict
from .scan import ScanRow
from .summation import IDENTITY_IDS, IdentityReport

_JSON_TYPES = {float: "number", int: "integer", str: "string", bool: "boolean"}


def _record(properties: dict) -> dict:
    """A closed object requiring every property."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _fields(cls) -> dict:
    """The properties of a dataclass's fields, in declaration order and typed
    by their annotations; an annotation with no JSON type raises KeyError."""
    hints = typing.get_type_hints(cls)
    return {
        field.name: {"type": _JSON_TYPES[hints[field.name]]}
        for field in dataclasses.fields(cls)
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

_VERDICT = _record({**_fields(Verdict), "variant": {"enum": list(VARIANTS)}})

# each subcommand's json output; _payload adds the command const
SCHEMAS = {command: _payload(command, properties) for command, properties in {
    "coeffs": {
        "m": _NUMBER,
        "q": _NUMBER,
        "rows": {"type": "array", "items": _record({"n": _INTEGER, "phi_n": _NUMBER})},
    },
    "identities": {
        "m": _NUMBER,
        "q": _NUMBER,
        "identities": {"type": "array", "items": _record(
            {**_fields(IdentityReport), "identity_id": {"enum": list(IDENTITY_IDS)}}
        )},
    },
    "check": {
        "criterion": _STRING,
        "params": _OBJECT,
        # --variant picks which verdicts appear, so none is required
        "verdicts": {
            "type": "object",
            "properties": {variant: _VERDICT for variant in VARIANTS},
            "additionalProperties": False,
        },
        "disagreement": {"type": ["number", "null"]},
    },
    "verify-disk": {
        "function": _STRING,
        "family": {"enum": ["S", "K"]},
        "params": _OBJECT,
        "pass": {"type": "boolean"},
        "min_value": _NUMBER,
        "witness": _COMPLEX,
        "points_checked": _INTEGER,
        "note": _STRING,
    },
    # every scan row carries boundary and error, empty where unset
    "scan": {"rows": {"type": "array", "items": _record(_fields(ScanRow))}},
    "discrepancy-report": {
        "threshold": _NUMBER,
        "points_checked": _INTEGER,
        "flagged_counts": {"type": "object", "additionalProperties": _INTEGER},
        "flagged_rows": {"type": "array", "items": _record({
            field: _STRING if field == "criterion" else _NUMBER
            for field in DISCREPANCY_FIELDS
        })},
    },
}.items()}
