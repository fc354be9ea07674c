"""Schema content: the JSON Schemas of the json output, pinned as text in
tests/data/schemas.json.

Validating outputs against the schemas cannot catch a loosened schema (a
name dropped from `required`, `additionalProperties` turned on), so the
schemas themselves are pinned, key order included.  The fixture was captured
before the schemas were rebuilt from one closed-record helper.  After an
intended change of a schema, re-pin with

    PYTHONPATH=src python tests/test_schemas.py
"""
import argparse
import dataclasses
import json
import pathlib

import jsonschema
import pytest

from pascal_spiral import cli, schemas
from pascal_spiral.scan import ScanRow
from pascal_spiral.schemas import SCHEMAS

FIXTURE = pathlib.Path(__file__).parent / "data" / "schemas.json"


def _text() -> str:
    return json.dumps(SCHEMAS, indent=1) + "\n"


def test_schemas_match_the_pinned_text():
    assert _text() == FIXTURE.read_text(encoding="utf-8")


def test_one_schema_per_subcommand():
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(SCHEMAS) == set(subparsers.choices)
    for command, schema in SCHEMAS.items():
        assert schema["properties"]["command"] == {"const": command}


@pytest.mark.parametrize("field", ["boundary", "error"])
def test_scan_row_requires_boundary_and_error(field):
    row = dataclasses.asdict(ScanRow("theta-in-s", "direct", 1.0, 0.0, 0.0, 0.0, 0.5, 3, 0.0))
    jsonschema.validate({"command": "scan", "rows": [row]}, SCHEMAS["scan"])
    del row[field]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"command": "scan", "rows": [row]}, SCHEMAS["scan"])


def test_a_field_without_a_json_type_raises():
    # float | None maps to no JSON type: a record holding such a field must
    # fail rather than lose the property
    @dataclasses.dataclass
    class Record:
        lhs: float
        spread: float | None

    with pytest.raises(KeyError):
        schemas._fields(Record)


if __name__ == "__main__":
    FIXTURE.write_text(_text(), encoding="utf-8")
