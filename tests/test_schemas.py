"""Schema content: the JSON Schemas of the json output, pinned as text in
tests/data/schemas.json.

Validating outputs against the schemas cannot catch a loosened schema (a
name dropped from `required`, `additionalProperties` turned on), so the
schemas themselves are pinned, key order included.  The fixture was captured
before the schemas were rebuilt from one closed-record helper.  After an
intended change of a schema, re-pin with

    PYTHONPATH=src python tests/test_schemas.py
"""
import json
import pathlib

from pascal_spiral.schemas import SCHEMAS

FIXTURE = pathlib.Path(__file__).parent / "data" / "schemas.json"


def _text() -> str:
    return json.dumps(SCHEMAS, indent=1) + "\n"


def test_schemas_match_the_pinned_text():
    assert _text() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(_text(), encoding="utf-8")
