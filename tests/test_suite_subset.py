"""Runner for the bundled subset of the community schema test suite."""

import json

import pytest

from uneval.eliminate import elim_document
from uneval.jsonvalue import parse_json, serialize_json
from uneval.schema import parse_schema, serialize_schema
from uneval.validator import validate

from conftest import load_suite

SUITE = load_suite()


def case_ids():
    return [f"{stem}: {group['description']}" for stem, group in SUITE]


@pytest.fixture(params=SUITE, ids=case_ids())
def suite_group(request):
    return request.param


def test_group(suite_group):
    _, group = suite_group
    doc = parse_schema(group["schema"])
    for test in group["tests"]:
        got = validate(doc, doc.root, test["data"]).valid
        assert got == test["valid"], test["description"]


def test_subset_covers_all_six_keywords():
    stems = {stem for stem, _ in SUITE}
    assert stems == {
        "additionalProperties",
        "items",
        "prefixItems",
        "contains",
        "unevaluatedProperties",
        "unevaluatedItems",
    }


def test_third_party_agrees_on_suite(suite_group):
    jsonschema = pytest.importorskip("jsonschema")
    _, group = suite_group
    checker = jsonschema.Draft202012Validator(group["schema"])
    for test in group["tests"]:
        assert checker.is_valid(test["data"]) == test["valid"], test["description"]


def test_rewrite_keeps_the_suite_verdicts(suite_group):
    """The rewrite of each suite schema, written out and parsed again,
    gives the suite's verdict on every case, under uneval and under
    jsonschema."""
    _, group = suite_group
    text = serialize_json(serialize_schema(elim_document(parse_schema(group["schema"]))))
    doc = parse_schema(parse_json(text))
    for test in group["tests"]:
        assert validate(doc, doc.root, test["data"]).valid == test["valid"], test["description"]
    jsonschema = pytest.importorskip("jsonschema")
    checker = jsonschema.Draft202012Validator(json.loads(text))
    for test in group["tests"]:
        assert checker.is_valid(test["data"]) == test["valid"], test["description"]
