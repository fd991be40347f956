import json

import pytest

from uneval import eliminate
from uneval.difftest import difftest
from uneval.eliminate import elim_document
from uneval.families import gen_family_sn
from uneval.schema import parse_schema

from test_schema import SALE_CAR


def test_sn_exhaustive_agrees():
    report = difftest(gen_family_sn(3), schema_id="S3")
    assert report.disagree == 0
    assert report.agree == report.instances_total > 0
    assert report.size_ratio > 1


def test_sale_car_witness():
    doc = parse_schema(SALE_CAR)
    report = difftest(doc, instances=[{"price": 100, "plate": "x111"}])
    assert report.instances_total == 1
    assert report.disagree == 0


def test_empty_source_warns():
    doc = parse_schema(SALE_CAR)
    report = difftest(doc, instances=[])
    assert report.instances_total == 0
    assert report.warning
    assert report.disagree == 0


def test_deterministic():
    r1 = difftest(gen_family_sn(2), schema_id="S2")
    r2 = difftest(gen_family_sn(2), schema_id="S2")
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("elapsed_ms")
    j2.pop("elapsed_ms")
    assert j1 == j2


def test_report_counts_consistent():
    report = difftest(gen_family_sn(2))
    assert report.agree + report.disagree == report.instances_total


def test_disagreements_are_counted_and_at_most_25_recorded(monkeypatch, tmp_path, capsys):
    """A rewrite that accepts everything disagrees with a closed schema on
    every instance the original rejects; the CLI then exits 1."""
    import sys

    from uneval.cli import main

    # the package's name ``difftest`` is the function, so take the module
    module = sys.modules["uneval.difftest"]
    monkeypatch.setattr(module, "elim_document", lambda doc: parse_schema(True))
    closed = {"properties": {"a": {"type": "integer"}}, "unevaluatedProperties": False}
    report = difftest(parse_schema(closed))
    assert report.disagree > 25
    assert report.agree + report.disagree == report.instances_total
    assert len(report.disagreements) == 25
    for record in report.disagreements:
        assert record.keys() == {"instance", "valid_under_original", "valid_under_rewritten"}
        assert record["valid_under_original"] is False
        assert record["valid_under_rewritten"] is True
    few = difftest(parse_schema(closed), instances=[{"a": 1}, {"a": "x"}, {"b": 1}])
    assert (few.agree, few.disagree) == (1, 2)
    assert [r["instance"] for r in few.disagreements] == [{"a": "x"}, {"b": 1}]
    schema = tmp_path / "s.json"
    schema.write_text(json.dumps(closed))
    assert main(["difftest", "--schema", str(schema)]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["disagree"] == report.disagree
    assert printed["disagreements"] == report.disagreements


def test_trailing_newline_names_agree():
    """The rewrite's exact-name patterns end in ``$``, which must not
    match before a final newline."""
    doc = parse_schema({"properties": {"a": True}, "unevaluatedProperties": False})
    report = difftest(doc, instances=[{"a": 1}, {"a\n": 1}, {"a\n": 1, "a": 1}, {"\n": 1}])
    assert report.instances_total == 4
    assert report.disagree == 0, report.disagreements


def test_shared_nested_uneval_agrees():
    inner = {"properties": {"x": True}, "unevaluatedProperties": False}
    doc = parse_schema(
        {"properties": {"a": inner, "b": inner}, "unevaluatedProperties": False}
    )
    report = difftest(doc)
    assert report.instances_total > 0
    assert report.disagree == 0, report.disagreements


A_CLOSED = {"properties": {"a": True}, "unevaluatedProperties": False}

#: In-place references to uneval-schemas, with the size of each universe.
REFERENCED_UNEVAL = [
    pytest.param(
        {
            "allOf": [{"$ref": "#/$defs/A"}],
            "properties": {"b": True},
            "unevaluatedProperties": False,
            "$defs": {"A": A_CLOSED},
        },
        675,
        id="all-of-ref",
    ),
    pytest.param(
        {
            "anyOf": [{"$ref": "#/$defs/A"}, {"properties": {"b": True}}],
            "unevaluatedProperties": False,
            "$defs": {
                "A": {
                    "patternProperties": {"^x": True},
                    "properties": {"a": {"type": "string"}},
                    "unevaluatedProperties": {"type": "integer"},
                }
            },
        },
        4940,
        id="any-of-ref-pattern",
    ),
    pytest.param(
        {
            "allOf": [{"$ref": "#A"}],
            "prefixItems": [True],
            "unevaluatedItems": False,
            "$defs": {
                "A": {
                    "$anchor": "A",
                    "anyOf": [
                        {"prefixItems": [{"type": "integer"}, True]},
                        {"contains": {"type": "string"}},
                    ],
                    "unevaluatedItems": {"type": "integer"},
                }
            },
        },
        311,
        id="all-of-anchor-items",
    ),
    pytest.param(
        {
            "oneOf": [{"$ref": "#/$defs/A"}, {"$ref": "#/$defs/B"}],
            "unevaluatedProperties": False,
            "$defs": {
                "A": A_CLOSED,
                "B": {"allOf": [{"$ref": "#/$defs/A"}], "properties": {"b": True}},
            },
        },
        675,
        id="one-of-refs",
    ),
]

#: References to uneval-schemas whose other side is not characterized, so
#: that normalization goes through the rewritten target.
THROUGH_REWRITTEN = [
    pytest.param(
        {
            "allOf": [{"$ref": "#/$defs/A"}],
            "unevaluatedProperties": False,
            "$defs": {
                "A": {
                    "anyOf": [{"properties": {"a": True}}, {"prefixItems": [True]}],
                    "unevaluatedItems": False,
                }
            },
        },
        845,
        id="all-of-ref-items-through-rewrite",
    ),
    pytest.param(
        {
            "allOf": [{"$ref": "#A"}],
            "unevaluatedItems": False,
            "$defs": {
                "A": {
                    "$anchor": "A",
                    "anyOf": [{"prefixItems": [True]}, {"contains": {"type": "integer"}}],
                    "unevaluatedProperties": False,
                }
            },
        },
        316,
        id="all-of-anchor-props-through-rewrite",
    ),
]


@pytest.mark.parametrize("schema,universe", REFERENCED_UNEVAL + THROUGH_REWRITTEN)
def test_references_to_uneval_schemas_agree(schema, universe):
    report = difftest(parse_schema(schema))
    assert report.instances_total == universe
    assert report.disagree == 0, report.disagreements


@pytest.mark.parametrize("schema,universe", THROUGH_REWRITTEN)
def test_reference_normalized_through_memoized_rewrite(monkeypatch, schema, universe):
    """The definition is rewritten once, by the driver, and the root's
    normalization resolves its reference to that memoized rewrite."""
    requested = []
    elim_named = eliminate._ElimRun.elim_named

    def spy(run, name):
        requested.append(name)
        return elim_named(run, name)

    monkeypatch.setattr(eliminate._ElimRun, "elim_named", spy)
    elim_document(parse_schema(schema))
    assert requested.count("A") > 1
