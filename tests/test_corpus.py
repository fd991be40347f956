"""Corpus-wide checks: witness labels, rewriting equivalence, no residual."""

import pytest

from uneval.difftest import difftest
from uneval.eliminate import count_uneval_keywords, elim_document
from uneval.schema import find_unguarded_cycle, parse_schema
from uneval.validator import validate

from conftest import load_corpus

CORPUS = load_corpus()


def fixture_ids():
    return [f.name for f in CORPUS]


@pytest.fixture(params=CORPUS, ids=fixture_ids())
def fixture(request):
    return request.param


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


def test_corpus_covers_every_grammar_keyword():
    wanted = {
        "minimum", "maximum", "pattern", "const", "type",
        "anyOf", "allOf", "oneOf", "not",
        "patternProperties", "properties", "required",
        "minProperties", "maxProperties", "propertyNames",
        "prefixItems", "contains", "minContains", "maxContains",
        "minItems", "maxItems", "uniqueItems",
        "$ref", "$defs", "$anchor",
        "additionalProperties", "items",
        "unevaluatedProperties", "unevaluatedItems",
    }

    def keys_of(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys_of(v)
        elif isinstance(node, list):
            for item in node:
                yield from keys_of(item)

    seen = set()
    for fixture in CORPUS:
        seen.update(keys_of(fixture.schema_json))
    assert wanted <= seen, wanted - seen


def test_corpus_includes_both_families_at_small_sizes():
    names = {f.name for f in CORPUS}
    for n in (1, 2, 3):
        assert f"adv_sn_{n}" in names
        assert f"adv_san_{n}" in names


def test_schema_parses_and_is_guarded(fixture):
    doc = parse_schema(fixture.schema_json)
    assert find_unguarded_cycle(doc) is None


def test_witness_labels(fixture):
    doc = parse_schema(fixture.schema_json)
    for instance in fixture.valid:
        assert validate(doc, doc.root, instance).valid, instance
    for instance in fixture.invalid:
        assert not validate(doc, doc.root, instance).valid, instance


def test_difftest_on_curated_witnesses(fixture):
    doc = parse_schema(fixture.schema_json)
    report = difftest(
        doc, instances=fixture.valid + fixture.invalid, schema_id=fixture.name
    )
    assert report.disagree == 0, report.disagreements


def test_no_residual_uneval(fixture):
    doc = parse_schema(fixture.schema_json)
    assert count_uneval_keywords(elim_document(doc)) == 0


def test_rewritten_schema_agrees_on_witnesses(fixture):
    doc = parse_schema(fixture.schema_json)
    out = elim_document(doc)
    for instance, expected in [(i, True) for i in fixture.valid] + [
        (i, False) for i in fixture.invalid
    ]:
        assert validate(out, out.root, instance).valid == expected, instance


@pytest.mark.skipif(
    not pytest.importorskip("jsonschema", reason="jsonschema not installed"),
    reason="jsonschema not installed",
)
def test_third_party_cross_check(fixture):
    """Non-gating in spirit: an independent validator agrees on every witness."""
    import jsonschema

    checker = jsonschema.Draft202012Validator(fixture.schema_json)
    for instance in fixture.valid:
        assert checker.is_valid(instance), instance
    for instance in fixture.invalid:
        assert not checker.is_valid(instance), instance
