import pytest

from uneval.difftest import difftest
from uneval.instances import MAX_NAMES, enumerate_instances, oracle_names, universe_inputs
from uneval.schema import (
    REGEX,
    ObjSchema,
    SchemaDocument,
    distinct_nodes,
    parse_schema,
    pattern_kind,
)

from walking import document_schemas

#: The size of each corpus fixture's universe, by fixture name.  A change
#: that moves a universe shows here, with the fixture it moved.
CORPUS_UNIVERSES = {
    "additional_properties_false": 4940,
    "additional_properties_ignores_applicators": 40,
    "additional_properties_schema": 40,
    "adv_san_1": 845,
    "adv_san_2": 6660,
    "adv_san_3": 10925,
    "adv_sn_1": 40,
    "adv_sn_2": 675,
    "adv_sn_3": 4940,
    "all_of_plain": 5,
    "any_of_plain": 5,
    "bool_valued_properties": 675,
    "both_adks": 845,
    "const_number_value": 5,
    "const_object_order": 5,
    "contains_basic": 311,
    "contains_min_max": 311,
    "empty_schema": 5,
    "extensible_kind": 7745,
    "first_array_example": 311,
    "guarded_recursion_list": 675,
    "items_after_prefix": 311,
    "items_ignores_applicators": 311,
    "items_uniform": 311,
    "max_contains_only": 311,
    "min_contains_zero": 311,
    "min_max_items": 311,
    "min_max_properties": 10,
    "minimum_maximum": 5,
    "not_annotation_erasure": 40,
    "not_plain": 5,
    "one_of_plain": 5,
    "pattern_properties": 40,
    "pattern_unanchored": 5,
    "prefix_items": 311,
    "property_names": 10,
    "protocol_messages": 7745,
    "realistic_catalog_entry": 4940,
    "realistic_device_config": 28045,
    "realistic_envelope_stream": 6660,
    "realistic_measurement": 4940,
    "ref_anchor": 4940,
    "ref_defs": 40,
    "required_properties": 40,
    "second_array_example": 311,
    "type_integer_value": 5,
    "type_object": 10,
    "uneval_items_anyof_prefix": 311,
    "uneval_items_contains": 311,
    "uneval_items_cousins": 311,
    "uneval_items_double_negation": 311,
    "uneval_items_items": 311,
    "uneval_items_min_items": 311,
    "uneval_items_prefix": 311,
    "uneval_items_schema_arg": 311,
    "uneval_nested_hoisting": 675,
    "uneval_props_adjacent_additional": 40,
    "uneval_props_allof_refs": 675,
    "uneval_props_anyof_cooperation": 675,
    "uneval_props_anyof_refs": 675,
    "uneval_props_anyof_required": 4940,
    "uneval_props_contains_interplay": 845,
    "uneval_props_cousins": 40,
    "uneval_props_double_negation": 675,
    "uneval_props_empty_body": 10,
    "uneval_props_minprops": 10,
    "uneval_props_naive_distribution": 675,
    "uneval_props_nested_inner_true": 10,
    "uneval_props_oneof": 675,
    "uneval_props_pattern_adjacent": 40,
    "uneval_props_plain": 40,
    "uneval_props_propertynames": 40,
    "uneval_props_schema_arg": 40,
    "uneval_ref_to_anchored_divergent": 4940,
    "uneval_ref_to_uneval": 4940,
    "unique_items": 311,
    "unique_items_false": 311,
    "unknown_keywords_inert": 40,
    "worked_example_items_ref": 6660,
}


def relevant_prefix_positions(doc: SchemaDocument) -> int:
    """The longest ``prefixItems`` of the document, over distinct nodes."""
    longest = 0
    for s in distinct_nodes((doc.root, *doc.defs.values())):
        if isinstance(s, ObjSchema):
            kw = s.get("prefixItems")
            if kw is not None:
                longest = max(longest, len(kw.value))
    return longest


def relevant_size(doc: SchemaDocument) -> int:
    """Distinct relevant names plus prefix positions (oracle feasibility)."""
    return len(universe_inputs(doc)[0]) + relevant_prefix_positions(doc)


def _walked_keywords(doc):
    """Every keyword of every node occurrence, through the recursive walk."""
    for s in document_schemas(doc):
        if isinstance(s, ObjSchema):
            yield from s.keywords


#: The keywords, and the ``type`` values, that make a universe hold
#: objects or arrays: the reference for ``schema.CONSTRAINS``.
OBJECT_KEYWORDS = (
    "properties",
    "patternProperties",
    "required",
    "propertyNames",
    "minProperties",
    "maxProperties",
    "additionalProperties",
    "unevaluatedProperties",
    "object",
)
ARRAY_KEYWORDS = (
    "prefixItems",
    "items",
    "contains",
    "minItems",
    "maxItems",
    "uniqueItems",
    "unevaluatedItems",
    "array",
)


def _reference_universe_inputs(doc):
    names, longest, uses = set(), 0, {"object": False, "array": False}
    groups = {"object": OBJECT_KEYWORDS, "array": ARRAY_KEYWORDS}
    for kw in _walked_keywords(doc):
        if kw.name == "properties":
            names.update(kw.value)
        elif kw.name == "required":
            names.update(kw.value)
        elif kw.name == "patternProperties":
            for pattern in kw.value:
                kind, text = pattern_kind(pattern)
                if kind != REGEX and text:
                    names.add(text)
        elif kw.name == "prefixItems":
            longest = max(longest, len(kw.value))
        for type_, group in groups.items():
            if kw.name in group or (kw.name == "type" and kw.value in group):
                uses[type_] = True
    return sorted(names), longest, uses


def test_universe_inputs_equal_the_walk_over_every_occurrence(corpus, rewrites):
    """The names, prefix length and keyword groups that fix a universe are
    the same over distinct nodes as over every occurrence, for originals
    and for rewrites, which share nodes."""
    docs = [parse_schema(fixture.schema_json) for fixture in corpus]
    docs += rewrites.corpus + [d for n in range(2, 6) for d in rewrites.family[n]]
    for doc in docs:
        names, longest, uses = _reference_universe_inputs(doc)
        got_names, types = universe_inputs(doc)
        assert got_names == names
        assert relevant_prefix_positions(doc) == longest
        assert types <= {"object", "array", "number", "integer", "string", "boolean", "null"}
        for type_, used in uses.items():
            assert (type_ in types) == used


@pytest.mark.parametrize(
    "pattern, names",
    [
        ("^ab$", ["ab"]),
        ("a_b-1", ["a_b-1"]),
        ("^ab$\n", []),
        ("ab\n", ["ab\n"]),
        ("^a.b$", []),
        ("^ab", ["ab"]),
        ("", []),
        ("^p\\.", ["p."]),
    ],
)
def test_pattern_names(pattern, names):
    """A pattern gives the universe a name when ``pattern_kind`` reads it as
    a nonempty exact, prefix or substring literal: the name is its literal
    text, which the pattern matches."""
    doc = parse_schema({"patternProperties": {pattern: False}})
    assert universe_inputs(doc)[0] == names


def test_a_prefix_pattern_is_probed_by_its_text():
    """``^ab`` matches ``ab``, so the oracle probes ``ab`` and finds that
    members matching the pattern fail the original and its rewrite alike."""
    doc = parse_schema({"patternProperties": {"^ab": False}, "unevaluatedProperties": False})
    assert universe_inputs(doc)[0] == ["ab"]
    probed = [x for x in enumerate_instances(doc) if isinstance(x, dict) and "ab" in x]
    assert len(probed) == 30
    report = difftest(doc)
    assert (report.instances_total, report.disagree) == (40, 0)


def test_escaped_and_spaced_pattern_names_are_probed():
    """``^a\\-b$`` and ``^c d$`` are exact names, so the oracle probes
    ``a-b`` and ``c d`` and finds no disagreement with the rewrite."""
    doc = parse_schema(
        {
            "patternProperties": {"^a\\-b$": False, "^c d$": False, "^e$": False},
            "unevaluatedProperties": False,
        }
    )
    names, types = universe_inputs(doc)
    assert names == ["a-b", "c d", "e"]
    assert types == {"object"}
    assert oracle_names(names) == ["a-b", "c d", "e", "a-bc d", "a-be", "c de", "_"]
    report = difftest(doc)
    assert (report.instances_total, report.disagree) == (4940, 0)


def test_corpus_universes_are_pinned(corpus):
    """Each corpus fixture's universe has the size it had, and so has the
    whole: a change that moves a universe shows here."""
    sizes = {
        fixture.name: sum(1 for _ in enumerate_instances(parse_schema(fixture.schema_json)))
        for fixture in corpus
    }
    assert sizes == CORPUS_UNIVERSES
    assert sum(sizes.values()) == 130446


@pytest.mark.parametrize("count", [2, MAX_NAMES - 1, MAX_NAMES, MAX_NAMES + 3])
def test_oracle_names_stop_at_the_cap(count):
    """Concatenations fill the oracle's names only up to ``MAX_NAMES``: a
    document with that many relevant names or more gets the first
    ``MAX_NAMES`` and the fresh name ``_``, and nothing else."""
    names = [f"n{i:02}" for i in range(count)]
    got = oracle_names(universe_inputs(parse_schema({"required": names}))[0])
    if count >= MAX_NAMES:
        assert got == names[:MAX_NAMES] + ["_"]
    else:
        assert got == names + ["n00n01", "_"]
