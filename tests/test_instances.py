import pytest

from uneval.instances import (
    ARRAY_KEYWORDS,
    MAX_NAMES,
    OBJECT_KEYWORDS,
    _uses,
    oracle_names,
    pattern_literal,
    relevant_property_names,
)
from uneval.schema import ObjSchema, SchemaDocument, distinct_nodes, parse_schema

from walking import document_schemas


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
    return len(relevant_property_names(doc)) + relevant_prefix_positions(doc)


def _walked_keywords(doc):
    """Every keyword of every node occurrence, through the recursive walk."""
    for s in document_schemas(doc):
        if isinstance(s, ObjSchema):
            yield from s.keywords


def _reference_universe_inputs(doc):
    names, longest, uses = set(), 0, {OBJECT_KEYWORDS: False, ARRAY_KEYWORDS: False}
    for kw in _walked_keywords(doc):
        if kw.name == "properties":
            names.update(kw.value)
        elif kw.name == "required":
            names.update(kw.value)
        elif kw.name == "patternProperties":
            names.update(filter(None, map(pattern_literal, kw.value)))
        elif kw.name == "prefixItems":
            longest = max(longest, len(kw.value))
        for group in uses:
            if kw.name in group or (kw.name == "type" and kw.value in group):
                uses[group] = True
    return sorted(names), longest, uses


def test_universe_inputs_equal_the_walk_over_every_occurrence(corpus, rewrites):
    """The names, prefix length and keyword groups that fix a universe are
    the same over distinct nodes as over every occurrence, for originals
    and for rewrites, which share nodes."""
    docs = [parse_schema(fixture.schema_json) for fixture in corpus]
    docs += rewrites.corpus + [d for n in range(2, 6) for d in rewrites.family[n]]
    for doc in docs:
        names, longest, uses = _reference_universe_inputs(doc)
        assert relevant_property_names(doc) == names
        assert relevant_prefix_positions(doc) == longest
        for group, used in uses.items():
            assert _uses(doc, group) == used


@pytest.mark.parametrize(
    "pattern, literal",
    [
        ("^ab$", "ab"),
        ("a_b-1", "a_b-1"),
        ("^ab$\n", None),
        ("ab\n", None),
        ("^a.b$", None),
        ("^ab", None),
    ],
)
def test_pattern_literal(pattern, literal):
    assert pattern_literal(pattern) == literal


@pytest.mark.parametrize("count", [2, MAX_NAMES - 1, MAX_NAMES, MAX_NAMES + 3])
def test_oracle_names_stop_at_the_cap(count):
    """Concatenations fill the oracle's names only up to ``MAX_NAMES``: a
    document with that many relevant names or more gets the first
    ``MAX_NAMES`` and the fresh name ``_``, and nothing else."""
    names = [f"n{i:02}" for i in range(count)]
    got = oracle_names(parse_schema({"required": names}))
    if count >= MAX_NAMES:
        assert got == names[:MAX_NAMES] + ["_"]
    else:
        assert got == names + ["n00n01", "_"]
