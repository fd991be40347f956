import itertools
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uneval.eliminate import elim_document
from uneval.errors import (
    NestingDepthError,
    RefResolutionError,
    SchemaParseError,
    UnevalError,
)
from uneval.families import gen_family_san, gen_family_sn
from uneval import jsonvalue
from uneval.jsonvalue import PlainDict, _canonical, dump_json, parse_json, serialize_json
from uneval.schema import (
    FALSE_SCHEMA,
    TRUE_SCHEMA,
    BoolSchema,
    Keyword,
    ObjSchema,
    SchemaDocument,
    boolean_one_of,
    build_document,
    child_schemas,
    combine,
    EXACT,
    PREFIX,
    REGEX,
    SUBSTRING,
    compile_pattern,
    deref,
    distinct_nodes,
    find_unguarded_cycle,
    keyword_rank,
    make_obj,
    parse_schema,
    _inplace_edges,
    pattern_kind,
    schema_to_json,
    serialize_schema,
)

from conftest import load_corpus
from randgen import gen_schema
from walking import walk

SALE_CAR = {
    "anyOf": [{"$ref": "#sale"}, {"$ref": "#car"}],
    "unevaluatedProperties": False,
    "$defs": {
        "sale": {"$anchor": "sale", "properties": {"price": {"type": "integer"}}},
        "car": {"$anchor": "car", "properties": {"plate": {"type": "string"}}},
    },
}


def test_parse_bool_schema():
    doc = parse_schema(True)
    assert doc.root == BoolSchema(True)


def test_parse_reorders_partitions():
    doc = parse_schema({"unevaluatedProperties": False, "properties": {"a": True}})
    assert [kw.name for kw in doc.root.keywords] == [
        "properties",
        "unevaluatedProperties",
    ]


def test_parse_sale_car_document():
    doc = parse_schema(SALE_CAR)
    assert sorted(doc.defs) == ["car", "sale"]
    assert sorted(doc.anchors) == ["car", "sale"]


def test_every_grammar_keyword_is_recognized():
    schema = {
        "minimum": 1,
        "maximum": 2,
        "pattern": "a",
        "const": 1,
        "type": "object",
        "anyOf": [True],
        "allOf": [True],
        "oneOf": [True],
        "not": True,
        "patternProperties": {"a": True},
        "properties": {"a": True},
        "required": ["a"],
        "minProperties": 0,
        "maxProperties": 9,
        "propertyNames": True,
        "prefixItems": [True],
        "contains": True,
        "minContains": 2,
        "maxContains": 2,
        "minItems": 0,
        "maxItems": 9,
        "uniqueItems": True,
        "$ref": "#/$defs/d",
        "$anchor": "top",
        "additionalProperties": True,
        "items": True,
        "unevaluatedProperties": True,
        "unevaluatedItems": True,
        "$defs": {"d": True},
    }
    doc = parse_schema(schema)
    known = {kw.name for kw in doc.root.keywords}
    # every keyword has its dedicated, recognized variant: serialization
    # reproduces it and none would be treated as an inert unknown
    assert set(schema) - {"$defs"} == known
    from uneval.schema import LIST_VALUED, MAP_VALUED, SCHEMA_VALUED

    recognized = (
        set(SCHEMA_VALUED)
        | set(LIST_VALUED)
        | set(MAP_VALUED)
        | {
            "minimum", "maximum", "pattern", "const", "type", "required",
            "minProperties", "maxProperties", "minContains", "maxContains",
            "minItems", "maxItems", "uniqueItems", "$ref", "$anchor",
        }
    )
    assert known <= recognized


def test_unknown_keyword_preserved():
    doc = parse_schema({"customTag": [1, 2], "properties": {"a": True}})
    assert doc.root.get("customTag").value == [1, 2]
    assert schema_to_json(doc.root)["customTag"] == [1, 2]


@pytest.mark.parametrize(
    "schema",
    [
        {"anyOf": {}},
        {"pattern": 5},
        {"pattern": "("},
        {"type": "frob"},
        {"minProperties": -1},
        {"required": [1]},
        "not a schema",
        {"$ref": "https://example.com/schema#/x"},
        {"properties": {"a": {"$defs": {"x": True}}}},
        {"properties": {"a": {"$anchor": "nested"}}},
        {"$anchor": "a\n"},
        {"$defs": {"a": {"$anchor": "a"}}, "$ref": "#a\n"},
        {"$ref": "#"},
        {"exclusiveMinimum": 3},
        {"$dynamicRef": "#x"},
    ],
)
def test_parse_errors(schema):
    with pytest.raises(SchemaParseError):
        parse_schema(schema)


@pytest.mark.parametrize(
    "schema, path",
    [
        ({"properties": {"a": {"anyOf": [True, {"minimum": "x"}]}}}, "/properties/a/anyOf/1/minimum"),
        ({"$defs": {"x": {"patternProperties": {"(": True}}}}, "/$defs/x/patternProperties/("),
        ({"patternProperties": {"a": {"pattern": "["}}}, "/patternProperties/a/pattern"),
        ({"prefixItems": [True, {"contains": 3}]}, "/prefixItems/1/contains"),
        ({"items": {"not": {"type": "frob"}}}, "/items/not/type"),
        ({"allOf": [{"$anchor": "a"}]}, "/allOf/0/$anchor"),
        ({"properties": {"a": {"$defs": {}}}}, "/properties/a/$defs"),
        ({"$defs": {"x": 5}}, "/$defs/x"),
        ({"$defs": 5}, "/$defs"),
        ({"required": [1]}, "/required"),
        ("no", ""),
        ({"properties": {"a/b": {"minimum": "x"}}}, "/properties/a~1b/minimum"),
        ({"$defs": {"m~n": {"minimum": "x"}}}, "/$defs/m~0n/minimum"),
        ({"patternProperties": {"~/": {"type": "frob"}}}, "/patternProperties/~0~1/type"),
        ({"properties": {"~1": {"not": {"minimum": "x"}}}}, "/properties/~01/not/minimum"),
        ({"properties": {"a": {"$ref": 5}}}, "/properties/a/$ref"),
        ({"items": {"uniqueItems": 1}}, "/items/uniqueItems"),
        ({"not": {"properties": []}}, "/not/properties"),
        ({"allOf": [{"patternProperties": "a"}]}, "/allOf/0/patternProperties"),
        ({"$defs": {"a": {"$anchor": "x"}, "b": {"$anchor": "x"}}}, "/$defs"),
    ],
)
def test_parse_error_path(schema, path):
    """The error names the JSON pointer of the offending value."""
    with pytest.raises(SchemaParseError) as info:
        parse_schema(schema)
    assert info.value.path == path
    assert str(info.value).startswith(f"{path or '<root>'}: ")


#: Draft 2020-12 keywords outside the grammar, each with an argument that
#: would change a verdict or an annotation if it were read as inert.
UNIMPLEMENTED = {
    "$id": "https://example.com/s",
    "$dynamicRef": "#meta",
    "$dynamicAnchor": "meta",
    "dependentSchemas": {"a": {"required": ["b"]}},
    "exclusiveMinimum": 0,
    "exclusiveMaximum": 1,
    "enum": [1],
    "multipleOf": 2,
    "minLength": 3,
    "maxLength": 0,
    "dependentRequired": {"a": ["b"]},
    "if": {"properties": {"a": True}},
    "then": False,
    "else": False,
}


@pytest.mark.parametrize("name", sorted(UNIMPLEMENTED))
def test_unimplemented_keyword_is_rejected_where_it_stands(name):
    schema = {"properties": {"p": {name: UNIMPLEMENTED[name]}}, "unevaluatedProperties": False}
    with pytest.raises(SchemaParseError) as info:
        parse_schema(schema)
    assert info.value.path == f"/properties/p/{name}"
    assert "not supported" in info.value.message


def test_contains_normalization():
    doc = parse_schema({"contains": {"type": "string"}})
    assert [kw.name for kw in doc.root.keywords] == ["contains"]
    # an explicit default is dropped, so both spellings are one node
    explicit = parse_schema({"contains": {"type": "string"}, "minContains": 1})
    assert explicit.root.key == doc.root.key
    assert schema_to_json(doc.root) == {"contains": {"type": "string"}}
    assert schema_to_json(explicit.root) == {"contains": {"type": "string"}}
    # other bounds are kept
    bounded = parse_schema({"contains": True, "minContains": 0, "maxContains": 2})
    assert [(kw.name, kw.value) for kw in bounded.root.keywords] == [
        ("contains", TRUE_SCHEMA),
        ("minContains", 0),
        ("maxContains", 2),
    ]


def test_stray_min_contains_dropped():
    doc = parse_schema({"minContains": 2, "maxContains": 3})
    assert doc.root.keywords == ()
    assert parse_schema({"maxContains": 3}).root.keywords == ()


def test_an_explicit_min_contains_default_leaves_no_trace():
    """``minContains: 1`` beside ``contains`` is dropped: neither the
    node's key nor the text of its rewrite carries it."""
    doc = parse_schema({"contains": {"type": "integer"}, "minContains": 1, "unevaluatedItems": False})
    assert doc.root.key == '{"contains":{"type":"integer"},"unevaluatedItems":false}'
    text = serialize_json(serialize_schema(elim_document(doc)))
    assert text == '{"contains":{"type":"integer"},"items":{"type":"integer"}}'
    assert "minContains" not in doc.root.key + text


def test_deref_anchor_and_path():
    doc = parse_schema(SALE_CAR)
    sale = deref(doc, "#sale")
    assert sale is doc.defs["sale"]
    assert deref(doc, "#/$defs/car") is doc.defs["car"]
    with pytest.raises(RefResolutionError):
        deref(doc, "#nope")


def test_unresolved_reference_rejected_at_parse():
    with pytest.raises(RefResolutionError):
        parse_schema({"$ref": "#/$defs/missing"})


def test_anchor_defs_collision():
    with pytest.raises(SchemaParseError):
        parse_schema(
            {
                "$defs": {
                    "a": {"type": "string"},
                    "b": {"$anchor": "a", "type": "integer"},
                }
            }
        )
    # same name, same schema: fine
    doc = parse_schema({"$defs": {"a": {"$anchor": "a", "type": "string"}}})
    assert deref(doc, "#a") is doc.defs["a"]


def test_ref_pointer_escapes_are_decoded():
    """A definition name in a reference reads ``~1`` as ``/`` and ``~0`` as
    ``~`` (RFC 6901), and the verdicts equal ``jsonschema``'s."""
    import jsonschema

    from uneval.validator import validate

    for name, ref in (("a~b", "a~0b"), ("a/b", "a~1b"), ("~1", "~01")):
        schema = {"$defs": {name: {"type": "string"}}, "$ref": f"#/$defs/{ref}"}
        doc = parse_schema(schema)
        assert deref(doc, f"#/$defs/{ref}") is doc.defs[name]
        reference = jsonschema.Draft202012Validator(schema)
        for instance in (1, "x"):
            assert validate(doc, doc.root, instance).valid == reference.is_valid(instance)
        assert not validate(doc, doc.root, 1).valid
        assert validate(doc, doc.root, "x").valid
        assert serialize_schema(elim_document(doc)) == schema


def test_unguarded_cycle_starts_at_the_escaped_definition_name():
    doc = parse_schema({"$defs": {"a/b": {"anyOf": [{"$ref": "#/$defs/a~1b"}]}}})
    assert find_unguarded_cycle(doc)[0] == "#/$defs/a~1b"


def test_guarded_self_loop_through_anyof():
    doc = parse_schema({"$defs": {"r": {"anyOf": [{"$ref": "#/$defs/r"}]}}})
    assert find_unguarded_cycle(doc) is not None


def test_guarded_recursion_through_properties():
    doc = parse_schema(
        {"$defs": {"r": {"properties": {"x": {"$ref": "#/$defs/r"}}}}}
    )
    assert find_unguarded_cycle(doc) is None


def test_sale_car_guarded():
    assert find_unguarded_cycle(parse_schema(SALE_CAR)) is None


def test_boolean_one_of_shapes():
    s1 = parse_schema({"minimum": 1}).root
    s2 = parse_schema({"maximum": 2}).root
    one = boolean_one_of([s1])
    assert schema_to_json(one) == {"anyOf": [{"allOf": [{"minimum": 1}]}]}
    two = schema_to_json(boolean_one_of([s1, s2]))
    assert two == {
        "anyOf": [
            {"allOf": [{"minimum": 1}, {"not": {"maximum": 2}}]},
            {"allOf": [{"not": {"minimum": 1}}, {"maximum": 2}]},
        ]
    }
    assert schema_to_json(boolean_one_of([])) == {"anyOf": []}


def _part(text):
    """One part, parsed on its own: equal parts are separate nodes."""
    return parse_schema(parse_json(text)).root


S, I, N = '{"type":"string"}', '{"type":"integer"}', '{"type":"null"}'

#: (unit, parts as JSON texts, result): an int names the part returned
#: itself, ``"unit"`` the unit, anything else the JSON of a fresh node.
COMBINE = [
    # conjunction
    (True, [], "unit"),
    (True, ["true", "{}"], "unit"),
    (True, [S, "{}", "true"], 0),
    (True, ['{"allOf":[{"type":"string"},{}]}', "true"], {"type": "string"}),
    (True, ['{"allOf":[{"type":"string"},{"allOf":[{"type":"integer"},true]}]}', N, S],
     {"allOf": [{"type": "string"}, {"allOf": [{"type": "integer"}, True]}, {"type": "null"}]}),
    (True, [S, "false", I], 1),
    (True, ['{"allOf":[{"type":"string"},false]}', I], False),
    (True, ['{"anyOf":[{"type":"string"},{"type":"integer"}]}', N],
     {"allOf": [{"anyOf": [{"type": "string"}, {"type": "integer"}]}, {"type": "null"}]}),
    (True, ['{"const":1}', '{"const":1.0}'], 0),
    (True, ['{"const":1}', '{"const":true}'], {"allOf": [{"const": 1}, {"const": True}]}),
    (True, ['{"allOf":[{"type":"string"}],"minimum":0}', N],
     {"allOf": [{"allOf": [{"type": "string"}], "minimum": 0}, {"type": "null"}]}),
    # disjunction
    (False, [], "unit"),
    (False, ["false", "false"], "unit"),
    (False, [S, "false"], 0),
    (False, ['{"anyOf":[{"type":"string"},false]}', I], {"anyOf": [{"type": "string"}, {"type": "integer"}]}),
    (False, [S, "true", I], 1),
    (False, [S, "{}", I], 1),
    (False, ['{"anyOf":[{"type":"string"},{}]}', I], {}),
    (False, ['{"allOf":[{"type":"string"},{"type":"integer"}]}', N],
     {"anyOf": [{"allOf": [{"type": "string"}, {"type": "integer"}]}, {"type": "null"}]}),
    (False, ['{"const":1}', '{"const":1.0}', S], {"anyOf": [{"const": 1}, {"type": "string"}]}),
    (False, ['{"anyOf":[{"type":"string"}],"minimum":0}', N],
     {"anyOf": [{"anyOf": [{"type": "string"}], "minimum": 0}, {"type": "null"}]}),
]


@pytest.mark.parametrize("unit, texts, expected", COMBINE)
def test_combine(unit, texts, expected):
    parts = [_part(text) for text in texts]
    unit = TRUE_SCHEMA if unit else FALSE_SCHEMA
    got = combine(parts, unit)
    if expected == "unit":
        assert got is unit
    elif isinstance(expected, int) and not isinstance(expected, bool):
        assert got is parts[expected]
    else:
        assert schema_to_json(got) == expected


@pytest.mark.parametrize("unit", [TRUE_SCHEMA, FALSE_SCHEMA])
def test_combine_computes_no_key_for_a_boolean_or_a_lone_part(unit):
    other = FALSE_SCHEMA if unit.value else TRUE_SCHEMA
    a, b = _part(S), _part(I)
    assert combine((unit, a, unit), unit) is a
    assert combine((a, other, b), unit) is other
    assert not hasattr(a, "_key") and not hasattr(b, "_key")


def test_serialize_bool_and_empty():
    assert serialize_schema(parse_schema(False)) is False
    assert serialize_schema(parse_schema({})) == {}


def test_roundtrip_sale_car():
    doc = parse_schema(SALE_CAR)
    again = parse_schema(serialize_schema(doc))
    assert serialize_schema(again) == serialize_schema(doc)


def test_a_rewrite_keeps_the_form_its_check_built():
    """The rewrite's check builds its JSON form and keeps it.  Each call
    returns an equal value with a root of its own, so changing one
    call's root leaves the next call's value as it was."""
    out = elim_document(parse_schema(SALE_CAR))
    assert out.json_form is not None
    first, second = serialize_schema(out), serialize_schema(out)
    assert first == second and first is not second
    kept = serialize_json(second)
    first["x"] = 1
    del first["$defs"]
    assert serialize_json(serialize_schema(out)) == serialize_json(second) == kept


def test_a_plain_form_is_written_without_a_scan(monkeypatch):
    """The walk that builds a form answers whether it is plain, for a
    rewrite and for an original alike: its root is a ``PlainDict``, and
    ``serialize_json`` writes it without ``is_plain``."""
    doc = parse_schema(SALE_CAR)
    forms = [serialize_schema(doc), serialize_schema(elim_document(doc))]
    texts = [_canonical(form) for form in forms]
    monkeypatch.setattr(jsonvalue, "is_plain", None)  # a call would raise
    for form, text in zip(forms, texts):
        assert type(form) is PlainDict
        assert serialize_json(form) == text


@pytest.mark.parametrize(
    "doc, text, rewrite_text",
    [
        (
            parse_schema(parse_json('{"const": 1.50, "unevaluatedProperties": false}')),
            '{"const":1.5,"unevaluatedProperties":false}',
            '{"additionalProperties":false,"const":1.5}',
        ),
        # the Decimal stands only in a definition
        (
            parse_schema(parse_json(
                '{"$defs": {"d": {"const": [2.50]}}, "$ref": "#/$defs/d", "unevaluatedProperties": false}'
            )),
            '{"$defs":{"d":{"const":[2.5]}},"$ref":"#/$defs/d","unevaluatedProperties":false}',
            '{"$defs":{"d":{"const":[2.5]}},"allOf":[{"$ref":"#/$defs/d"},{"additionalProperties":false}]}',
        ),
        (
            build_document(make_obj(Keyword("minimum", 1.0), Keyword("unevaluatedItems", FALSE_SCHEMA)), {}),
            '{"minimum":1,"unevaluatedItems":false}',
            '{"items":false,"minimum":1}',
        ),
    ],
)
def test_a_form_with_a_decimal_or_a_float_is_written_as_canonical(doc, text, rewrite_text):
    """A Decimal parsed from text or a hand-built float makes a form not
    plain, in the original and in its rewrite: its root is a ``dict`` and
    the text is the canonical writer's."""
    for d, expected in ((doc, text), (elim_document(doc), rewrite_text)):
        form = serialize_schema(d)
        assert type(form) is dict
        assert serialize_json(form) == expected


def test_roundtrip_corpus_idempotent(rewrites):
    """Originals and rewrites re-parse to the same text, compact and
    pretty, although parsing shares their equal subtrees."""
    docs = [parse_schema(fixture.schema_json) for fixture in load_corpus()]
    for doc in docs + rewrites.corpus:
        emitted = serialize_schema(doc)
        text, pretty = serialize_json(emitted), dump_json(emitted)
        again = parse_schema(parse_json(text))
        assert serialize_schema(again) == emitted
        assert serialize_json(serialize_schema(again)) == text
        assert dump_json(serialize_schema(parse_schema(parse_json(pretty)))) == pretty


def _originals_and_rewrites(rewrites):
    """Corpus originals and rewrites, sn/san n = 2..8 and their rewrites,
    and randgen schemas with their rewrites where they have one.  The
    originals are made here, so that no rewrite has cached their keys."""
    for fixture in load_corpus():
        yield parse_schema(fixture.schema_json)
    yield from rewrites.corpus
    for n in range(2, 8):
        yield gen_family_sn(n)
        yield gen_family_san(n)
        yield from rewrites.family[n]
    # n = 8 is rewritten here rather than in the shared fixture, which
    # other tests loop over
    for gen in (gen_family_sn, gen_family_san):
        doc = gen(8)
        yield doc
        yield elim_document(doc)
    # built by hand: maps out of name order and a repeated keyword name
    yield SchemaDocument(
        ObjSchema(
            (
                Keyword("properties", {"b": BoolSchema(True), "a": ObjSchema(())}),
                Keyword("const", {"z": [1, None], "a": "é"}),
                Keyword("const", 2),
            )
        )
    )
    rng = random.Random(611)
    for _ in range(300):
        try:
            doc = parse_schema(gen_schema(rng, rng.randrange(1, 4)))
        except SchemaParseError:
            continue
        yield doc
        try:
            yield elim_document(doc)
        except UnevalError:
            pass


def _mirrored_first_met(s, first_met: dict) -> None:
    """Pre-order over first occurrences, a node's children last to first."""
    if id(s) in first_met:
        return
    first_met[id(s)] = None
    for _, child in reversed(list(child_schemas(s))):
        _mirrored_first_met(child, first_met)


def test_keys_and_distinct_nodes_over_originals_and_rewrites(rewrites):
    """The key composed from children's keys agrees with the serializer, and
    distinct_nodes lists each node once, in its documented order."""
    checked = 0
    for doc in _originals_and_rewrites(rewrites):
        tops = [top for _, top in doc.named_schemas()]
        nodes = distinct_nodes(tops)
        first_met: dict[int, None] = {}
        for top in tops:
            _mirrored_first_met(top, first_met)
        assert [id(s) for s in nodes] == list(first_met)
        # pre-order keys holders before their children, so most keys are
        # composed while the children's are not yet cached
        for s in nodes:
            assert s.key == serialize_json(schema_to_json(s))
            checked += 1
    assert checked > 5_000


def _reversed_keys(v):
    """``v`` with the names of every object in reverse order."""
    if isinstance(v, dict):
        return {k: _reversed_keys(v[k]) for k in reversed(v)}
    if isinstance(v, list):
        return [_reversed_keys(x) for x in v]
    return v


def _twice(doc_json):
    """A document whose root holds the root of ``doc_json`` twice, the
    second time with its keywords and names in reverse order."""
    top = {k: v for k, v in doc_json.items() if k in ("$defs", "$anchor")}
    inner = {k: v for k, v in doc_json.items() if k not in top}
    return {**top, "properties": {"a": inner, "b": _reversed_keys(inner)}}


def test_parse_shares_equal_inner_subtrees(rewrites):
    """In a re-parsed rewrite (or original), inner nodes with equal keys
    are one object, whatever the order of their keywords and whether or
    not a $ref lies below them; a named top occurs once.  A re-parsed
    family rewrite has as many distinct nodes as the rewrite in memory."""
    docs = []
    for d in rewrites.corpus:
        emitted = serialize_schema(d)
        docs += [parse_schema(parse_json(write(emitted))) for write in (serialize_json, dump_json)]
        if isinstance(emitted, dict):
            docs.append(parse_schema(_twice(emitted)))
    docs += [parse_schema(parse_json((f.path / "schema.json").read_bytes())) for f in load_corpus()]
    shared = 0
    for doc in docs:
        tops = [top for _, top in doc.named_schemas()]
        occurrences: dict[int, int] = {}
        for top in tops:
            for s in walk(top):
                occurrences[id(s)] = occurrences.get(id(s), 0) + 1
        by_key: dict[str, int] = {}
        for s in distinct_nodes(tops):
            if isinstance(s, BoolSchema):
                assert s is (TRUE_SCHEMA if s.value else FALSE_SCHEMA)
            elif any(s is top for top in tops):
                assert occurrences[id(s)] == 1
            else:
                assert by_key.setdefault(s.key, id(s)) == id(s)
                shared += occurrences[id(s)] > 1
    assert shared > 50
    # san's atoms carry $refs; its text parses back to the rewrite's nodes
    counts = {}
    for n, pair in rewrites.family.items():
        for kind, rewrite in zip(("sn", "san"), pair):
            again = parse_schema(parse_json(serialize_json(serialize_schema(rewrite))))
            counts[kind, n] = [
                len(distinct_nodes([top for _, top in doc.named_schemas()]))
                for doc in (rewrite, again)
            ]
            assert counts[kind, n][0] == counts[kind, n][1], (kind, n)
    assert counts["san", 6] == [197, 197]


def test_named_tops_are_not_shared_and_ref_carrying_nodes_are():
    doc = parse_schema(
        {
            "properties": {
                "x": {"type": "string"},
                "y": {"not": {"$ref": "#/$defs/a"}},
                "z": {"not": {"$ref": "#/$defs/a"}},
                "w": {"type": "string"},
            },
            "$defs": {"a": {"type": "string"}, "b": {"type": "string"}},
        }
    )
    props = doc.root.get("properties").value
    assert props["x"] is props["w"]
    assert props["y"] is props["z"]
    assert doc.defs["a"] is not doc.defs["b"]
    assert props["x"] is not doc.defs["a"] and props["x"] is not doc.defs["b"]


def test_parse_keeps_json_types_of_arguments_apart():
    doc = parse_schema(
        parse_json(
            '{"anyOf": [{"const": 1}, {"const": 1.0}, {"const": true}, {"const": "1"},'
            ' {"const": [1]}, {"const": [true]}, {"const": {"a": null}}, {"const": {"a": false}},'
            ' {"const": 1}, {"const": [1]}, {"const": {"a": null}},'
            ' {"type": "string", "minimum": 1}, {"minimum": 1, "type": "string"}]}'
        )
    )
    branches = doc.root.get("anyOf").value
    # 1 and 1.0 are one number, as [1] and [1.0] are one array
    assert branches[1] is branches[0]
    assert len({id(s) for s in branches[:8]}) == 7
    assert branches[8] is branches[0]
    assert branches[9] is branches[4]
    assert branches[10] is branches[6]
    # the key sorts keywords by name, so keyword order makes no second node
    assert branches[12] is branches[11]


def test_pattern_cache_is_bounded_and_keeps_no_error():
    for i in range(1100):
        compile_pattern(f"^p{i}$")
    info = compile_pattern.cache_info()
    assert info.currsize <= info.maxsize == 1024
    for _ in range(2):
        with pytest.raises(SchemaParseError, match="invalid regular expression"):
            parse_schema({"patternProperties": {"(": True}})


def test_pattern_error_names_the_position_in_the_source():
    """``$`` is compiled as ``\\Z``, but an error names its position in
    the pattern as written."""
    for pattern, position in (("a$*", 2), ("$$[", 2), ("$)", 1)):
        with pytest.raises(SchemaParseError, match=f"at position {position}$"):
            parse_schema({"pattern": pattern})


#: Pattern characters for the classifier's differential tests: the
#: metacharacters a literal must escape, an escape, a newline, characters
#: that stand for themselves and a non-ASCII letter.
PATTERN_ALPHABET = "\\\n$^-.[(|{ éa"
#: Names that tell apart a literal, its anchors and a final newline.
PROBE_NAMES = ("", "a", "a\n", "\na", "\n", "aa", "é", "$", "^", "\\", "-", " ")


def _literal_test(kind: str, text: str, name: str) -> bool:
    """The verdict of a literal kind, as string operations."""
    if kind == EXACT:
        return name == text
    if kind == PREFIX:
        return name.startswith(text)
    return text in name


def _check_pattern_kind(source: str, extra_names=()) -> bool:
    """``pattern_kind``'s string test agrees with the compiled pattern on
    the probe names, the literal itself and the literal with text added
    before and after; False when the source does not compile."""
    try:
        with warnings.catch_warnings():  # such as "possible nested set" at "[["
            warnings.simplefilter("ignore", FutureWarning)
            search = compile_pattern(source).search
    except re.error:
        return False
    kind, text = pattern_kind(source)
    if kind == REGEX:
        assert text == source
        return True
    names = {*PROBE_NAMES, *extra_names}
    for before, after in itertools.product(("", "a", "\n", "$"), repeat=2):
        names.add(before + text + after)
    names.update((text[1:], text[:-1]))
    for name in names:
        assert _literal_test(kind, text, name) is (search(name) is not None), (source, name)
    return True


def test_pattern_kinds_agree_with_the_regex_on_every_short_source():
    compiled = literal = 0
    for n in range(4):
        for chars in itertools.product(PATTERN_ALPHABET, repeat=n):
            source = "".join(chars)
            if _check_pattern_kind(source):
                compiled += 1
                literal += pattern_kind(source)[0] != REGEX
    assert compiled > 1000 and literal > 300


@given(st.text(alphabet=PATTERN_ALPHABET, max_size=10), st.lists(st.text(alphabet=PATTERN_ALPHABET, max_size=4)))
@settings(max_examples=300, deadline=None)
def test_pattern_kinds_agree_with_the_regex(source, names):
    _check_pattern_kind(source, names)


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_escaped_names_are_literal_patterns(name):
    """What ``re.escape`` writes, and so every pattern the rewrite writes
    for an evaluated name (``analysis.exact_pattern``), is a literal."""
    escaped = re.escape(name)
    assert pattern_kind("^" + escaped + "$") == (EXACT, name)
    assert pattern_kind("^" + escaped) == (PREFIX, name)
    assert pattern_kind(escaped) == (SUBSTRING, name)
    for source in ("^" + escaped + "$", "^" + escaped, escaped):
        _check_pattern_kind(source)


@pytest.mark.parametrize(
    "source, kind, text",
    [
        ("^a$", EXACT, "a"),
        ("^$", EXACT, ""),
        ("^a\\\\$", EXACT, "a\\"),
        ("^a\\-b$", EXACT, "a-b"),
        ("^x\\\n$", EXACT, "x\n"),
        ("^a\\$", PREFIX, "a$"),
        ("^", PREFIX, ""),
        ("^ab", PREFIX, "ab"),
        ("", SUBSTRING, ""),
        ("a b", SUBSTRING, "a b"),
        ("\\^a", SUBSTRING, "^a"),
        ("a$", REGEX, "a$"),
        ("^^a", REGEX, "^^a"),
        ("^a.b$", REGEX, "^a.b$"),
        ("^a\\d$", REGEX, "^a\\d$"),
        ("a{2}", REGEX, "a{2}"),
        ("a}", REGEX, "a}"),
    ],
)
def test_pattern_kind_examples(source, kind, text):
    assert pattern_kind(source) == (kind, text)
    assert _check_pattern_kind(source)


def test_keywords_stay_in_rank_order(rewrites):
    """Parsed nodes and every node a rewrite builds keep their keywords in
    rank order, so an unevaluated* keyword, if any, is the last one; the
    validator's compiler looks only there."""
    checked = 0
    for doc in _originals_and_rewrites(rewrites):
        for s in distinct_nodes([top for _, top in doc.named_schemas()]):
            if isinstance(s, ObjSchema):
                ranks = [keyword_rank(kw.name) for kw in s.keywords]
                assert ranks == sorted(ranks)
                checked += ranks[-1:] == [2]
    assert checked > 50


def test_unresolved_reference_in_root_is_reported_first():
    doc = {"$ref": "#/$defs/nowhere", "$defs": {"a": {"$ref": "#/$defs/elsewhere"}}}
    with pytest.raises(RefResolutionError, match="nowhere"):
        parse_schema(doc)


def test_unresolved_references_within_one_schema_in_parse_order():
    # keywords in source order, map entries by name
    doc = {"anyOf": [{"$ref": "#/$defs/second"}, {"$ref": "#/$defs/first"}]}
    with pytest.raises(RefResolutionError, match="second"):
        parse_schema(doc)
    doc = {"properties": {"z": {"$ref": "#/$defs/z"}, "a": {"$ref": "#/$defs/a"}}}
    with pytest.raises(RefResolutionError, match="'#/\\$defs/a'"):
        parse_schema(doc)
    doc = {"$defs": {"b": {"$ref": "#b_target"}, "a": {"not": {"$ref": "#a_target"}}}}
    with pytest.raises(RefResolutionError, match="a_target"):
        parse_schema(doc)


def _named_order_cycle(doc):
    """Reference for find_unguarded_cycle: a recursive depth-first search
    from each named schema in turn, colours shared."""
    color = {}

    def path(s, trail):
        state = color.get(id(s))
        if state == "grey":
            return trail
        if state == "black":
            return None
        color[id(s)] = "grey"
        for label, nxt in _inplace_edges(doc, s):
            found = path(nxt, trail + [label])
            if found is not None:
                return found
        color[id(s)] = "black"
        return None

    for name, top in doc.named_schemas():
        segment = name.replace("~", "~0").replace("/", "~1")
        found = path(top, ["#/$defs/" + segment if name else "#"])
        if found is not None:
            return found
    return None


#: The root reaches the cycle through ``b`` only below ``properties``, a
#: guarded place, so the root's search finds none; the first cycle found
#: is the definition ``a``'s.
COLOURED_PARENT = {
    "anyOf": [{"properties": {"p": {"$ref": "#/$defs/b"}}}],
    "$defs": {
        "a": {"anyOf": [{"$ref": "#/$defs/a"}]},
        "b": {"allOf": [True, {"not": {"$ref": "#/$defs/b"}}]},
    },
}


#: The root and the definition ``a`` hold one equal inner node, which the
#: parser shares, so the root's search meets it again through ``b`` and
#: ``a``, and the cycle closes there rather than at a named schema.
_SHARED_REF_NODE = {"allOf": [{"$ref": "#/$defs/b"}]}
SHARED_INNER_CYCLE = {
    "anyOf": [_SHARED_REF_NODE],
    "$defs": {
        "a": {"anyOf": [_SHARED_REF_NODE, {"type": "string"}]},
        "b": {"allOf": [{"$ref": "#/$defs/a"}]},
    },
}
SHARED_INNER_CYCLE_REPORT = [
    "#", "anyOf[0]", "allOf[0]", "$ref:#/$defs/b", "allOf[0]", "$ref:#/$defs/a", "anyOf[0]"
]


def _random_ref_document(rng):
    """Definitions that reference each other at in-place and at guarded
    places, around randgen subschemas; cyclic or not."""
    names = [f"d{i}" for i in range(rng.randrange(1, 5))]

    def ref():
        return {"$ref": "#/$defs/" + rng.choice(names)}

    def part(depth):
        roll = rng.randrange(7)
        if depth == 0 or roll == 0:
            return gen_schema(rng, 1, allow_uneval=False)
        if roll == 1:
            return ref()
        if roll == 2:
            return {"anyOf": [part(depth - 1) for _ in range(rng.randrange(1, 3))]}
        if roll == 3:
            return {"not": part(depth - 1)}
        if roll == 4:
            return {"properties": {"a": part(depth - 1), "b": part(depth - 1)}}
        if roll == 5:
            return {"items": part(depth - 1), "allOf": [part(depth - 1)]}
        return {"oneOf": [part(depth - 1), part(depth - 1)]}

    return {"allOf": [part(3)], "$defs": {name: part(3) for name in names}}


def _guard_search_documents():
    docs = [parse_schema(COLOURED_PARENT), parse_schema(SHARED_INNER_CYCLE)]
    docs += [parse_schema(f.schema_json) for f in load_corpus()]
    rng = random.Random(41)
    docs += [parse_schema(_random_ref_document(rng)) for _ in range(400)]
    return docs


def test_find_unguarded_cycle_follows_named_schema_order():
    docs = _guard_search_documents()
    cyclic = 0
    for doc in docs:
        expected = _named_order_cycle(doc)
        assert find_unguarded_cycle(doc) == expected
        cyclic += expected is not None
    assert 50 < cyclic < len(docs) - 50
    assert find_unguarded_cycle(docs[0]) == ["#/$defs/a", "anyOf[0]", "$ref:#/$defs/a"]
    assert find_unguarded_cycle(docs[1]) == SHARED_INNER_CYCLE_REPORT


def test_every_reported_cycle_is_a_path_from_its_start():
    """Following the labels from the named start meets no node twice until
    the last label, which leads back to a node on the path."""
    cyclic = 0
    for doc in _guard_search_documents():
        cycle = find_unguarded_cycle(doc)
        if cycle is None:
            continue
        cyclic += 1
        start, *labels = cycle
        node = doc.root if start == "#" else deref(doc, start)
        on_path = [id(node)]
        for label in labels:
            node = dict(_inplace_edges(doc, node))[label]
            assert (id(node) in on_path) == (len(on_path) == len(labels)), cycle
            on_path.append(id(node))
    assert cyclic > 50


def test_find_unguarded_cycle_returns_a_list_of_its_own():
    doc = parse_schema(COLOURED_PARENT)
    first = find_unguarded_cycle(doc)
    expected = list(first)
    first.append("mutated")
    first[0] = "mutated"
    second = find_unguarded_cycle(doc)
    assert second == expected and second is not first


def test_find_unguarded_cycle_follows_a_long_reference_chain():
    n = 1000
    defs = {f"d{i}": {"anyOf": [{"$ref": f"#/$defs/d{i + 1}"}]} for i in range(n - 1)}
    defs[f"d{n - 1}"] = {"properties": {"x": {"$ref": "#/$defs/d0"}}}
    assert find_unguarded_cycle(parse_schema({"$defs": defs})) is None
    defs[f"d{n - 1}"] = {"not": {"$ref": "#/$defs/d0"}}
    expected = ["#/$defs/d0"]
    for i in range(1, n):
        expected += ["anyOf[0]", f"$ref:#/$defs/d{i}"]
    expected += ["not", "$ref:#/$defs/d0"]
    assert find_unguarded_cycle(parse_schema({"$defs": defs})) == expected


def test_schema_nested_too_deeply_to_parse_is_a_clean_error():
    def chain(depth):
        return parse_json('{"items":' * depth + "true" + "}" * depth)

    with pytest.raises(NestingDepthError, match="nests too deeply to parse"):
        parse_schema(chain(600))
    assert schema_to_json(parse_schema(chain(50)).root) == chain(50)
