import copy
import itertools
import json
import pickle
import random
import re
import weakref
from collections import OrderedDict

import pytest

from uneval.eliminate import elim_document
from uneval.jsonvalue import json_class, json_equal, parse_json
from uneval.schema import (
    _KEYWORD_PARSERS,
    CONSTRAINS,
    EXACT,
    PREFIX,
    REGEX,
    SUBSTRING,
    UNSUPPORTED_NAMES,
    Keyword,
    ObjSchema,
    build_document,
    distinct_nodes,
    not_,
    parse_schema,
    serialize_schema,
)
from uneval.validator import (
    ANNOT,
    BOOL,
    EMPTY_ANNOTATION,
    validate,
    validate_keyword_list,
)

from test_schema import SALE_CAR
from walking import document_schemas


def outcome(schema_json, instance):
    doc = parse_schema(schema_json)
    return validate(doc, doc.root, instance)


def test_true_schema_accepts_anything():
    for instance in (None, 0, "x", [], {}, {"a": [1]}):
        o = outcome(True, instance)
        assert o.valid and o.annotation == EMPTY_ANNOTATION


def test_false_schema_rejects_everything():
    assert not outcome(False, {}).valid


def test_sale_car_accepts_combined_instance():
    o = outcome(SALE_CAR, {"price": 100, "plate": "x111"})
    assert o.valid
    assert o.annotation.props == {"price", "plate"}


def test_naive_distribution_rejects_combined_instance():
    naive = {
        "anyOf": [
            {"$ref": "#sale", "unevaluatedProperties": False},
            {"$ref": "#car", "unevaluatedProperties": False},
        ],
        "$defs": SALE_CAR["$defs"],
    }
    assert not outcome(naive, {"price": 100, "plate": "x111"}).valid


def test_failed_inner_schema_produces_no_annotation():
    schema = {
        "not": {"properties": {"name": {"type": "string"}}, "minProperties": 2}
    }
    o = outcome(schema, {"name": "P"})
    assert o.valid
    assert o.annotation == EMPTY_ANNOTATION


def test_keyword_list_empty():
    doc = parse_schema({})
    ok, ann = validate_keyword_list(doc, (), {"a": 1})
    assert ok and ann == EMPTY_ANNOTATION


def test_keyword_list_fold_union():
    doc = parse_schema({"required": ["a"], "properties": {"a": True}})
    ok, ann = validate_keyword_list(doc, doc.root.keywords, {"a": 1})
    assert ok
    assert ann.props == {"a"}


def test_failing_keyword_list_still_carries_annotation():
    doc = parse_schema({"properties": {"a": False}})
    ok, ann = validate_keyword_list(doc, doc.root.keywords, {"a": 1})
    assert not ok
    assert ann.props == {"a"}
    # but the schema-level outcome erases it
    o = validate(doc, doc.root, {"a": 1})
    assert not o.valid and o.annotation == EMPTY_ANNOTATION


def test_typed_keyword_trivially_satisfied():
    doc = parse_schema({"required": ["a1", "a2"]})
    ok, ann = validate_keyword_list(doc, (doc.root.keywords[0],), "a string")
    assert ok and ann == EMPTY_ANNOTATION


#: Sample instances of each JSON type.
TYPE_SAMPLES = {
    "null": [None],
    "boolean": [True, False],
    "number": [0, 1.5, -3],
    "string": ["", "x"],
    "array": [[], [1, 1], ["x"]],
    "object": [{}, {"a": 1}],
}

#: An argument of each type-specific keyword that rejects some sample of
#: its own type.
RESTRICTIVE = {
    "minimum": 100,
    "maximum": -100,
    "pattern": "^zz$",
    "properties": {"a": False},
    "patternProperties": {"a": False},
    "additionalProperties": False,
    "required": ["zz"],
    "propertyNames": False,
    "minProperties": 5,
    "maxProperties": 0,
    "unevaluatedProperties": False,
    "prefixItems": [False],
    "items": False,
    "contains": False,
    "minItems": 5,
    "maxItems": 0,
    "uniqueItems": True,
    "unevaluatedItems": False,
}

#: The keywords the parser accepts that have no type of their own: they
#: check every type, or nothing by themselves.
UNTYPED = (
    "anyOf", "allOf", "oneOf", "not", "$ref", "$defs", "$anchor", "type", "const",
    "minContains", "maxContains",
)


def test_every_accepted_keyword_is_typed_or_untyped():
    """``schema.CONSTRAINS`` names every type-specific keyword the parser
    accepts: each accepted keyword is in it or in ``UNTYPED``, not both."""
    accepted = set(_KEYWORD_PARSERS) - set(UNSUPPORTED_NAMES) | {"const"}
    assert set(CONSTRAINS) == accepted - set(UNTYPED)
    assert set(UNTYPED) <= accepted
    assert set(RESTRICTIVE) == set(CONSTRAINS)


@pytest.mark.parametrize("keyword", sorted(CONSTRAINS))
def test_a_typed_keyword_constrains_its_own_type_only(keyword):
    """A keyword passes every instance of the other JSON types, and with
    a restrictive argument rejects some instance of the type it names."""
    doc = parse_schema({keyword: RESTRICTIVE[keyword]})
    own = CONSTRAINS[keyword]
    for type_, samples in TYPE_SAMPLES.items():
        verdicts = [validate(doc, doc.root, x).valid for x in samples]
        if type_ == own:
            assert not all(verdicts), type_
        else:
            assert all(verdicts), type_


@pytest.mark.parametrize(
    "text, valid", [("1.0", True), ("1e2", True), ("-0.0", True), ("1.5", False), ("2.50", False)]
)
def test_integer_type_accepts_integral_decimals_and_floats(text, valid):
    doc = parse_schema({"type": "integer"})
    assert validate(doc, doc.root, parse_json(text)).valid is valid
    if text in ("1.0", "1.5"):
        assert validate(doc, doc.root, float(text)).valid is valid
    # the reference reads the text as Python's json module does: a float
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.Draft202012Validator({"type": "integer"}).is_valid(json.loads(text)) is valid


AT_MOST_ONE_1 = {"contains": {"const": 1}, "minContains": 0, "maxContains": 1}


@pytest.mark.parametrize(
    "instance, valid, evaluated",
    [([], True, set()), ([1], True, {0}), ([2, 2], True, set()), ([1, 1], False, None)],
)
def test_min_contains_zero_still_bounds_the_matches(instance, valid, evaluated):
    """``minContains: 0`` drops only the lower bound: ``maxContains`` still
    holds, in bool mode, in annotation mode and beside ``unevaluatedItems``."""
    o = outcome(AT_MOST_ONE_1, instance)
    assert o.valid is valid
    if valid:
        assert o.annotation.items == evaluated
    closed = {**AT_MOST_ONE_1, "unevaluatedItems": False}
    closed_valid = valid and evaluated == set(range(len(instance)))
    assert outcome(closed, instance).valid is closed_valid
    assert outcome({"allOf": [closed]}, instance).valid is closed_valid
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.Draft202012Validator(AT_MOST_ONE_1).is_valid(instance) is valid
    assert jsonschema.Draft202012Validator(closed).is_valid(instance) is closed_valid


class _Dict(dict):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


def _disguised(value, dict_class):
    """``value`` with its objects, integers and strings of other classes."""
    if isinstance(value, dict):
        return dict_class((_Str(k), _disguised(v, dict_class)) for k, v in value.items())
    if isinstance(value, list):
        return [_disguised(v, dict_class) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return _Int(value)
    return _Str(value) if isinstance(value, str) else value


NON_EXACT_SCHEMAS = [
    {"type": "object", "properties": {"a": {"type": "integer", "minimum": 1}}},
    {"properties": {"a": {"minimum": 1}, "b": {"type": "string", "const": "x"}}},
    {"type": "integer", "minimum": 2},
    {"minimum": 2},
    {"type": "string", "const": "x"},
    {"const": {"a": 1}},
    {"type": "array", "prefixItems": [{"type": "object"}], "items": {"type": "integer"}},
    {"properties": {"a": {"const": 1}}, "unevaluatedProperties": {"type": "string"}},
    {"anyOf": [{"type": "integer"}, {"properties": {"a": True}}], "unevaluatedProperties": False},
]
NON_EXACT_INSTANCES = [
    {"a": 1}, {"a": 0}, {"a": 1, "b": "x"}, {"b": "y"}, {"a": 1, "c": "z"}, {"c": 2},
    2, 1, "x", "y", [{"a": 1}, 3], [{"a": 1}, "x"], [1],
]


@pytest.mark.parametrize("dict_class", [OrderedDict, _Dict])
def test_values_of_other_classes_are_judged_by_their_json_class(monkeypatch, dict_class):
    """An ``OrderedDict``, a ``dict``, ``int`` or ``str`` subclass is judged
    and annotated as the exact value it equals, in both modes."""
    from uneval import validator

    seen = []
    monkeypatch.setattr(validator, "json_class", lambda x: seen.append(x) or json_class(x))
    verdicts = set()
    for schema_json in NON_EXACT_SCHEMAS:
        for instance in NON_EXACT_INSTANCES:
            expected = outcome(schema_json, instance)
            got = outcome(schema_json, _disguised(instance, dict_class))
            assert got.valid is expected.valid, (schema_json, instance)
            assert got.annotation == expected.annotation, (schema_json, instance)
            verdicts.add(expected.valid)
    assert verdicts == {True, False}
    assert {type(x) for x in seen} == {dict_class, _Int, _Str}


#: Schemas whose root check dispatches on the instance's class, and the
#: name of the dispatch closure: it answers the classes outside its table
#: with a constant; a node with a check for every class has every class in
#: its table.
DISPATCH_SCHEMAS = [
    # one class; False for the others
    ({"type": "object", "properties": {"a": {"minimum": 1}}, "required": ["a"]}, "one_type_or"),
    # one class; True for the others
    ({"properties": {"a": {"minimum": 1}}, "required": ["a"]}, "one_type_or"),
    # one class; a check for the others
    ({"required": ["a"], "not": {"const": 5}}, "by_type_or"),
    # several classes; False for the others
    ({"type": "integer", "minimum": 2}, "by_type_or"),
    ({"type": "number"}, "by_type_or"),
    # several classes; True for the others
    ({"minimum": 2, "pattern": "^x"}, "by_type_or"),
    # several classes; a check for the others
    ({"minimum": 2, "pattern": "^x", "not": {"const": 5}}, "by_type_or"),
]
DISPATCH_INSTANCES = [
    OrderedDict(a=1), OrderedDict(a=0), OrderedDict(b=1), _Dict(a=2),
    _Int(3), _Int(1), _Int(5), _Str("x"), _Str("y"),
    True, False, None, 3, 5, 1, 1.0, 2.0, 2.5, 3.0, "x", "y", [1], {"a": 2}, {},
]


@pytest.mark.parametrize("schema_json, check_name", DISPATCH_SCHEMAS)
def test_each_dispatch_judges_every_class(schema_json, check_name):
    """A node's check answers an exact value of a class outside its table
    by its default, a ``bool`` against ``integer``/``number`` among them,
    and looks up a value of another Python class by its JSON class: in
    bool mode, in annotation mode and as ``jsonschema`` does."""
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(schema_json)
    doc = parse_schema(schema_json)
    verdicts = set()
    for instance in DISPATCH_INSTANCES:
        exact = json.loads(json.dumps(instance))
        expected = outcome(schema_json, exact)
        got = validate(doc, doc.root, instance)
        assert got.valid is expected.valid is reference.is_valid(instance), (schema_json, instance)
        assert got.annotation == expected.annotation, (schema_json, instance)
        verdicts.add(got.valid)
    assert verdicts == {True, False}
    assert doc.compiled[id(doc.root)][BOOL].__name__ == check_name


def test_every_failing_validation_shares_one_outcome():
    """A failing verdict is one shared outcome with an empty annotation;
    it cannot be changed, and a passing verdict gets an outcome of its
    own."""
    doc = parse_schema({"properties": {"a": {"type": "integer"}}, "unevaluatedProperties": False})
    failed = validate(doc, doc.root, {"a": "x"})
    assert failed is validate(doc, doc.root, {"b": 1}) is outcome(False, 3)
    assert failed.valid is False
    assert failed.annotation is EMPTY_ANNOTATION
    assert failed.to_json() == {"valid": False, "evaluatedProperties": [], "evaluatedItems": []}
    with pytest.raises(AttributeError):
        failed.valid = True
    with pytest.raises(AttributeError):
        del failed.valid
    with pytest.raises(AttributeError):  # nor through its annotation
        failed.annotation.props = frozenset({"a"})
    assert validate(doc, doc.root, {"a": "x"}).valid is False
    assert outcome(False, 3).valid is False
    assert copy.copy(failed) is copy.deepcopy(failed) is pickle.loads(pickle.dumps(failed)) is failed
    passed = validate(doc, doc.root, {"a": 1})
    assert passed is not validate(doc, doc.root, {"a": 1})
    assert passed.to_json() == {"valid": True, "evaluatedProperties": ["a"], "evaluatedItems": []}


def test_a_failing_outcome_keeps_no_instance_alive():
    doc = parse_schema({"required": ["a"], "unevaluatedProperties": False})
    instance = _Dict(b=1)
    alive = weakref.ref(instance)
    failed = validate(doc, doc.root, instance)
    del instance
    assert alive() is None
    assert failed.valid is False and failed.annotation == EMPTY_ANNOTATION


@pytest.mark.parametrize("schema_json", [{"type": "integer"}, {"type": "number"}])
@pytest.mark.parametrize("instance", [True, False])
def test_booleans_are_not_numbers(schema_json, instance):
    assert not outcome(schema_json, instance).valid
    assert not outcome({"allOf": [schema_json], "unevaluatedItems": False}, instance).valid
    assert outcome({"minimum": 5}, instance).valid


FIRST_ARRAY = {
    "type": "array",
    "prefixItems": [{"type": "number"}],
    "anyOf": [{"prefixItems": [{}, {"type": "string"}]}],
    "contains": {"type": "number"},
    "unevaluatedItems": False,
}


def test_first_array_schema():
    assert outcome(FIRST_ARRAY, [3, "a", 3]).valid
    assert not outcome(FIRST_ARRAY, [3, "a", "a"]).valid


def test_second_array_schema_items_false():
    second = dict(FIRST_ARRAY)
    del second["unevaluatedItems"]
    second["items"] = False
    assert not outcome(second, [2, "a"]).valid
    assert outcome(second, [2]).valid


S3 = {
    "anyOf": [
        {"required": ["a1"], "patternProperties": {"a1": True}},
        {"required": ["a2"], "patternProperties": {"a2": True}},
        {"required": ["a3"], "patternProperties": {"a3": True}},
    ],
    "unevaluatedProperties": False,
}


def test_family_instances():
    assert outcome(S3, {"a1": None, "-a1-a3-": None}).valid
    assert not outcome(S3, {"a2": None, "-a1-a3-": None}).valid


def test_additional_properties_rejects_unlisted():
    schema = {"properties": {"a": True}, "additionalProperties": False}
    assert not outcome(schema, {"a": 1, "b": 2}).valid
    assert outcome(schema, {"a": 1}).valid


@pytest.mark.parametrize(
    "pattern, matched, unmatched",
    [
        ("^a$", ["a"], ["a\n", "ab"]),
        ("b$", ["ab", "b"], ["b\n", "ba"]),
        ("a\\$", ["a$", "xa$"], ["a", "a\n"]),
        ("[$]", ["$", "x$y"], ["x"]),
        ("[]$]$", ["]", "$"], ["]\n", "$\n"]),
        ("^(a|b$)", ["a\n", "b"], ["b\n"]),
        ("[^$]$", ["a", "$a"], ["$", "a$", ""]),
        ("^[^a]$", ["b", "$"], ["a", "bb", "b\n"]),
        ("^[ab$]+$", ["a$", "ab", "a"], ["a\n", "c", ""]),
    ],
)
def test_dollar_is_the_end_of_input(pattern, matched, unmatched):
    """As in ECMA-262, an end anchor does not match before a final newline;
    an escaped ``$`` and one in a class stay literal.  Without a newline,
    the verdicts equal ``jsonschema``'s."""
    import jsonschema

    reference = jsonschema.Draft202012Validator({"pattern": pattern})
    for name in matched:
        assert outcome({"pattern": pattern}, name).valid, (pattern, name)
        assert outcome({"patternProperties": {pattern: False}}, {name: 1}).valid is False
    for name in unmatched:
        assert not outcome({"pattern": pattern}, name).valid, (pattern, name)
        assert outcome({"patternProperties": {pattern: False}}, {name: 1}).valid
    for name in matched + unmatched:
        if "\n" not in name:
            assert reference.is_valid(name) is (name in matched), (pattern, name)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "const": 1},
        {"type": "integer", "const": "a"},
        {"required": []},
    ],
)
def test_type_const_clash_and_empty_required(schema):
    """``type`` and ``const`` with no class in common reject everything,
    and ``required: []`` accepts everything, in both modes and as
    ``jsonschema`` does."""
    import jsonschema

    annotated = {**schema, "unevaluatedItems": True}  # compiled in annotation mode
    for schema_json in (schema, annotated):
        reference = jsonschema.Draft202012Validator(schema_json)
        for instance in (None, 0, 1, 1.5, "a", "x", True, [], [1], {}, {"a": 1}):
            o = outcome(schema_json, instance)
            assert o.valid is reference.is_valid(instance), (schema_json, instance)
            assert o.valid is ("required" in schema), (schema_json, instance)
        assert outcome(schema, {"a": 1}).annotation == EMPTY_ANNOTATION


def test_closed_properties_reject_a_name_with_a_trailing_newline():
    schema = {"properties": {"a": True}, "unevaluatedProperties": False}
    doc = parse_schema(schema)
    rewritten = elim_document(doc)
    for instance, valid in (({"a": 1}, True), ({"a\n": 1}, False), ({"a": 1, "a\n": 1}, False)):
        assert validate(doc, doc.root, instance).valid is valid, instance
        assert validate(rewritten, rewritten.root, instance).valid is valid, instance


#: Patterns of each kind of ``schema.pattern_kind``, each with the
#: subschema its members must satisfy; two exact patterns name ``a-b``,
#: and two prefix and two substring patterns, one of each escaped, make
#: the other patterns a set.
KIND_PATTERNS = {
    EXACT: {"^a$": {"type": "integer"}, "^a-b$": {"type": "integer"}, "^a\\-b$": {"minimum": 0}},
    PREFIX: {"^p": {"minimum": 0}, "^p\\.": {"type": "integer"}},
    SUBSTRING: {"s": {"type": "integer"}, "t\\-": {"minimum": 0}},
    REGEX: {"^r.$": {"minimum": 0}},
}
#: Names that match the patterns above, and names that nearly do.
KIND_NAMES = (
    "a", "a-b", "a\n", "\na", "pa", "xp", "p.", "p.x", "px", "s", "xsx",
    "t-", "xt-x", "t", "-t", "rr", "r", "q", "z", "",
)


def _kind_instances():
    yield {}
    for name in KIND_NAMES:
        for value in (1, -1, "x"):
            yield {name: value}
    for first, second in itertools.combinations(KIND_NAMES, 2):
        for a, b in ((1, "x"), ("x", 1)):
            yield {first: a, second: b}


def _kind_schemas(kinds=tuple(KIND_PATTERNS)):
    """For each nonempty set of the pattern kinds, the patterns closed by
    ``additionalProperties`` (a check, and ``false``) and by
    ``unevaluatedProperties``, and each pattern under ``pattern``."""
    for n in range(1, len(kinds) + 1):
        for chosen in itertools.combinations(kinds, n):
            patterns = {p: sub for kind in chosen for p, sub in KIND_PATTERNS[kind].items()}
            for rest in ({"type": "string"}, False):
                yield {
                    "properties": {"q": {"const": 1}},
                    "patternProperties": patterns,
                    "additionalProperties": rest,
                }
            yield {"patternProperties": patterns, "unevaluatedProperties": {"type": "string"}}
    for kind in kinds:
        for pattern in KIND_PATTERNS[kind]:
            yield {"pattern": pattern}


def _verdicts(schema_json, instances):
    doc = parse_schema(schema_json)
    found = []
    for instance in instances:
        o = validate(doc, doc.root, instance)
        found.append((o.valid, o.annotation))
    return found


def test_literal_patterns_judge_as_their_regexes(monkeypatch):
    """Patterns that ``pattern_kind`` classes as literals are tested as
    strings under ``patternProperties``, ``additionalProperties`` and
    ``pattern``; the verdicts and annotations equal those of every pattern
    searched as a regex, and without a newline in a name, ``jsonschema``'s
    verdicts."""
    jsonschema = pytest.importorskip("jsonschema")
    objects = list(_kind_instances())
    strings = list(KIND_NAMES)
    for schema_json in _kind_schemas():
        instances = strings if "pattern" in schema_json else objects
        literal = _verdicts(schema_json, instances)
        with monkeypatch.context() as m:
            m.setattr("uneval.validator.pattern_kind", lambda source: (REGEX, source))
            searched = _verdicts(schema_json, instances)
        assert literal == searched, schema_json
        assert {valid for valid, _ in literal} == {True, False}, schema_json
        reference = jsonschema.Draft202012Validator(schema_json)
        for instance, (valid, _) in zip(instances, literal):
            if "\n" not in (instance if isinstance(instance, str) else "".join(instance)):
                assert reference.is_valid(instance) is valid, (schema_json, instance)


def test_literal_patterns_compile_no_regex(monkeypatch):
    """Where every pattern is a literal, neither a verdict nor an
    annotation compiles a regex, under ``pattern``, ``patternProperties``
    and ``patternProperties`` beside ``additionalProperties`` or
    ``unevaluatedProperties``."""
    schemas = list(_kind_schemas((EXACT, PREFIX, SUBSTRING)))
    schemas += [
        {"patternProperties": s["patternProperties"]} for s in schemas if "unevaluatedProperties" in s
    ]
    cases = []
    for schema_json in schemas:
        instances = list(KIND_NAMES) if "pattern" in schema_json else list(_kind_instances())
        cases.append((schema_json, instances, _verdicts(schema_json, instances)))

    def no_regex(source):
        raise AssertionError(f"a regex was compiled for {source!r}")

    monkeypatch.setattr("uneval.validator.compile_pattern", no_regex)
    for schema_json, instances, expected in cases:
        assert _verdicts(schema_json, instances) == expected, schema_json


def test_validate_keyword_list_dependent_step():
    doc = parse_schema({"properties": {"a": True}, "additionalProperties": False})
    ok, ann = validate_keyword_list(doc, doc.root.keywords, {"a": 1, "b": 2})
    assert not ok
    assert ann.props == {"a", "b"}
    ok, ann = validate_keyword_list(doc, doc.root.keywords, {"a": 1})
    assert ok and ann.props == {"a"}


def test_unevaluated_sees_runtime_annotation_not_syntax():
    schema = {
        "allOf": [{"properties": {"a": True}}],
        "unevaluatedProperties": False,
    }
    # properties nested in allOf still evaluates, unlike additionalProperties
    assert outcome(schema, {"a": 1}).valid
    syntactic = {
        "allOf": [{"properties": {"a": True}}],
        "additionalProperties": False,
    }
    assert not outcome(syntactic, {"a": 1}).valid


def test_one_of_exactly_one():
    schema = {"oneOf": [{"minimum": 0}, {"maximum": 0}]}
    assert outcome(schema, 1).valid
    assert outcome(schema, -1).valid
    assert not outcome(schema, 0).valid  # both succeed


def test_anyof_annotation_union_brute_force():
    schema = {
        "anyOf": [
            {"properties": {"a": True}, "required": ["a"]},
            {"properties": {"b": True}, "required": ["b"]},
        ]
    }
    doc = parse_schema(schema)
    branches = doc.root.keywords[0].value
    from itertools import combinations

    names = ["a", "b", "c"]
    for k in range(3):
        for keys in combinations(names, k):
            instance = {key: 0 for key in keys}
            o = validate(doc, doc.root, instance)
            expected = set()
            any_ok = False
            for b in branches:
                ob = validate(doc, b, instance)
                any_ok = any_ok or ob.valid
                expected |= ob.annotation.props
            if any_ok:
                assert o.valid and o.annotation.props == expected
            else:
                assert not o.valid


def test_double_negation_boolean_same_annotation_empty():
    inner = {"properties": {"a": True}, "required": ["a"]}
    doubled = {"not": {"not": inner}}
    for instance in ({}, {"a": 1}, {"a": 1, "b": 2}, "x"):
        o1 = outcome(inner, instance)
        o2 = outcome(doubled, instance)
        assert o1.valid == o2.valid
        assert o2.annotation == EMPTY_ANNOTATION


def test_contains_annotations_feed_unevaluated_items():
    schema = {"contains": {"type": "string"}, "unevaluatedItems": False}
    assert outcome(schema, ["x", "y"]).valid
    assert not outcome(schema, ["x", 1]).valid


class _List(list):
    pass


def _judged_as_the_reference_judges(schema_json, instances):
    """Each instance's verdict equals ``jsonschema``'s and that of the
    annotation-mode closure; a valid instance's annotation equals the exact
    fold's and, member by member, the reference's.  Returns the verdicts."""
    from uneval import validator

    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(schema_json)
    doc = parse_schema(schema_json)
    verdicts = []
    for instance in instances:
        got = validate(doc, doc.root, instance)
        assert got.valid is reference.is_valid(instance), (schema_json, instance)
        found = validator._compiled(doc, doc.root, ANNOT)(instance)
        assert (found is not None) is got.valid, (schema_json, instance)
        ok, folded = validate_keyword_list(doc, doc.root.keywords, instance)
        assert ok is got.valid, (schema_json, instance)
        if got.valid:
            assert got.annotation == folded, (schema_json, instance)
            if isinstance(instance, (dict, list)) and instance:
                _check_unevaluated_members(jsonschema, schema_json, instance, got.annotation)
        verdicts.append(got.valid)
    return verdicts


#: ``anyOf`` whose valid branches cover an instance early or late: the
#: first valid branch may cover it while a later one also holds, or leave
#: members that only a later branch evaluates.
COVERING_ANY_OF = [
    {"anyOf": [{"properties": {"a": True, "b": True}}, {"properties": {"a": True}, "required": ["a"]}]},
    {"anyOf": [{"required": ["z"]}, {"properties": {"a": True}}, {"properties": {"b": True}}]},
    {"anyOf": [{"prefixItems": [True, True]}, {"items": {"type": "integer"}}, {"contains": True}]},
    {"anyOf": [{"prefixItems": [True]}, {"contains": {"type": "string"}}, {"minItems": 9}]},
    {"anyOf": [{"additionalProperties": True}, {"properties": {"a": {"type": "string"}}}]},
    {"anyOf": [{"type": "string"}, {"minimum": 3}, {"properties": {"a": True}}]},
    {"anyOf": [{"prefixItems": [{"type": "integer"}]}, {"prefixItems": [False]}, {"contains": {"type": "string"}}]},
]
COVERING_INSTANCES = [
    {}, {"a": 1}, {"b": 1}, {"a": "x", "b": 2}, {"a": 1, "b": 2, "c": 3}, {"z": 1, "a": 1},
    [], [1], [1, "x"], ["x", "y", 3], [1, 2, 3], _List(["x", 1]), "s", 4, 1, None,
]


@pytest.mark.parametrize("closed", [None, "unevaluatedProperties", "unevaluatedItems"])
@pytest.mark.parametrize("schema_json", COVERING_ANY_OF)
def test_an_any_of_stopped_at_a_cover_keeps_the_full_union(schema_json, closed):
    from uneval import validator

    if closed is not None:
        schema_json = {**schema_json, closed: False}
    verdicts = _judged_as_the_reference_judges(schema_json, COVERING_INSTANCES)
    assert True in verdicts
    doc = parse_schema(schema_json)
    branches = doc.root.get("anyOf").value
    for instance in COVERING_INSTANCES:
        union = set()
        for branch in branches:
            found = validator._compiled(doc, branch, ANNOT)(instance)
            union |= found or set()
        got = validate(doc, doc.root, instance)
        if got.valid and closed is None:
            assert set(got.annotation.props | got.annotation.items) == union, instance


#: A one-entry ``prefixItems`` of ``false``, of a ``$ref`` and of a typed
#: schema, each alone and beside ``items``, ``contains`` and
#: ``unevaluatedItems``, over arrays that pass or fail it, exact or not.
ONE_ENTRY_PREFIXES = [False, {"$ref": "#/$defs/int"}, {"type": "integer"}]
ONE_ENTRY_SIBLINGS = [
    {},
    {"items": {"type": "string"}},
    {"contains": {"type": "string"}},
    {"unevaluatedItems": {"type": "string"}},
]
ONE_ENTRY_INSTANCES = [[], [1], ["x"], [1, "x"], [1, 2], _List([1]), _List(["x"]), _List([1, "x"]), "s"]


@pytest.mark.parametrize("siblings", ONE_ENTRY_SIBLINGS, ids=lambda s: "-".join(s) or "alone")
@pytest.mark.parametrize("prefix", ONE_ENTRY_PREFIXES, ids=["false", "ref", "typed"])
def test_a_one_entry_prefix_judges_as_the_reference(prefix, siblings):
    schema_json = {"prefixItems": [prefix], **siblings, "$defs": {"int": {"type": "integer"}}}
    verdicts = _judged_as_the_reference_judges(schema_json, ONE_ENTRY_INSTANCES)
    assert True in verdicts and False in verdicts


#: A two-entry prefix alone, beside a ``contains`` that matches later
#: positions, and under an ``anyOf`` closed by ``unevaluatedItems``; per
#: array shorter than, as long as and longer than the prefix, the
#: positions annotated, or ``None`` for an invalid array.
TWO_ENTRY_PREFIX_POSITIONS = [
    (
        {"prefixItems": [True, {"type": "integer"}]},
        [([], set()), ([1], {0}), (["x", 2], {0, 1}), ([1, 2, "x"], {0, 1}), ([1, "x"], None)],
    ),
    (
        {"prefixItems": [True, True], "contains": {"type": "string"}, "minContains": 0},
        [([], set()), ([1], {0}), ([1, "x"], {0, 1}), ([1, 2, "x", 3], {0, 1, 2}), ([1, 2, 3, "y"], {0, 1, 3})],
    ),
    (
        {"anyOf": [{"prefixItems": [True, True]}, {"contains": {"type": "string"}}], "unevaluatedItems": False},
        [([], set()), ([1], {0}), ([1, 2], {0, 1}), ([1, 2, "x"], {0, 1, 2}), ([1, 2, 3], None)],
    ),
]


@pytest.mark.parametrize("schema_json, expected", TWO_ENTRY_PREFIX_POSITIONS)
def test_a_two_entry_prefix_annotates_its_positions(schema_json, expected):
    instances = [instance for instance, _ in expected]
    _judged_as_the_reference_judges(schema_json, instances)
    doc = parse_schema(schema_json)
    for instance, positions in expected:
        got = validate(doc, doc.root, instance)
        assert got.valid is (positions is not None), instance
        if got.valid:
            assert got.annotation.items == positions, instance


def test_a_prefix_gives_every_array_at_least_as_long_one_set():
    """The annotation closure of ``prefixItems`` gives each array at
    least as long as the prefix the same frozenset, and a shorter array
    its own positions."""
    from uneval import validator

    doc = parse_schema({"prefixItems": [True, {"type": "integer"}]})
    annotated = validator._compiled(doc, doc.root, ANNOT)
    first, second = annotated([1, 2]), annotated(["x", 3, None])
    assert first == {0, 1} and first is second
    assert annotated([1]) == {0}


def test_prefix_and_regex_patterns_annotate_the_names_they_search():
    """Without exact names, ``patternProperties`` annotates the names
    its prefix and regex patterns match, as ``re.search`` finds them."""
    patterns = {**KIND_PATTERNS[PREFIX], **KIND_PATTERNS[REGEX]}
    doc = parse_schema({"patternProperties": patterns})
    annotated = unmatched = 0
    for instance in _kind_instances():
        got = validate(doc, doc.root, instance)
        if got.valid:
            expected = {k for k in instance if any(re.search(p, k) for p in patterns)}
            assert got.annotation.props == expected, instance
            annotated += bool(expected)
            unmatched += expected != instance.keys()
    assert annotated and unmatched


#: ``unevaluated*`` nodes under the in-place applicators of an outer one.
NESTED_UNEVALUATED = [
    {
        "allOf": [{"properties": {"a": True}, "unevaluatedProperties": {"type": "integer"}}],
        "unevaluatedProperties": False,
    },
    {
        "anyOf": [
            {"properties": {"a": {"type": "string"}}, "unevaluatedProperties": False},
            {"properties": {"b": True}},
        ],
        "unevaluatedProperties": {"type": "string"},
    },
    {
        "$ref": "#/$defs/inner",
        "unevaluatedItems": False,
        "$defs": {"inner": {"prefixItems": [True], "unevaluatedItems": {"type": "string"}}},
    },
    {
        "$ref": "#/$defs/inner",
        "properties": {"z": True},
        "unevaluatedProperties": False,
        "$defs": {"inner": {"properties": {"a": True}, "unevaluatedProperties": {"type": "string"}}},
    },
    {
        "anyOf": [
            {"prefixItems": [{"type": "integer"}], "unevaluatedItems": False},
            {"contains": {"type": "string"}},
        ],
        "unevaluatedItems": False,
    },
    {
        "oneOf": [
            {"properties": {"a": True}, "unevaluatedProperties": False},
            {"prefixItems": [True], "unevaluatedItems": {"type": "integer"}},
        ],
        "unevaluatedProperties": {"type": "integer"},
        "unevaluatedItems": False,
    },
]
NESTED_INSTANCES = [
    {}, {"a": 1}, {"a": "x"}, {"a": 1, "b": 2}, {"a": "x", "b": "y"}, {"b": 1}, {"z": 1, "a": "q"},
    {"z": 1, "a": 1}, {"c": 2}, [], [1], ["x"], [1, "x"], [1, 2], ["x", 1], "s", 3, None,
]


@pytest.mark.parametrize("schema_json", NESTED_UNEVALUATED)
def test_nested_unevaluated_keywords_judge_as_the_reference(schema_json):
    verdicts = _judged_as_the_reference_judges(schema_json, NESTED_INSTANCES)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("schema_json", NESTED_UNEVALUATED + COVERING_ANY_OF[:3])
def test_unevaluated_keywords_judge_subclass_instances_as_exact_ones(schema_json):
    """An ``OrderedDict`` or a ``list`` subclass is judged and annotated as
    the exact value it equals, and an instance of a class that an
    ``unevaluated*`` keyword does not apply to only by the other keywords."""
    doc = parse_schema(schema_json)
    for instance in NESTED_INSTANCES:
        if isinstance(instance, dict):
            other = OrderedDict(reversed(instance.items()))
        elif isinstance(instance, list):
            other = _List(instance)
        else:
            continue
        expected = validate(doc, doc.root, instance)
        got = validate(doc, doc.root, other)
        assert got.valid is expected.valid, (schema_json, instance)
        assert got.annotation == expected.annotation, (schema_json, instance)
    others = [OrderedDict(b=1), OrderedDict(a="x", b="y"), _List([1, "x"]), _List(["x", 1])]
    _judged_as_the_reference_judges(schema_json, others)


#: ``$ref``-only nodes that reach a recursive named schema.
REF_ONLY_RECURSIVE = [
    {
        "$ref": "#/$defs/tree",
        "$defs": {
            "tree": {
                "properties": {"v": {"type": "integer"}, "kids": {"items": {"$ref": "#/$defs/tree"}}},
                "unevaluatedProperties": False,
            }
        },
    },
    {
        "anyOf": [{"$ref": "#/$defs/t"}, {"type": "string"}],
        "unevaluatedProperties": False,
        "$defs": {
            "t": {
                "anyOf": [{"$ref": "#/$defs/u"}, {"required": ["end"]}],
                "properties": {"end": True},
                "unevaluatedProperties": False,
            },
            "u": {"properties": {"next": {"$ref": "#/$defs/t"}}, "required": ["next"]},
        },
    },
]
REF_ONLY_INSTANCES = [
    {}, {"v": 1}, {"v": "x"}, {"v": 1, "kids": [{"v": 2}, {"v": 3, "kids": []}]},
    {"v": 1, "kids": [{"v": 2, "w": 0}]}, {"v": 1, "w": 2},
    {"end": 1}, {"next": {"end": 1}}, {"next": {"next": {"end": 2}}}, {"next": {"next": {}}},
    {"next": {"end": 1, "x": 0}}, {"next": {"end": 1}, "x": 0}, "s", 3, [],
]


@pytest.mark.parametrize("schema_json", REF_ONLY_RECURSIVE)
def test_a_ref_only_node_reaching_a_recursive_schema(schema_json):
    verdicts = _judged_as_the_reference_judges(schema_json, REF_ONLY_INSTANCES)
    assert True in verdicts and False in verdicts


def test_a_ref_only_node_annotates_with_its_targets_closure():
    from uneval import validator

    doc = parse_schema(REF_ONLY_RECURSIVE[0])
    (tree,) = doc.defs.values()
    assert validator._compiled(doc, doc.root, ANNOT) is validator._compiled(doc, tree, ANNOT)


#: ``unevaluated*`` keywords with local siblings only (no ``allOf``,
#: ``anyOf``, ``oneOf`` or ``$ref`` beside them), whose verdict the
#: siblings' syntax decides.
LOCAL_UNEVALUATED = [
    pytest.param(
        {"prefixItems": [{"type": "integer"}], "contains": {"type": "string"}, "unevaluatedItems": False},
        id="contains-prefix-false",
    ),
    pytest.param(
        {
            "prefixItems": [True],
            "contains": {"type": "string"},
            "minContains": 0,
            "unevaluatedItems": {"type": "integer"},
        },
        id="contains-min-zero",
    ),
    pytest.param(
        {"contains": {"type": "string"}, "maxContains": 1, "unevaluatedItems": {"const": 0}},
        id="contains-max-one",
    ),
    pytest.param({"contains": True, "minItems": 2, "unevaluatedItems": False}, id="contains-true"),
    pytest.param({"contains": {"type": "string"}, "unevaluatedItems": True}, id="contains-uneval-true"),
    pytest.param(
        {"contains": False, "minContains": 0, "unevaluatedItems": {"type": "integer"}},
        id="contains-false",
    ),
    pytest.param(
        {"prefixItems": [{"type": "integer"}], "items": {"type": "string"}, "unevaluatedItems": False},
        id="items",
    ),
    pytest.param({"prefixItems": [True], "unevaluatedItems": {"type": "string"}}, id="prefix-items"),
    pytest.param(
        {
            "prefixItems": [{"$ref": "#/$defs/int"}],
            "contains": {"type": "string"},
            "unevaluatedItems": False,
            "$defs": {"int": {"type": "integer"}},
        },
        id="one-ref-prefix",
    ),
    pytest.param({"type": "array", "unevaluatedItems": {"type": "integer"}}, id="items-alone"),
    pytest.param(
        {
            "properties": {"a": True},
            "additionalProperties": {"type": "integer"},
            "unevaluatedProperties": False,
        },
        id="additional-properties",
    ),
    pytest.param(
        {
            "properties": {"a": {"type": "integer"}},
            "not": {"required": ["b"]},
            "unevaluatedProperties": False,
        },
        id="not",
    ),
    pytest.param(
        {
            "properties": {"a": True},
            "prefixItems": [True],
            "contains": {"type": "string"},
            "unevaluatedProperties": {"type": "integer"},
            "unevaluatedItems": False,
        },
        id="both",
    ),
    pytest.param(
        {
            "properties": {
                "a": {
                    "type": "object",
                    "properties": {"b": {"type": "string"}},
                    "unevaluatedProperties": False,
                },
                "c": {"type": "array", "prefixItems": [True], "unevaluatedItems": False},
            },
        },
        id="under-properties",
    ),
    pytest.param(
        {"patternProperties": {"^a": {"type": "integer"}}, "unevaluatedProperties": False},
        id="prefix-pattern",
    ),
    pytest.param(
        {"patternProperties": {"b": {"type": "integer"}}, "unevaluatedProperties": {"type": "string"}},
        id="substring-pattern",
    ),
    pytest.param(
        {"patternProperties": {"^c.$": {"const": 0}}, "unevaluatedProperties": False},
        id="regex-pattern",
    ),
    pytest.param(
        {
            "properties": {"ab": {"const": 0}},
            "patternProperties": {"^a": {"type": "integer"}, "b": True, "^c.$": {"const": 0}},
            "unevaluatedProperties": {"type": "string"},
        },
        id="three-pattern-kinds",
    ),
]


def _local_unevaluated_nodes(doc):
    """The nodes of ``doc`` that end in ``unevaluated*`` with no in-place
    applicator beside it."""
    from uneval.validator import _IN_PLACE

    return [
        s
        for s in distinct_nodes((doc.root, *doc.defs.values()))
        if isinstance(s, ObjSchema)
        and s.keywords[-1:]
        and s.keywords[-1].name in ("unevaluatedProperties", "unevaluatedItems")
        and _IN_PLACE.isdisjoint(kw.name for kw in s.keywords)
    ]


def _corpus_local_unevaluated():
    from conftest import load_corpus

    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        for node in _local_unevaluated_nodes(doc):
            yield fixture.name, doc, node


def _agrees_on_the_universe(doc, node) -> set:
    """On every instance of ``doc``'s universe, ``node``'s verdict equals
    that of its annotation-mode closure and ``jsonschema``'s.  Returns the
    verdicts seen."""
    from uneval import validator
    from uneval.instances import enumerate_instances

    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(serialize_schema(build_document(node, doc.defs)))
    annotated = validator._compiled(doc, node, ANNOT)
    verdicts = set()
    for instance in enumerate_instances(doc):
        valid = validate(doc, node, instance).valid
        assert (annotated(instance) is not None) is valid, instance
        assert reference.is_valid(instance) is valid, instance
        verdicts.add(valid)
    return verdicts


@pytest.mark.parametrize("schema_json", LOCAL_UNEVALUATED)
def test_local_unevaluated_keywords_judge_as_the_reference(schema_json):
    doc = parse_schema(schema_json)
    nodes = [doc.root, *_local_unevaluated_nodes(doc)]
    assert len(nodes) > 1
    for node in nodes:
        assert _agrees_on_the_universe(doc, node) == {True, False}, serialize_schema(
            build_document(node, doc.defs)
        )


def test_local_unevaluated_corpus_nodes_judge_as_the_reference():
    """Each corpus node whose ``unevaluated*`` keywords have local siblings
    only, 21 in 20 fixtures."""
    found = list(_corpus_local_unevaluated())
    assert len(found) == 21
    assert len({name for name, _, _ in found}) == 20
    for name, doc, node in found:
        assert _agrees_on_the_universe(doc, node), name


def test_local_unevaluated_keywords_read_no_annotation(monkeypatch):
    """A node whose ``unevaluated*`` keywords have local siblings only gets
    its verdict without ``unevaluated_verdict``, which annotates its other
    keywords; an in-place applicator beside them still takes it there."""
    from uneval import validator

    reached = []
    verdict = validator._Compiler.unevaluated_verdict

    def spy(compiler, keywords):
        reached.append(keywords)
        return verdict(compiler, keywords)

    monkeypatch.setattr(validator._Compiler, "unevaluated_verdict", spy)
    local = [parse_schema(p.values[0]) for p in LOCAL_UNEVALUATED]
    local += [doc for _, doc, _ in _corpus_local_unevaluated()]
    for doc in local:
        for node in _local_unevaluated_nodes(doc):
            for instance in ({}, {"a": 1}, [], [1, "x"], 0):
                validate(doc, node, instance)
            assert node.keywords not in reached, serialize_schema(build_document(node, doc.defs))
    for keyword in ({"allOf": [True]}, {"anyOf": [True]}, {"oneOf": [True]}, {"$ref": "#/$defs/t"}):
        doc = parse_schema({**keyword, "unevaluatedProperties": False, "$defs": {"t": True}})
        reached.clear()
        assert validate(doc, doc.root, {}).valid
        assert reached == [doc.root.keywords], keyword


def test_annotation_soundness_on_corpus():
    from conftest import load_corpus

    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        for instance in fixture.valid + fixture.invalid:
            o = validate(doc, doc.root, instance)
            if not o.valid:
                assert o.annotation == EMPTY_ANNOTATION
            if isinstance(instance, dict):
                assert o.annotation.props <= set(instance.keys())
                assert o.annotation.items == frozenset()
            elif isinstance(instance, list):
                assert o.annotation.items <= set(range(len(instance)))
                assert o.annotation.props == frozenset()
            else:
                assert o.annotation == EMPTY_ANNOTATION


def test_unique_items_by_value():
    schema = {"uniqueItems": True}
    assert outcome(schema, [1, True, "1", None, False, 0]).valid
    assert not outcome(schema, [1, 1.0]).valid
    assert not outcome(schema, [{"a": [1]}, {"a": [1.0]}]).valid
    assert outcome(schema, [[1, True], [True, 1]]).valid


# ---------------------------------------------------------------------------
# bool mode (validate) against the exact annotation fold


#: Branch lists of the in-place applicator grid, empty ones among them,
#: which random schemas never hold.
_GRID_BRANCHES = (
    [],
    [True],
    [False],
    [True, True],
    [True, False],
    [False, False],
    [{"properties": {"a": True}}, {"required": ["a"]}],
)
_GRID_INSTANCES = ({}, {"a": 1}, {"b": 1}, [], 0)


def _object_root_pairs():
    """(schema JSON, document, instance) triples whose root is an object
    schema: a fixed grid of ``anyOf``/``allOf``/``oneOf`` schemas, bare
    and beside ``"unevaluatedProperties": false``, then random schemas,
    half with an ``unevaluated*`` keyword added, then the corpus with its
    witnesses."""
    from conftest import load_corpus
    from randgen import gen_instance, gen_schema

    for name in ("anyOf", "allOf", "oneOf"):
        for branches in _GRID_BRANCHES:
            for closed in ({}, {"unevaluatedProperties": False}):
                schema_json = {name: branches, **closed}
                doc = parse_schema(schema_json)
                for instance in _GRID_INSTANCES:
                    yield schema_json, doc, instance
    rng = random.Random(4242)
    produced = 0
    while produced < 1000:
        schema_json = gen_schema(rng, rng.randrange(1, 4))
        if isinstance(schema_json, dict) and rng.random() < 0.5:
            schema_json = dict(schema_json)
            adk = rng.choice(["unevaluatedProperties", "unevaluatedItems"])
            schema_json[adk] = gen_schema(rng, 1, False)
        try:
            doc = parse_schema(schema_json)
        except Exception:
            continue
        if isinstance(doc.root, ObjSchema):
            produced += 1
            yield schema_json, doc, gen_instance(rng, 3)
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        if isinstance(doc.root, ObjSchema):
            for instance in fixture.valid + fixture.invalid:
                yield fixture.schema_json, doc, instance


def _check_unevaluated_members(jsonschema, schema_json, instance, annotation) -> int:
    """The annotation against the reference: for each member value ``v``,
    the schema closed by ``unevaluated*: {"not": {"const": v}}`` accepts
    exactly when no member outside the annotation equals ``v``."""
    if isinstance(instance, dict):
        adk, members, evaluated = "unevaluatedProperties", instance.items(), annotation.props
    else:
        adk, members, evaluated = "unevaluatedItems", enumerate(instance), annotation.items
    members = list(members)
    unevaluated = [v for k, v in members if k not in evaluated]
    body = {k: v for k, v in schema_json.items() if k != "$defs"}
    for _, v in members:
        closed = {"allOf": [body], adk: {"not": {"const": v}}}
        if "$defs" in schema_json:
            closed["$defs"] = schema_json["$defs"]
        accepted = jsonschema.Draft202012Validator(closed).is_valid(instance)
        expected = not any(json_equal(u, v) for u in unevaluated)
        assert accepted == expected, (schema_json, instance, v)
    return len(members)


def test_bool_mode_verdict_equals_exact_fold():
    # the independent reference is a third-party 2020-12 validator; without
    # it the fold is still checked and the test is reported skipped
    try:
        import jsonschema
    except ImportError:
        jsonschema = None
    checked = members = 0
    for schema_json, doc, instance in _object_root_pairs():
        ok, annotation = validate_keyword_list(doc, doc.root.keywords, instance)
        outcome = validate(doc, doc.root, instance)
        valid = outcome.valid
        assert valid == ok
        if valid:
            assert outcome.annotation == annotation, (schema_json, instance)
        if jsonschema is not None:
            reference = jsonschema.Draft202012Validator(schema_json)
            assert reference.is_valid(instance) == valid, (schema_json, instance)
            if valid and isinstance(instance, (dict, list)) and instance:
                members += _check_unevaluated_members(
                    jsonschema, schema_json, instance, outcome.annotation
                )
        checked += 1
    assert checked > 1000
    assert jsonschema is None or members > 500
    if jsonschema is None:
        pytest.skip("jsonschema not installed: checked against the exact fold only")


def test_one_node_gets_each_documents_verdict():
    node = ObjSchema((Keyword("$ref", "#/$defs/a"),))
    strings = build_document(node, {"a": parse_schema({"type": "string"}).root})
    numbers = build_document(node, {"a": parse_schema({"type": "number"}).root})
    for _ in range(2):
        assert validate(strings, node, "x").valid
        assert not validate(strings, node, 1).valid
        assert validate(numbers, node, 1).valid
        assert not validate(numbers, node, "x").valid


def test_ad_hoc_schemas_do_not_grow_the_cache():
    doc = parse_schema(SALE_CAR)
    node_count = len({id(s) for s in document_schemas(doc)})
    instance = {"price": 100, "plate": "x111"}
    sizes = set()
    for _ in range(10_000):
        assert validate(doc, not_(not_(doc.root)), instance).valid
        sizes.add(len(doc.compiled))
    assert max(sizes) <= node_count
    assert len(sizes) == 1


def test_ad_hoc_schemas_cache_nothing_they_reach():
    """A compile entered at an ad hoc node caches the named node that it
    reaches through ``$ref`` and what that node reaches, and nothing ad
    hoc; validating the named node then compiles nothing."""
    doc = parse_schema({"$defs": {"a": {"properties": {"b": {"type": "string"}}}}})
    ad_hoc = ObjSchema((Keyword("$ref", "#/$defs/a"),))
    (named,) = doc.defs.values()
    for instance, valid in (({"b": "x"}, True), ({"b": 1}, False)):
        got = validate(doc, ad_hoc, instance)
        assert got.valid is valid
        assert got.annotation.props == ({"b"} if valid else set())
        assert id(ad_hoc) not in doc.compiled
        assert id(named) in doc.compiled and len(doc.compiled) == 2
    cached = dict(doc.compiled)
    assert validate(doc, named, {"b": "x"}).valid
    assert doc.compiled == cached


def test_a_second_ad_hoc_validation_compiles_only_the_ad_hoc_nodes(monkeypatch):
    """The named nodes an ad hoc session reached are cached, so the next
    ad hoc validation compiles the ad hoc nodes and nothing below them."""
    from uneval import validator

    compiled = []
    bool_list = validator._Compiler.bool_list

    def counting(self, keywords, context):
        compiled.append(tuple(keywords))
        return bool_list(self, keywords, context)

    monkeypatch.setattr(validator._Compiler, "bool_list", counting)
    doc = parse_schema(SALE_CAR)
    instance = {"price": 100, "plate": "x111"}
    assert validate(doc, not_(not_(doc.root)), instance).valid
    assert len(compiled) > 2
    compiled.clear()
    wrapper = not_(not_(doc.root))
    assert validate(doc, wrapper, instance).valid
    assert compiled == [wrapper.keywords, wrapper.keywords[0].value.keywords]


def test_a_node_cached_in_annotation_mode_only_gets_a_verdict():
    """A definition that the root reads only through an annotation step is
    cached without its bool-mode check; validating it compiles that."""
    doc = parse_schema({
        "$ref": "#/$defs/a",
        "unevaluatedProperties": False,
        "$defs": {"a": {"properties": {"x": {"type": "integer"}}}},
    })
    assert validate(doc, doc.root, {"x": 1}).valid
    (named,) = doc.defs.values()
    entry = doc.compiled[id(named)]
    assert entry[BOOL] is None and entry[ANNOT] is not None
    assert validate(doc, named, {"x": 1, "y": 2}).valid
    assert not validate(doc, named, {"x": "1"}).valid


def test_a_reference_cycle_through_named_nodes_only():
    """A document built from parsed nodes may name a node that also stands
    inside another; on a cycle of named nodes only, the compile breaks the
    cycle at the one under way."""
    schema = {"$anchor": "top", "required": ["v"], "properties": {"next": {"$ref": "#top"}}}
    parsed = parse_schema(schema)
    link = parsed.root.get("properties").value["next"]
    doc = build_document(parsed.root, {"link": link})
    chain = {"v": 1, "next": {"v": 2, "next": {"v": 3}}}
    broken = {"v": 1, "next": {"v": 2, "next": {}}}
    for entry in (doc.root, link):
        assert validate(doc, entry, chain).valid
        assert not validate(doc, entry, broken).valid
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(schema)
    assert reference.is_valid(chain) and not reference.is_valid(broken)


def test_the_exact_fold_does_not_grow_the_cache():
    """The fold compiles the subschemas of its keywords for the call
    only, as ``validate`` compiles ad hoc nodes."""
    doc = parse_schema(SALE_CAR)
    assert validate(doc, doc.root, {"price": 100, "plate": "x111"}).valid
    size = len(doc.compiled)
    ad_hoc = [parse_schema({"type": "integer", "minimum": i}).root for i in range(3)]
    keywords = (
        Keyword("allOf", (ad_hoc[0],)),
        Keyword("anyOf", (ad_hoc[1],)),
        Keyword("properties", {"price": ad_hoc[2]}),
    )
    for instance in ({"price": 100}, 5):
        validate_keyword_list(doc, keywords, instance)
        assert len(doc.compiled) == size


def test_warm_annotation_builds_no_compiler(monkeypatch):
    """Once the document holds a node's annotation closure, reading
    ``.annotation`` again builds no compiler."""
    from uneval import validator

    built = []

    class Counting(validator._Compiler):
        def __init__(self, doc):
            built.append(doc)
            super().__init__(doc)

    monkeypatch.setattr(validator, "_Compiler", Counting)
    defs = {f"d{i}": {"type": "integer"} for i in range(100)}
    for closed in (False, True):
        schema = {"properties": {"a": {"$ref": "#/$defs/d0"}}, "$defs": defs}
        if closed:
            schema["unevaluatedProperties"] = False
        doc = parse_schema(schema)
        first = validate(doc, doc.root, {"a": 5}).annotation
        assert built
        built.clear()
        second = validate(doc, doc.root, {"a": 5}).annotation
        assert built == []
        assert second == first and second.props == {"a"}


def test_one_cache_entry_per_distinct_node(corpus, rewrites):
    """Parsing shares equal inner subtrees, so the first validation of a
    freshly parsed document compiles each distinct node once."""
    from uneval.jsonvalue import parse_json, serialize_json

    fixtures = [f for f in corpus if not f.adversarial]
    assert len(fixtures) == len(rewrites.corpus) == 73
    totals = {"original": 0, "rewrite": 0}
    for fixture, rewrite in zip(fixtures, rewrites.corpus):
        first = (fixture.valid + fixture.invalid)[0]
        docs = {
            "original": parse_schema(parse_json((fixture.path / "schema.json").read_bytes())),
            "rewrite": parse_schema(parse_json(serialize_json(serialize_schema(rewrite)))),
        }
        for kind, doc in docs.items():
            validate(doc, doc.root, first)
            tops = [top for _, top in doc.named_schemas()]
            assert len(doc.compiled) <= len(distinct_nodes(tops))
            totals[kind] += len(doc.compiled)
    # 264 and 663 entries when parsing kept every occurrence apart, and
    # 251 and 351 when it kept apart the nodes that reach a $ref
    assert totals["original"] <= 251
    assert totals["rewrite"] <= 340


# ---------------------------------------------------------------------------
# over-deep input


def _cache_shape(doc):
    """Per cache entry, which of its two modes are compiled."""
    return sorted((entry[1] is not None, entry[2] is not None) for entry in doc.compiled.values())


def test_over_deep_instance_is_a_clean_error():
    from conftest import CORPUS_DIR

    from uneval.errors import NestingDepthError
    from uneval.jsonvalue import parse_json

    text = (CORPUS_DIR / "guarded_recursion_list" / "schema.json").read_bytes()
    depth = 500
    deep = parse_json('{"head":1,"tail":' * depth + "null" + "}" * depth)
    shallow = {"head": 1, "tail": {"head": 2, "tail": None}}
    doc, fresh = parse_schema(parse_json(text)), parse_schema(parse_json(text))
    with pytest.raises(NestingDepthError, match="nests too deeply"):
        validate(doc, doc.root, deep)
    assert validate(doc, doc.root, shallow).valid
    assert validate(fresh, fresh.root, shallow).valid
    assert _cache_shape(doc) == _cache_shape(fresh)


def test_compile_cut_short_by_depth_leaves_the_cache_as_it_was():
    from uneval.errors import NestingDepthError

    # built node by node: the JSON decoder and the parser refuse this depth
    deep = parse_schema({"type": "integer"}).root
    for _ in range(1000):
        deep = ObjSchema((Keyword("properties", {"a": deep}),))
    small = parse_schema({"type": "string"}).root
    doc = build_document(deep, {"small": small})
    with pytest.raises(NestingDepthError, match="nests too deeply"):
        validate(doc, doc.root, {})
    assert doc.compiled == {}
    assert validate(doc, small, "x").valid
    assert list(doc.compiled) == [id(small)]


_CEILING_PROBE = """
import json, sys
from uneval import parse_schema, validate
from uneval.errors import NestingDepthError

def answers(kind, depth, annotation):
    s = {}
    for _ in range(depth):
        s = {"allOf": [s]} if kind == "allOf" else {"properties": {"a": s}}
    doc = parse_schema(s)
    try:
        outcome = validate(doc, doc.root, {})
        if annotation:
            outcome.annotation
    except NestingDepthError as e:
        assert "nests too deeply" in str(e), e
        return False
    return True

found = []
for kind, annotation, depth in json.loads(sys.argv[1]):
    while answers(kind, depth, annotation):
        depth += 1
    found.append(depth - 1)
print(json.dumps(found))
"""

#: Per chain of ``allOf`` or ``properties`` wrappers around ``{}`` applied
#: to ``{}``: the deepest chain whose verdict (``valid``) or annotation
#: the validator computed at the default recursion limit, measured at
#: fa2d3d3.
DEPTH_CEILINGS = [
    ("allOf", False, 248),
    ("allOf", True, 165),
    ("properties", False, 331),
    ("properties", True, 331),
]


def test_the_depth_ceilings_do_not_fall():
    """In a fresh interpreter, each chain answers 5 levels short of its
    ceiling, and the first chain too deep to answer is a clean
    ``NestingDepthError``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import uneval

    pinned = [(kind, annotation, ceiling - 5) for kind, annotation, ceiling in DEPTH_CEILINGS]
    done = subprocess.run(
        [sys.executable, "-c", _CEILING_PROBE, json.dumps(pinned)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(uneval.__file__).parent.parent)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    for (kind, annotation, floor), deepest in zip(pinned, found):
        assert deepest >= floor, (kind, annotation, deepest)


def test_annotation_too_deep_to_compute_is_a_clean_error(monkeypatch):
    from uneval import validator
    from uneval.errors import NestingDepthError

    o = outcome({"properties": {"a": True}}, {"a": 1})
    assert o.valid

    def overflow(*args):
        raise RecursionError

    monkeypatch.setattr(validator, "_compiled", overflow)
    with pytest.raises(NestingDepthError, match="nests too deeply"):
        o.annotation
