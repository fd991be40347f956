import random

import pytest

from uneval import eliminate, schema
from uneval.analysis import Analyzer
from uneval.eliminate import (
    count_uneval_keywords,
    elim_document,
    elim_document_with_stats,
    is_uneval_schema,
    p_props,
    pref_its,
    push_uneval,
    unnest,
    with_anchor,
)
from uneval.enf import enf
from uneval.errors import EliminationError, GuardednessError, NestingDepthError, SchemaParseError
from uneval.families import gen_family_san, gen_family_sn
from uneval.instances import enumerate_instances
from uneval.schema import (
    ADK_NAMES,
    FALSE_SCHEMA,
    Keyword,
    ObjSchema,
    TRUE_SCHEMA,
    all_of,
    any_of,
    build_document,
    distinct_nodes,
    find_unguarded_cycle,
    not_,
    make_obj,
    operands,
    parse_schema,
    schema_to_json,
    serialize_schema,
)
from uneval.validator import validate

from conftest import load_corpus
from randgen import gen_schema
from test_schema import COLOURED_PARENT, SALE_CAR
from walking import walk

WORKED = {
    "items": {
        "anyOf": [{"$ref": "#sale"}, {"$ref": "#car"}],
        "unevaluatedProperties": False,
    },
    "$defs": {
        "sale": {"$anchor": "sale", "properties": {"price": {"type": "integer"}}},
        "car": {"$anchor": "car", "properties": {"model": {"type": "string"}}},
    },
}


def equivalent(doc, other, max_fields=3, max_items=3):
    for instance in enumerate_instances(doc, max_fields=max_fields, max_items=max_items):
        if validate(doc, doc.root, instance).valid != validate(
            other, other.root, instance
        ).valid:
            return False, instance
    return True, None


def test_unnest_hoists_nested_uneval():
    doc = parse_schema(WORKED)
    out = unnest(doc)
    assert sorted(out.defs) == ["__uneval_0", "car", "sale"]
    items = schema_to_json(out.root)["items"]
    assert items == {"$ref": "#/$defs/__uneval_0"}
    hoisted = out.defs["__uneval_0"]
    assert is_uneval_schema(hoisted)
    assert count_uneval_keywords(out) == 1


def test_unnest_hoists_a_shared_nested_uneval_once():
    inner = {"properties": {"x": True}, "unevaluatedProperties": False}
    doc = parse_schema(
        {"properties": {"a": inner, "b": inner}, "unevaluatedProperties": False}
    )
    props = doc.root.get("properties").value
    assert props["a"] is props["b"]
    out = unnest(doc)
    assert sorted(out.defs) == ["__uneval_0"]
    assert schema_to_json(out.root)["properties"] == {
        "a": {"$ref": "#/$defs/__uneval_0"},
        "b": {"$ref": "#/$defs/__uneval_0"},
    }
    rewritten, stats = elim_document_with_stats(doc)
    assert sorted(rewritten.defs) == ["__uneval_0"]
    assert stats == {"__uneval_0": 1, "": 1}


def test_count_uneval_keywords_counts_each_occurrence_of_a_shared_node():
    shared = ObjSchema(
        (
            Keyword("unevaluatedProperties", FALSE_SCHEMA),
            Keyword("unevaluatedItems", TRUE_SCHEMA),
        )
    )
    twice = all_of((shared, not_(shared)))
    doc = build_document(any_of((twice, twice, shared)), {"d": twice, "e": shared})
    by_walk = sum(
        kw.name in ADK_NAMES
        for _, top in doc.named_schemas()
        for s in walk(top)
        if isinstance(s, ObjSchema)
        for kw in s.keywords
    )
    # root: 2 + 2 + 1 occurrences, "d": 2, "e": 1; two keywords each
    assert count_uneval_keywords(doc) == by_walk == 16


def test_unnest_no_uneval_unchanged():
    doc = parse_schema(SALE_CAR["$defs"]["sale"])
    out = unnest(doc)
    assert serialize_schema(out) == serialize_schema(doc)


def test_unnest_named_uneval_unchanged():
    doc = parse_schema(
        {
            "$ref": "#/$defs/closed",
            "$defs": {"closed": {"properties": {"a": True}, "unevaluatedProperties": False}},
        }
    )
    out = unnest(doc)
    assert serialize_schema(out) == serialize_schema(doc)


def _tops(doc):
    return (doc.root, *doc.defs.values())


def test_document_without_uneval_comes_back_over_the_same_nodes():
    plain = 0
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        if count_uneval_keywords(doc):
            continue
        plain += 1
        assert unnest(doc) is doc
        out, stats = elim_document_with_stats(doc)
        assert stats == {}
        assert out is not doc and out.defs is not doc.defs
        assert out.root is doc.root
        assert out.defs.keys() == doc.defs.keys()
        assert all(out.defs[name] is s for name, s in doc.defs.items())
        assert out.anchors == doc.anchors
    assert plain >= 30


def _parsed_documents():
    """Every corpus fixture, sn/san n = 2..6, and seeded randgen schemas,
    each also one level down, where its own unevaluated* is nested."""
    for fixture in load_corpus():
        yield parse_schema(fixture.schema_json)
    for n in range(2, 7):
        yield gen_family_sn(n)
        yield gen_family_san(n)
    rng = random.Random(1601)
    for _ in range(200):
        generated = gen_schema(rng, rng.randrange(1, 4))
        for v in (generated, {"anyOf": [generated]}):
            try:
                yield parse_schema(v)
            except SchemaParseError:
                pass


def test_parse_records_exactly_when_there_is_something_to_hoist():
    """``nested_uneval`` is False exactly when unnesting a copy that does
    not know the record hands that copy back."""
    seen = {True: 0, False: 0}
    for doc in _parsed_documents():
        copy = build_document(doc.root, doc.defs)
        assert copy.nested_uneval is None
        assert doc.nested_uneval is (unnest(copy) is not copy)
        if not doc.nested_uneval:
            assert unnest(doc) is doc
        seen[doc.nested_uneval] += 1
    assert seen[True] >= 20 and seen[False] >= 400


def test_guard_search_runs_once_per_document(monkeypatch):
    """The caller's check, the rewrite's and the normalizer's share one
    search; an unguarded document is still refused by each."""
    calls = []
    search = schema._first_unguarded_cycle

    def counting(doc):
        calls.append(doc)
        return search(doc)

    monkeypatch.setattr(schema, "_first_unguarded_cycle", counting)
    doc = parse_schema(WORKED)
    assert find_unguarded_cycle(doc) is None
    elim_document_with_stats(doc)
    enf(doc, doc.defs["sale"])
    assert calls == [doc]
    cyclic = parse_schema(COLOURED_PARENT)
    cycle = find_unguarded_cycle(cyclic)
    assert cycle is not None
    for rewrite in (elim_document, lambda d: enf(d, d.root)):
        with pytest.raises(GuardednessError) as info:
            rewrite(cyclic)
        assert info.value.cycle == cycle
    assert calls == [doc, cyclic]


def test_unnest_keeps_subtrees_without_uneval():
    kept = 0
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        if not count_uneval_keywords(doc):
            continue
        after = {id(s) for s in distinct_nodes(_tops(unnest(doc)))}
        for s in distinct_nodes(_tops(doc)):
            if not any(map(is_uneval_schema, walk(s))):
                assert id(s) in after, fixture.name
                kept += 1
    assert kept > 100


def keyword_to_json(kw):
    return schema_to_json(make_obj(kw))[kw.name]


def test_p_props():
    kw = p_props(frozenset({"^price$"}))
    assert keyword_to_json(kw) == {"^price$": {}}
    assert keyword_to_json(p_props(frozenset())) == {}
    assert sorted(keyword_to_json(p_props(frozenset({"^a$", "^b$"})))) == [
        "^a$",
        "^b$",
    ]


def test_pref_its():
    assert keyword_to_json(pref_its(0)) == []
    assert keyword_to_json(pref_its(2)) == [True, True]
    assert len(keyword_to_json(pref_its(5))) == 5


def test_push_uneval_props_worked_example():
    doc = parse_schema(SALE_CAR)
    body = ObjSchema((doc.root.get("anyOf"),))
    normalized = enf(doc, body)
    pushed = push_uneval(Analyzer(doc), normalized, FALSE_SCHEMA)
    got = schema_to_json(pushed)
    assert got == {
        "anyOf": [
            {"allOf": [{"$ref": "#sale"},
                       {"patternProperties": {"^price$": {}},
                        "additionalProperties": False}]},
            {"allOf": [{"$ref": "#car"},
                       {"patternProperties": {"^plate$": {}},
                        "additionalProperties": False}]},
            {"allOf": [{"$ref": "#sale"}, {"$ref": "#car"},
                       {"patternProperties": {"^plate$": {}, "^price$": {}},
                        "additionalProperties": False}]},
        ]
    }


def test_push_uneval_props_single_true_branch():
    doc = parse_schema(True)
    normalized = enf(doc, doc.root)
    pushed = push_uneval(Analyzer(doc), normalized, TRUE_SCHEMA)
    assert schema_to_json(pushed) == {"additionalProperties": True}
    for instance in (None, {"a": 1}, [1], "x"):
        assert validate(doc, pushed, instance).valid


def test_push_props_dotstar_branch_is_noop():
    doc = parse_schema({"additionalProperties": {"type": "string"}})
    normalized = enf(doc, doc.root)
    pushed = push_uneval(Analyzer(doc), normalized, FALSE_SCHEMA)
    for instance in enumerate_instances(doc, max_fields=2):
        assert (
            validate(doc, doc.root, instance).valid
            == validate(doc, pushed, instance).valid
        )


def test_push_uneval_items_all_evaluated_branch_unchanged():
    doc = parse_schema({"items": {"type": "string"}})
    normalized = enf(doc, doc.root)
    pushed = push_uneval(Analyzer(doc), normalized, u_items=FALSE_SCHEMA)
    assert schema_to_json(pushed) == {"items": {"type": "string"}}


def test_push_uneval_items_prefix_branch():
    doc = parse_schema({"prefixItems": [True]})
    pushed = push_uneval(Analyzer(doc), enf(doc, doc.root), u_items=FALSE_SCHEMA)
    assert schema_to_json(pushed) == {"prefixItems": [True], "items": False}
    # arrays longer than the prefix are rejected, like the uneval original
    original = parse_schema({"prefixItems": [True], "unevaluatedItems": False})
    for instance in enumerate_instances(original, max_items=3):
        assert (
            validate(original, original.root, instance).valid
            == validate(doc, pushed, instance).valid
        )


def test_push_uneval_items_contains_branch():
    doc = parse_schema({"contains": {"type": "string"}})
    pushed = push_uneval(Analyzer(doc), enf(doc, doc.root), u_items=FALSE_SCHEMA)
    assert schema_to_json(pushed) == {
        "contains": {"type": "string"},
        "items": {"type": "string"},
    }
    original = parse_schema({"contains": {"type": "string"}, "unevaluatedItems": False})
    for instance in enumerate_instances(original, max_items=3):
        assert (
            validate(original, original.root, instance).valid
            == validate(doc, pushed, instance).valid
        )


def test_push_rejects_uncharacterized_branch():
    doc = parse_schema({})
    # a lone branch that is itself an undetermined disjunction is not a
    # legal normal form; the push must refuse it
    fake = parse_schema(
        {"anyOf": [{"anyOf": [{"properties": {"a": True}}, {"properties": {"b": True}}]}]}
    ).root
    with pytest.raises(EliminationError):
        push_uneval(Analyzer(doc), fake, FALSE_SCHEMA)


def test_elim_document_unchanged_without_adk():
    doc = parse_schema({"type": "string"})
    assert schema_to_json(elim_document(doc).root) == {"type": "string"}


def test_elim_document_both_adks_shares_enf():
    doc = parse_schema(
        {
            "properties": {"a": True},
            "unevaluatedProperties": False,
            "unevaluatedItems": False,
        }
    )
    out = elim_document(doc)
    # one branch, which evaluates through its own keywords, takes both checks
    assert schema_to_json(out.root) == {
        "properties": {"a": True},
        "additionalProperties": False,
        "items": False,
    }
    ok, witness = equivalent(doc, out)
    assert ok, witness


def test_elim_document_worked_example():
    doc = parse_schema(WORKED)
    out = elim_document(doc)
    assert count_uneval_keywords(out) == 0
    rewritten = out.defs["__uneval_0"]
    sets = []
    for branch in rewritten.single_keyword("anyOf").value:
        wrap = branch.single_keyword("allOf").value[-1]
        sets.append(sorted(wrap.get("patternProperties").value.keys()))
    assert sets == [["^price$"], ["^model$"], ["^model$", "^price$"]]
    ok, witness = equivalent(doc, out)
    assert ok, witness


def test_elim_document_classical_unchanged():
    doc = parse_schema(
        {"properties": {"a": {"type": "integer"}}, "additionalProperties": False}
    )
    out = elim_document(doc)
    assert serialize_schema(out) == serialize_schema(doc)


def test_elim_document_family_branch_count():
    from uneval.families import gen_family_sn

    doc = gen_family_sn(3)
    out = elim_document(doc)
    assert len(out.root.single_keyword("anyOf").value) == 7
    ok, witness = equivalent(doc, out)
    assert ok, witness


def test_elim_idempotent():
    for source in (WORKED, SALE_CAR):
        doc = parse_schema(source)
        once = elim_document(doc)
        twice = elim_document(once)
        assert serialize_schema(twice) == serialize_schema(once)


def test_elim_output_parses_as_classical():
    from uneval.schema import ADK_NAMES

    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        out = elim_document(doc)
        reparsed = parse_schema(serialize_schema(out))
        for name, top in reparsed.named_schemas():
            for s in walk(top):
                if isinstance(s, ObjSchema):
                    assert not any(kw.name in ADK_NAMES for kw in s.keywords), fixture.name


def test_size_bound_sanity_on_family():
    from uneval.families import gen_family_sn

    for n in (2, 3, 4):
        doc = gen_family_sn(n)
        nodes_in = sum(1 for _, top in doc.named_schemas() for _ in walk(top))
        out = elim_document(doc)
        nodes_out = sum(1 for _, top in out.named_schemas() for _ in walk(top))
        assert nodes_out <= (2**nodes_in) * nodes_in


# ---------------------------------------------------------------------------
# the shape of the push: merged branches, flat conjunctions, bare results


def _agrees_with_uneval(doc, branch, keyword, s_u, pushed):
    """``pushed`` judges like allOf[branch] closed by ``keyword: s_u``."""
    original = ObjSchema((Keyword("allOf", (branch,)), Keyword(keyword, s_u)))
    probe = build_document(original, dict(doc.defs))
    instances = list(enumerate_instances(probe, max_fields=3, max_items=3))
    assert len(instances) > 20
    for instance in instances:
        assert (
            validate(doc, original, instance).valid == validate(doc, pushed, instance).valid
        ), instance


def test_push_props_merges_a_branch_that_evaluates_through_its_own_keywords():
    doc = parse_schema(
        {
            "properties": {"a": {"type": "integer"}},
            "patternProperties": {"^b": True},
            "required": ["a"],
            "contains": {"const": 0},
        }
    )
    s_u = parse_schema({"type": "string"}).root
    pushed = push_uneval(Analyzer(doc), enf(doc, doc.root), s_u)
    assert schema_to_json(pushed) == {
        "properties": {"a": {"type": "integer"}},
        "patternProperties": {"^b": True},
        "required": ["a"],
        "contains": {"const": 0},
        "additionalProperties": {"type": "string"},
    }
    _agrees_with_uneval(doc, doc.root, "unevaluatedProperties", s_u, pushed)


def test_push_items_merges_a_branch_that_evaluates_through_its_own_keywords():
    doc = parse_schema(
        {"prefixItems": [{"type": "integer"}], "contains": {"type": "string"}, "minItems": 1}
    )
    s_u = parse_schema({"const": None}).root
    pushed = push_uneval(Analyzer(doc), enf(doc, doc.root), u_items=s_u)
    assert schema_to_json(pushed) == {
        "prefixItems": [{"type": "integer"}],
        "contains": {"type": "string"},
        "minItems": 1,
        "items": {"anyOf": [{"const": None}, {"type": "string"}]},
    }
    _agrees_with_uneval(doc, doc.root, "unevaluatedItems", s_u, pushed)


def test_push_items_folds_false_and_repeated_tails():
    # a false U is folded in test_push_uneval_items_contains_branch
    cases = [
        # (branch, U, the pushed items tail)
        ({"prefixItems": [True]}, {"type": "string"}, {"type": "string"}),
        ({"contains": {"type": "string"}}, {"type": "string"}, {"type": "string"}),
    ]
    for branch_json, u_json, tail in cases:
        doc = parse_schema(branch_json)
        s_u = parse_schema(u_json).root
        pushed = push_uneval(Analyzer(doc), enf(doc, doc.root), u_items=s_u)
        assert schema_to_json(pushed) == {**branch_json, "items": tail}
        _agrees_with_uneval(doc, doc.root, "unevaluatedItems", s_u, pushed)


#: Branches that keep their wrapper, and one that does not: the allOf of
#: two own-keyword atoms is merged into one node.
NOT_MERGED = {
    "$ref": {"$ref": "#/$defs/d"},
    "allOf": {"allOf": [{"properties": {"a": True}}, {"prefixItems": [True]}]},
    "anyOf": {"anyOf": [{"properties": {"a": True}}, {"properties": {"a": {"type": "string"}}}]},
    "oneOf": {"oneOf": [{"properties": {"a": True}, "prefixItems": [True]}]},
    "not": {"not": {"required": ["a"]}, "properties": {"b": True}},
    "additionalProperties": {"properties": {"a": True}, "additionalProperties": {"type": "string"}},
    "items": {"prefixItems": [{"const": 0}], "items": {"type": "string"}},
}


#: The non-merged branches above that evaluate no property (no item): their
#: wrapper holds the check alone, without an empty patternProperties
#: (prefixItems).
EVALUATES_NONE = {
    "unevaluatedProperties": {"items", "false"},
    "unevaluatedItems": {"additionalProperties", "anyOf", "not", "false"},
}


def _push_props(doc, s_u, normalized):
    return push_uneval(Analyzer(doc), normalized, u_props=s_u)


def _push_items(doc, s_u, normalized):
    return push_uneval(Analyzer(doc), normalized, u_items=s_u)


@pytest.mark.parametrize("name", sorted(NOT_MERGED) + ["$anchor", "false"])
@pytest.mark.parametrize(
    "push, keyword",
    [
        pytest.param(_push_props, "unevaluatedProperties", id="push_uneval_props-unevaluatedProperties"),
        pytest.param(_push_items, "unevaluatedItems", id="push_uneval_items-unevaluatedItems"),
    ],
)
def test_push_keeps_the_wrapper_beside_other_branches(name, push, keyword):
    defs = {"d": {"$anchor": "d", "properties": {"a": True}, "prefixItems": [True]}}
    if name == "false":
        doc = parse_schema({"$defs": defs})
        branch = FALSE_SCHEMA
    elif name == "$anchor":
        doc = parse_schema({"$defs": defs})
        branch = doc.defs["d"]
    else:
        doc = parse_schema({**NOT_MERGED[name], "$defs": defs})
        branch = doc.root
    s_u = parse_schema({"type": "integer"}).root
    pushed = push(doc, s_u, any_of((branch,)))
    got = schema_to_json(pushed)
    ex = Analyzer(doc).ex_ei(branch)
    if keyword == "unevaluatedItems" and ex.h == float("inf"):
        assert pushed is branch  # it evaluates every item already
    elif name == "allOf":
        # a conjunction of own-keyword atoms is merged into one node
        check = "additionalProperties" if keyword == "unevaluatedProperties" else "items"
        assert got == {"properties": {"a": True}, "prefixItems": [True], check: {"type": "integer"}}
    else:
        assert list(got) == ["allOf"]
        *conjuncts, wrap = got["allOf"]
        assert conjuncts == [schema_to_json(branch)]
        evaluated, check = (
            ("patternProperties", "additionalProperties")
            if keyword == "unevaluatedProperties"
            else ("prefixItems", "items")
        )
        assert set(wrap) == ({check} if name in EVALUATES_NONE[keyword] else {evaluated, check})
    _agrees_with_uneval(doc, branch, keyword, s_u, pushed)


def test_push_appends_the_wrapper_to_a_bare_allof_branch():
    doc = parse_schema(
        {
            "$defs": {"d": {"properties": {"a": True}}},
            "allOf": [{"$ref": "#/$defs/d"}, {"not": {"required": ["b"]}}],
        }
    )
    branch = doc.root
    s_u = parse_schema({"type": "integer"}).root
    pushed = push_uneval(Analyzer(doc), any_of((branch,)), u_props=s_u)
    *conjuncts, wrap = pushed.single_keyword("allOf").value
    assert tuple(conjuncts) == branch.single_keyword("allOf").value
    # a fresh node: no canonical key was computed to deduplicate it
    assert not hasattr(wrap, "_key")
    assert schema_to_json(wrap) == {
        "patternProperties": {"^a$": {}},
        "additionalProperties": {"type": "integer"},
    }
    _agrees_with_uneval(doc, branch, "unevaluatedProperties", s_u, pushed)


def test_both_keywords_make_one_flat_conjunction():
    doc = parse_schema(
        {
            "$ref": "#/$defs/d",
            "unevaluatedProperties": False,
            "unevaluatedItems": False,
            "$defs": {"d": {"properties": {"a": True}, "prefixItems": [True]}},
        }
    )
    out = elim_document(doc)
    assert schema_to_json(out.root) == {
        "allOf": [
            {"$ref": "#/$defs/d"},
            {
                "patternProperties": {"^a$": {}},
                "additionalProperties": False,
                "prefixItems": [True],
                "items": False,
            },
        ]
    }
    ok, witness = equivalent(doc, out)
    assert ok, witness


def _disjuncts_by_branch(doc, rewritten):
    """Pairs (ENF branch of ``doc``'s root body, the disjunct of
    ``rewritten`` made from it); fails unless the rewrite is one disjunction
    with one disjunct per branch."""
    body = ObjSchema(tuple(kw for kw in doc.root.keywords if kw.name not in ADK_NAMES))
    branches = enf(doc, body).single_keyword("anyOf").value
    if len(branches) == 1:
        disjuncts = (rewritten,)
    else:
        assert list(schema_to_json(rewritten)) == ["anyOf"]
        disjuncts = rewritten.single_keyword("anyOf").value
    assert len(disjuncts) == len(branches)
    return zip(branches, disjuncts)


@pytest.mark.parametrize("name", ["both_adks", "uneval_props_contains_interplay"])
def test_each_branch_occurs_once_with_both_keywords(name):
    (fixture,) = [f for f in load_corpus() if f.name == name]
    doc = parse_schema(fixture.schema_json)
    assert is_uneval_schema(doc.root)
    assert {"unevaluatedProperties", "unevaluatedItems"} <= set(fixture.schema_json)
    out = elim_document(doc)
    for branch, disjunct in _disjuncts_by_branch(doc, out.root):
        conj = disjunct.single_keyword("allOf")
        if conj is None:
            # merged: the keywords of the branch's atoms, which share no
            # name here, beside both checks
            own = [kw for atom in operands(branch, "allOf") for kw in atom.keywords]
            assert all(kw in disjunct.keywords for kw in own)
            assert {kw.name for kw in disjunct.keywords} == {
                *(kw.name for kw in own),
                "additionalProperties",
                "items",
            }
        else:
            # the branch's conjuncts, then one wrapper with both checks
            bare = branch.single_keyword("allOf")
            assert conj.value[:-1] == (bare.value if bare else (branch,))
            assert {"additionalProperties", "items"} <= {kw.name for kw in conj.value[-1].keywords}
    instances = list(enumerate_instances(doc))
    assert len(instances) > 20
    for instance in instances:
        assert validate(doc, doc.root, instance).valid == validate(out, out.root, instance).valid, instance


# ---------------------------------------------------------------------------
# merged conjunctions


def test_push_merges_a_conjunction_of_own_keyword_atoms():
    doc = parse_schema(
        {
            "allOf": [
                {
                    "type": "object",
                    "properties": {"a": {"type": "integer"}},
                    "required": ["a"],
                    "contains": {"const": 0},
                },
                {
                    "type": "object",
                    "properties": {"a": {"minimum": 0}, "b": True},
                    "patternProperties": {"^c": True},
                    "required": ["b", "a"],
                    "contains": {"const": 0},
                },
            ]
        }
    )
    branch = doc.root
    s_u = parse_schema({"type": "string"}).root
    pushed = push_uneval(Analyzer(doc), any_of((branch,)), u_props=s_u)
    # maps and required united, a shared name conjoined; equal keywords once
    assert schema_to_json(pushed) == {
        "properties": {"a": {"allOf": [{"type": "integer"}, {"minimum": 0}]}, "b": True},
        "patternProperties": {"^c": True},
        "required": ["a", "b"],
        "type": "object",
        "contains": {"const": 0},
        "additionalProperties": {"type": "string"},
    }
    _agrees_with_uneval(doc, branch, "unevaluatedProperties", s_u, pushed)


class _MergeSpy:
    """Records, while installed, every conjunction that the push merges
    (its atoms and merged keywords) and the analyzer of the rewrite."""

    def __init__(self, monkeypatch):
        self.merges = []
        self.analyzer = None
        merge, push = eliminate._merge_atoms, eliminate.push_uneval

        def spy_merge(atoms, splits):
            merged = merge(atoms, splits)
            if merged is not None:
                self.merges.append((atoms, merged))
            return merged

        def spy_push(an, *args):
            self.analyzer = an
            return push(an, *args)

        monkeypatch.setattr(eliminate, "_merge_atoms", spy_merge)
        monkeypatch.setattr(eliminate, "push_uneval", spy_push)


def _merge_soundness_cases():
    from uneval.families import gen_family_san, gen_family_sn

    for fixture in load_corpus():
        yield fixture.name, parse_schema(fixture.schema_json)
    for n in range(2, 9):
        yield f"sn_{n}", gen_family_sn(n)
        yield f"san_{n}", gen_family_san(n)


def test_a_merged_conjunction_evaluates_what_its_atoms_evaluate(monkeypatch):
    """Every branch that the push merges, in the corpus and sn/san
    n = 2..8: the merged node without the checks has the exact bounds of
    the conjunction it replaces, and the rewrite agrees with its original
    on the whole universe."""
    merged_in = {}
    for name, doc in _merge_soundness_cases():
        spy = _MergeSpy(monkeypatch)
        out = elim_document(doc)
        monkeypatch.undo()
        for atoms, merged in spy.merges:
            node, conj = make_obj(*merged), all_of(atoms)
            assert spy.analyzer.ex_ep(node) == spy.analyzer.ex_ep(conj), name
            assert spy.analyzer.ex_ei(node) == spy.analyzer.ex_ei(conj), name
        if spy.merges:
            merged_in[name] = len(spy.merges)
            for instance in enumerate_instances(doc):
                assert validate(doc, doc.root, instance).valid == validate(out, out.root, instance).valid, (
                    name,
                    instance,
                )
    # every conjunction branch of sn merges; san's atoms differ in prefixItems
    assert {n: merged_in.get(f"sn_{n}") for n in range(2, 9)} == {n: 2**n - 1 - n for n in range(2, 9)}
    assert not any(name.startswith("san_") for name in merged_in)
    assert "both_adks" in merged_in


#: Two atoms of a conjunction that keeps its wrapper, by the keyword that
#: stops the merge: an argument that differs, or an atom that
#: ``_own_keywords`` rejects.
KEEPS_THE_WRAPPER = {
    "contains": ({"contains": {"const": 0}}, {"contains": {"const": 1}}),
    "minContains": ({"contains": {"const": 0}, "minContains": 0}, {"contains": {"const": 0}}),
    "type": ({"type": "integer"}, {"type": "number", "properties": {"a": True}}),
    "minItems": ({"minItems": 1, "prefixItems": [True]}, {"minItems": 2}),
    "const": ({"const": True, "properties": {"a": True}}, {"const": 1}),
    "$ref": ({"$ref": "#/$defs/d"}, {"properties": {"b": True}}),
    "not": ({"not": {"required": ["a"]}}, {"properties": {"b": True}}),
    "additionalProperties": (
        {"properties": {"a": True}, "additionalProperties": {"type": "string"}},
        {"prefixItems": [True]},
    ),
    "items": ({"prefixItems": [{"const": 0}], "items": {"type": "string"}}, {"properties": {"a": True}}),
}


@pytest.mark.parametrize("name", sorted(KEEPS_THE_WRAPPER) + ["$anchor"])
@pytest.mark.parametrize("keyword", ["unevaluatedProperties", "unevaluatedItems"])
def test_a_conjunction_that_cannot_merge_keeps_its_wrapper(name, keyword):
    defs = {"d": {"$anchor": "d", "properties": {"a": True}, "prefixItems": [True]}}
    if name == "$anchor":
        doc = parse_schema({"$defs": defs, "allOf": [{"properties": {"b": True}}]})
        branch = all_of((doc.defs["d"], doc.root.single_keyword("allOf").value[0]))
    else:
        doc = parse_schema({"allOf": list(KEEPS_THE_WRAPPER[name]), "$defs": defs})
        branch = doc.root
    atoms = branch.single_keyword("allOf").value
    assert len(atoms) == 2
    s_u = parse_schema({"type": "integer"}).root
    push = _push_props if keyword == "unevaluatedProperties" else _push_items
    pushed = push(doc, s_u, any_of((branch,)))
    if pushed is not branch:  # not a branch that evaluates every item
        *conjuncts, wrap = pushed.single_keyword("allOf").value
        assert tuple(conjuncts) == atoms
        assert ("additionalProperties" if keyword == "unevaluatedProperties" else "items") in {
            kw.name for kw in wrap.keywords
        }
    _agrees_with_uneval(doc, branch, keyword, s_u, pushed)


@pytest.mark.parametrize(
    "d, wrap",
    [
        # evaluates properties, no item
        ({"properties": {"a": True}}, {"patternProperties": {"^a$": {}}, "additionalProperties": False, "items": False}),
        # evaluates items, no property
        ({"prefixItems": [True]}, {"additionalProperties": False, "prefixItems": [True], "items": False}),
        # evaluates neither
        ({"minProperties": 1}, {"additionalProperties": False, "items": False}),
    ],
)
def test_a_wrapper_has_no_empty_evaluation_keyword(d, wrap):
    doc = parse_schema(
        {
            "$ref": "#/$defs/d",
            "unevaluatedProperties": False,
            "unevaluatedItems": False,
            "$defs": {"d": d},
        }
    )
    out = elim_document(doc)
    assert schema_to_json(out.root) == {"allOf": [{"$ref": "#/$defs/d"}, wrap]}
    ok, witness = equivalent(doc, out)
    assert ok, witness


def test_a_single_branch_comes_back_bare_and_keeps_the_anchor():
    doc = parse_schema(
        {
            "$ref": "#closed",
            "$defs": {
                "closed": {
                    "$anchor": "closed",
                    "properties": {"a": True},
                    "unevaluatedProperties": False,
                }
            },
        }
    )
    out = elim_document(doc)
    assert schema_to_json(out.defs["closed"]) == {
        "$anchor": "closed",
        "properties": {"a": True},
        "additionalProperties": False,
    }
    assert out.anchors == {"closed": out.defs["closed"]}
    ok, witness = equivalent(doc, out)
    assert ok, witness


def test_a_bare_result_that_cannot_carry_the_anchor_is_wrapped():
    anchor = Keyword("$anchor", "x")
    other = ObjSchema((Keyword("$anchor", "y"), Keyword("minimum", 0)))
    plain = ObjSchema((Keyword("minimum", 0),))
    assert with_anchor(plain, None) is plain
    assert with_anchor(plain, anchor).keywords == (anchor, *plain.keywords)
    for result in (FALSE_SCHEMA, other):
        for kw in (None, anchor):
            got = with_anchor(result, kw)
            assert isinstance(got, ObjSchema)
            assert got.keywords[-1] == Keyword("allOf", (result,))
            assert got.get("$anchor") == kw


def test_over_deep_schema_is_a_clean_error_and_the_next_rewrite_runs():
    depth = 1000
    deep = parse_schema({"type": "integer"}).root
    for _ in range(depth):
        deep = ObjSchema((Keyword("properties", {"a": deep}),))
    closed = ObjSchema((Keyword("properties", {"a": deep}), Keyword("unevaluatedProperties", FALSE_SCHEMA)))
    with pytest.raises(NestingDepthError, match="nests too deeply to rewrite"):
        elim_document_with_stats(build_document(closed, {}))
    doc = parse_schema(WORKED)
    assert count_uneval_keywords(elim_document(doc)) == 0
