import random

from uneval.analysis import (
    Analyzer,
    EvalPair,
    eq_pairs,
    eq_patterns,
    exact_pattern,
    pair_dominates,
    patterns_dominate,
)
from uneval.errors import SchemaParseError
from uneval.families import gen_family_san, gen_family_sn
from uneval.instances import enumerate_instances
from uneval.schema import (
    INF,
    FALSE_SCHEMA,
    BoolSchema,
    ObjSchema,
    TRUE_SCHEMA,
    combine,
    deref,
    distinct_nodes,
    parse_schema,
)
from uneval.validator import validate

from bounds import matches, satisfied_by
from conftest import load_corpus
from randgen import gen_schema
from walking import walk


def doc_of(schema_json):
    return parse_schema(schema_json)


def test_min_ep_properties_row():
    doc = doc_of({"properties": {"k1": {"type": "string"}}})
    an = Analyzer(doc)
    assert an.min_ep(doc.root) == {exact_pattern("k1")}
    assert an.max_ep(doc.root) == {exact_pattern("k1")}


ANYOF_CLOSED = {
    "anyOf": [
        {"properties": {"a": {"type": "string"}}, "additionalProperties": False},
        {"properties": {"b": {"type": "string"}}, "additionalProperties": False},
    ]
}


def test_min_ep_anyof_intersection_keeps_dotstar():
    doc = doc_of(ANYOF_CLOSED)
    an = Analyzer(doc)
    assert an.min_ep(doc.root) == {".*"}
    assert an.max_ep(doc.root) == {".*", exact_pattern("a"), exact_pattern("b")}


def test_min_ep_empty_schema():
    doc = doc_of({})
    assert Analyzer(doc).min_ep(doc.root) == set()


def test_min_ei_prefix_items():
    doc = doc_of({"prefixItems": [True, True]})
    assert Analyzer(doc).min_ei(doc.root) == EvalPair(2, FALSE_SCHEMA)


def test_min_ei_contains():
    doc = doc_of({"contains": {"type": "string"}})
    pair = Analyzer(doc).min_ei(doc.root)
    assert pair.h == 0
    assert pair.guard == doc.root.get("contains").value


def test_min_ei_other_schema():
    doc = doc_of({"minimum": 3})
    assert Analyzer(doc).min_ei(doc.root) == EvalPair(0, FALSE_SCHEMA)


def test_min_ei_items_row():
    doc = doc_of({"items": {"type": "string"}})
    an = Analyzer(doc)
    assert an.min_ei(doc.root) == EvalPair(INF, TRUE_SCHEMA)
    assert an.max_ei(doc.root) == EvalPair(INF, TRUE_SCHEMA)


def test_eq_patterns_dotstar_absorption():
    a = frozenset({exact_pattern("a"), ".*"})
    b = frozenset({exact_pattern("b"), ".*"})
    assert eq_patterns(a, b)
    assert eq_patterns(
        frozenset({exact_pattern("a")}),
        frozenset({exact_pattern("a")}),
    )
    assert not eq_patterns(
        frozenset({exact_pattern("a")}),
        frozenset({exact_pattern("b")}),
    )


def test_eq_pairs():
    s = parse_schema({"type": "string"}).root
    t = parse_schema({"type": "string"}).root
    assert eq_pairs(EvalPair(1, s), EvalPair(1, t))
    assert not eq_pairs(EvalPair(1, s), EvalPair(2, t))
    assert eq_pairs(EvalPair(0, FALSE_SCHEMA), EvalPair(0, FALSE_SCHEMA))


def test_ex_ep_pattern_properties():
    doc = doc_of({"patternProperties": {"^p": {}}})
    assert Analyzer(doc).ex_ep(doc.root) == {"^p"}


def test_ex_ep_anyof_defined_under_plus_eq():
    doc = doc_of(ANYOF_CLOSED)
    assert Analyzer(doc).ex_ep(doc.root) == {".*"}


def test_ex_ep_undefined_for_differing_branches():
    doc = doc_of({"anyOf": [{"properties": {"a": {}}}, {"properties": {"b": {}}}]})
    assert Analyzer(doc).ex_ep(doc.root) is None


def test_ex_ei_items():
    doc = doc_of({"items": {}})
    an = Analyzer(doc)
    assert an.ex_ei(doc.root) == EvalPair(INF, TRUE_SCHEMA)


def test_covers_uneval_all_props():
    doc = doc_of(
        {
            "$defs": {
                "all": {"properties": {"x": True}, "unevaluatedProperties": True},
                "any": {"properties": {"y": True}},
            }
        }
    )
    assert Analyzer(doc).covers(doc.defs["all"], doc.defs["any"])


def test_covers_nothing_evaluated_right():
    doc = doc_of({"$defs": {"s1": {"properties": {"a": True}}, "s2": {"minimum": 3}}})
    assert Analyzer(doc).covers(doc.defs["s1"], doc.defs["s2"])


def test_covers_unprovable():
    doc = doc_of(
        {"$defs": {"s1": {"properties": {"a": True}}, "s2": {"properties": {"b": True}}}}
    )
    assert not Analyzer(doc).covers(doc.defs["s1"], doc.defs["s2"])


def _in_place_reachable_choice_divergent(doc, analyzer):
    """Schemas in-place-reachable from an anyOf/oneOf with differing bounds."""
    tainted = set()
    for name, top in doc.named_schemas():
        for s in walk(top):
            if not isinstance(s, ObjSchema):
                continue
            for kw in s.keywords:
                if kw.name in ("anyOf", "oneOf"):
                    single = ObjSchema((kw,))
                    if not eq_patterns(
                        analyzer.min_ep(single), analyzer.max_ep(single)
                    ) or not eq_pairs(
                        analyzer.min_ei(single), analyzer.max_ei(single)
                    ):
                        tainted.add(id(s))
    # propagate backwards through in-place edges until a fixpoint
    from uneval.schema import _inplace_edges

    changed = True
    while changed:
        changed = False
        for name, top in doc.named_schemas():
            for s in walk(top):
                if id(s) in tainted:
                    continue
                for _, nxt in _inplace_edges(doc, s):
                    if id(nxt) in tainted:
                        tainted.add(id(s))
                        changed = True
                        break
    return tainted


def test_definedness_outside_divergent_choices():
    # characterization can only fail below a disjunction whose branches
    # evaluate different things
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        tainted = _in_place_reachable_choice_divergent(doc, an)
        for name, top in doc.named_schemas():
            for s in walk(top):
                if id(s) not in tainted:
                    assert an.ex_ep(s) is not None, (fixture.name, name)
                    assert an.ex_ei(s) is not None, (fixture.name, name)


def _bounds_hold(doc, an, instance) -> bool:
    o = validate(doc, doc.root, instance)
    if not o.valid:
        return True
    lo_p, hi_p = an.min_ep(doc.root), an.max_ep(doc.root)
    if isinstance(instance, dict):
        for name in instance:
            if matches(lo_p, name) and name not in o.annotation.props:
                return False
        for name in o.annotation.props:
            if not matches(hi_p, name):
                return False
    if isinstance(instance, list):
        lo_i, hi_i = an.min_ei(doc.root), an.max_ei(doc.root)
        for pos, item in enumerate(instance):
            if satisfied_by(doc, lo_i, pos, item) and pos not in o.annotation.items:
                return False
        for pos in o.annotation.items:
            if not satisfied_by(doc, hi_i, pos, instance[pos]):
                return False
    return True


def test_bound_soundness_spot_checks():
    # the full sweep runs in the acceptance module; exercise a sample here
    for fixture in load_corpus()[:12]:
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        for instance in fixture.valid + fixture.invalid:
            assert _bounds_hold(doc, an, instance), fixture.name


def test_characterization_exactness():
    # when the exact property set exists, it predicts the annotation
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        pats = an.ex_ep(doc.root)
        if pats is None:
            continue
        for instance in fixture.valid:
            o = validate(doc, doc.root, instance)
            if o.valid and isinstance(instance, dict):
                expected = {name for name in instance if matches(pats, name)}
                assert o.annotation.props == expected, fixture.name


def test_characterization_exactness_items():
    # dually, the exact (h, guard) pair predicts the evaluated positions
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        pair = an.ex_ei(doc.root)
        if pair is None:
            continue
        for instance in fixture.valid:
            o = validate(doc, doc.root, instance)
            if o.valid and isinstance(instance, list):
                expected = {
                    pos
                    for pos, item in enumerate(instance)
                    if satisfied_by(doc, pair, pos, item)
                }
                assert o.annotation.items == expected, (fixture.name, instance)


def test_covers_oracle_on_normal_form_branches():
    # every proven cover among normal-form branches holds under brute force
    from uneval.enf import EnfBuilder
    from uneval.schema import ADK_NAMES

    checked_pairs = 0
    for fixture in load_corpus():
        if fixture.adversarial:
            continue
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        body = doc.root
        if isinstance(body, ObjSchema):
            body = ObjSchema(
                tuple(kw for kw in body.keywords if kw.name not in ADK_NAMES)
            )
        branches = list(
            EnfBuilder(an).enf(body).single_keyword("anyOf").value
        )
        if len(branches) < 2:
            continue
        universe = list(enumerate_instances(doc, max_fields=2, max_items=2))[:200]
        for s1 in branches:
            for s2 in branches:
                if s1 is s2 or not an.covers(s1, s2):
                    continue
                checked_pairs += 1
                for instance in universe:
                    o1 = validate(doc, s1, instance)
                    o2 = validate(doc, s2, instance)
                    if o1.valid and o2.valid:
                        assert o2.annotation.props <= o1.annotation.props
                        assert o2.annotation.items <= o1.annotation.items
    assert checked_pairs > 0


def test_covers_implies_annotation_containment():
    # brute-force check of the covering contract on a concrete pair
    doc = doc_of(
        {
            "$defs": {
                "big": {"patternProperties": {"a": True, "b": True}},
                "small": {"patternProperties": {"a": True}},
            }
        }
    )
    s1, s2 = doc.defs["big"], doc.defs["small"]
    assert Analyzer(doc).covers(s1, s2)
    for instance in enumerate_instances(doc, max_fields=2):
        o1 = validate(doc, s1, instance)
        o2 = validate(doc, s2, instance)
        if o1.valid and o2.valid:
            assert o2.annotation.props <= o1.annotation.props
            assert o2.annotation.items <= o1.annotation.items


def _ref_pair(h, guard):
    if h == INF or (isinstance(guard, BoolSchema) and guard.value):
        return EvalPair(INF, TRUE_SCHEMA)
    return EvalPair(h, guard)


def _ref_union(pairs):
    """Item bound of 'evaluated by some part': max h, disjoined guards."""
    if not pairs:
        return EvalPair(0, FALSE_SCHEMA)
    if len(pairs) == 1:
        return pairs[0]
    return _ref_pair(max(p.h for p in pairs), combine([p.guard for p in pairs], FALSE_SCHEMA))


def _ref_meet(pairs):
    """Item bound of 'evaluated whichever part holds': min h, conjoined guards."""
    if len(pairs) == 1:
        return pairs[0]
    return _ref_pair(min(p.h for p in pairs), combine([p.guard for p in pairs], TRUE_SCHEMA))


class _FourWalkAnalyzer:
    """Reference bounds: each of the four computed by a walk of its own,
    with its own memo and its own set and pair operations, folding every
    part in (none dropped as a unit)."""

    def __init__(self, doc):
        self.doc = doc
        self.memo = {}

    def _memo(self, which, s, compute, lower):
        key = (which, id(s))
        hit = self.memo.get(key)
        if hit is not None and hit[0] is s:
            return hit[1]
        value = compute(s, lower)
        self.memo[key] = (s, value)
        return value

    def min_ep(self, s):
        return self._memo("min_ep", s, self._ep, True)

    def max_ep(self, s):
        return self._memo("max_ep", s, self._ep, False)

    def min_ei(self, s):
        return self._memo("min_ei", s, self._ei, True)

    def max_ei(self, s):
        return self._memo("max_ei", s, self._ei, False)

    def _ep(self, s, lower):
        if isinstance(s, BoolSchema):
            return frozenset()
        result = frozenset()
        for kw in s.keywords:
            result = result | self._ep_keyword(kw, lower)
        return result

    def _ep_keyword(self, kw, lower):
        bound = self.min_ep if lower else self.max_ep
        if kw.name == "properties":
            return frozenset(exact_pattern(k) for k in kw.value)
        if kw.name == "patternProperties":
            return frozenset(kw.value.keys())
        if kw.name in ("additionalProperties", "unevaluatedProperties"):
            return frozenset({".*"})
        if kw.name == "$ref":
            return bound(deref(self.doc, kw.value))
        if kw.name in ("anyOf", "oneOf"):
            branches = [bound(b) for b in kw.value]
            if not branches:
                return frozenset()
            out = branches[0] if lower else frozenset()
            for b in branches:
                out = out & b if lower else out | b
            return out
        if kw.name == "allOf":
            out = frozenset()
            for b in kw.value:
                out = out | bound(b)
            return out
        return frozenset()

    def _ei(self, s, lower):
        if isinstance(s, BoolSchema):
            return EvalPair(0, FALSE_SCHEMA)
        return _ref_union([self._ei_keyword(kw, lower) for kw in s.keywords])

    def _ei_keyword(self, kw, lower):
        bound = self.min_ei if lower else self.max_ei
        if kw.name == "prefixItems":
            return EvalPair(len(kw.value), FALSE_SCHEMA)
        if kw.name == "contains":
            return _ref_pair(0, kw.value)
        if kw.name in ("items", "unevaluatedItems"):
            return EvalPair(INF, TRUE_SCHEMA)
        if kw.name == "$ref":
            return bound(deref(self.doc, kw.value))
        if kw.name in ("anyOf", "oneOf"):
            branches = [bound(b) for b in kw.value]
            if not branches:
                return EvalPair(0, FALSE_SCHEMA)
            return (_ref_meet if lower else _ref_union)(branches)
        if kw.name == "allOf":
            return _ref_union([bound(b) for b in kw.value])
        return EvalPair(0, FALSE_SCHEMA)

    def ex_ep(self, s):
        lo, hi = self.min_ep(s), self.max_ep(s)
        return lo if eq_patterns(lo, hi) else None

    def ex_ei(self, s):
        lo, hi = self.min_ei(s), self.max_ei(s)
        return lo if eq_pairs(lo, hi) else None


def _random_documents(count, seed):
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        try:
            docs.append(parse_schema(gen_schema(rng, rng.randrange(1, 5))))
        except SchemaParseError:
            continue
    return docs


def _bound_documents(rewrites):
    """Corpus originals and their rewrites, sn/san n <= 6 and their
    rewrites, and seeded random schemas."""
    docs = [parse_schema(f.schema_json) for f in load_corpus()]
    docs += rewrites.corpus
    for n in range(2, 7):
        docs += [gen_family_sn(n), gen_family_san(n), *rewrites.family[n]]
    return docs + _random_documents(2000, seed=31)


def _chooses(doc, s, memo):
    """Whether an anyOf/oneOf is reachable from ``s`` through allOf and
    $ref, the keywords along which bounds are combined."""
    hit = memo.get(id(s))
    if hit is None:
        hit = False
        if isinstance(s, ObjSchema):
            for kw in s.keywords:
                if kw.name in ("anyOf", "oneOf"):
                    hit = True
                elif kw.name == "allOf":
                    hit = any([_chooses(doc, b, memo) for b in kw.value])
                elif kw.name == "$ref":
                    hit = _chooses(doc, deref(doc, kw.value), memo)
                if hit:
                    break
        memo[id(s)] = hit
    return hit


def test_bounds_equal_the_four_walk_reference(rewrites):
    """Both bounds of a family come from one walk; they equal the four
    separate walks' bounds, and so do the exact characterizations, on
    every distinct node.  Where no choice is reachable the two bounds
    are one object."""
    nodes = shared = 0
    for doc in _bound_documents(rewrites):
        an, ref_an = Analyzer(doc), _FourWalkAnalyzer(doc)
        memo = {}
        for s in distinct_nodes([top for _, top in doc.named_schemas()]):
            nodes += 1
            assert an.min_ep(s) == ref_an.min_ep(s)
            assert an.max_ep(s) == ref_an.max_ep(s)
            assert an.min_ei(s) == ref_an.min_ei(s)
            assert an.max_ei(s) == ref_an.max_ei(s)
            assert an.ex_ep(s) == ref_an.ex_ep(s)
            assert an.ex_ei(s) == ref_an.ex_ei(s)
            if not _chooses(doc, s, memo):
                assert an.min_ep(s) is an.max_ep(s)
                assert an.min_ei(s) is an.max_ei(s)
                shared += 1
    assert nodes > 10000 and shared > 8000, (nodes, shared)


def test_covers_equals_the_four_walk_reference(rewrites):
    """``covers`` reads both families' bounds out of one memo entry per
    node; on a seeded sample of node pairs it equals dominance over the
    reference's bounds."""
    rng = random.Random(37)
    pairs = proven = 0
    for doc in _bound_documents(rewrites):
        an, ref_an = Analyzer(doc), _FourWalkAnalyzer(doc)
        nodes = list(distinct_nodes([top for _, top in doc.named_schemas()]))
        for _ in range(10):
            a, b = rng.choice(nodes), rng.choice(nodes)
            expected = patterns_dominate(ref_an.min_ep(a), ref_an.max_ep(b)) and pair_dominates(
                ref_an.min_ei(a), ref_an.max_ei(b)
            )
            assert an.covers(a, b) == expected
            pairs += 1
            proven += expected
    assert pairs >= 20000 and 1000 < proven < pairs - 1000, (pairs, proven)


def test_bounds_are_one_object_for_a_single_or_repeated_choice():
    doc = doc_of(
        {
            "$defs": {"c": {"contains": {"type": "string"}}},
            "allOf": [
                {"anyOf": [{"$ref": "#/$defs/c"}]},
                {"oneOf": [{"prefixItems": [True]}, {"prefixItems": [True]}]},
            ],
        }
    )
    an = Analyzer(doc)
    assert an.min_ei(doc.root) is an.max_ei(doc.root)
    assert an.ex_ei(doc.root) == EvalPair(1, doc.defs["c"].get("contains").value)
    split = doc_of({"anyOf": [{"prefixItems": [True]}, {"contains": True}]})
    an = Analyzer(split)
    assert an.min_ei(split.root) is not an.max_ei(split.root)
    assert an.ex_ei(split.root) is None
