import importlib
import random

import pytest

from uneval.analysis import Analyzer
from uneval.eliminate import elim_document
from uneval.errors import GuardednessError
from uneval.enf import (
    BranchList,
    EnfBuilder,
    and_combine,
    close,
    conjoin,
    enf,
    or_combine,
)
from uneval.instances import enumerate_instances
from uneval.jsonvalue import parse_json
from uneval.schema import (
    BoolSchema,
    Keyword,
    ObjSchema,
    Schema,
    SchemaDocument,
    boolean_one_of,
    canonical_text,
    deref,
    parse_schema,
    schema_to_json,
)
from uneval.validator import validate

from conftest import load_corpus, small_universe
from test_schema import SALE_CAR
from walking import walk


def branches_json(s):
    return [schema_to_json(b) for b in s.single_keyword("anyOf").value]


def test_enf_characterized_schema_is_wrapped():
    doc = parse_schema({"type": "string"})
    assert branches_json(enf(doc, doc.root)) == [{"type": "string"}]


def test_enf_true():
    doc = parse_schema(True)
    assert branches_json(enf(doc, doc.root)) == [True]


def test_enf_rejects_unguarded_recursion():
    doc = parse_schema(
        {"$ref": "#/$defs/a", "$defs": {"a": {"anyOf": [{"$ref": "#/$defs/a"}]}}}
    )
    with pytest.raises(GuardednessError) as info:
        enf(doc, doc.root)
    assert info.value.cycle == ["#", "$ref:#/$defs/a", "anyOf[0]", "$ref:#/$defs/a"]


def test_enf_characterized_anyof_unchanged():
    doc = parse_schema({"anyOf": [{"properties": {"a": True}}, {"properties": {"a": True}}]})
    # branches agree, so the disjunction itself stays (duplicates dropped)
    assert branches_json(enf(doc, doc.root)) == [{"properties": {"a": True}}]


def test_enf_sale_car_three_branches():
    doc = parse_schema(SALE_CAR)
    body = ObjSchema((doc.root.get("anyOf"),))
    result = enf(doc, body)
    assert branches_json(result) == [
        {"$ref": "#sale"},
        {"$ref": "#car"},
        {"allOf": [{"$ref": "#sale"}, {"$ref": "#car"}]},
    ]


def test_enf_false_conjunct_absorbs_the_branches():
    x = {"anyOf": [{"properties": {"a": True}}, {"prefixItems": [True]}]}
    doc = parse_schema({"allOf": [False, x]})
    assert branches_json(enf(doc, doc.root)) == [False]
    original = parse_schema({"allOf": [False, x], "unevaluatedProperties": False, "unevaluatedItems": False})
    rewritten = elim_document(original)
    # the one branch keeps its wrapper, as any false branch does
    assert schema_to_json(rewritten.root)["allOf"][0] is False
    instances = list(enumerate_instances(original))
    assert len(instances) > 20
    for instance in instances:
        assert not validate(original, original.root, instance).valid
        assert not validate(rewritten, rewritten.root, instance).valid


def parsed(js):
    return parse_schema(js).root


A = parsed({"properties": {"a": True}})
B = parsed({"properties": {"b": True}})
C = parsed({"properties": {"c": True}})


def test_and_combine_empty():
    assert [schema_to_json(s) for s in and_combine([])] == [True]


def test_and_combine_singletons():
    out = [schema_to_json(s) for s in and_combine([[A], [B]])]
    assert out == [{"allOf": [schema_to_json(A), schema_to_json(B)]}]


def test_and_combine_product_order():
    out = [schema_to_json(s) for s in and_combine([[A, B], [C]])]
    assert out == [
        {"allOf": [schema_to_json(A), schema_to_json(C)]},
        {"allOf": [schema_to_json(B), schema_to_json(C)]},
    ]


def test_or_combine_empty_and_singleton():
    doc = parse_schema({})
    assert len(or_combine(Analyzer(doc), [])) == 0
    assert [schema_to_json(s) for s in or_combine(Analyzer(doc), [[A]])] == [schema_to_json(A)]


def test_or_combine_adds_conjunction():
    doc = parse_schema(SALE_CAR)
    sale = parse_schema({"$ref": "#sale", "$defs": SALE_CAR["$defs"]}).root
    car = parse_schema({"$ref": "#car", "$defs": SALE_CAR["$defs"]}).root
    out = [schema_to_json(s) for s in or_combine(Analyzer(doc), [[sale], [car]])]
    assert out == [
        {"$ref": "#sale"},
        {"$ref": "#car"},
        {"allOf": [{"$ref": "#sale"}, {"$ref": "#car"}]},
    ]


def test_close_no_cross_pairs():
    doc = parse_schema({})
    assert len(close(Analyzer(doc), BranchList([A]), BranchList())) == 0


def test_close_covered_pair_omitted():
    doc = parse_schema(
        {
            "$defs": {
                "all": {"properties": {"x": True}, "unevaluatedProperties": True},
                "small": {"properties": {"y": True}},
            }
        }
    )
    out = close(Analyzer(doc), BranchList([doc.defs["all"]]), BranchList([doc.defs["small"]]))
    assert len(out) == 0


def test_close_unprovable_pair_conjoined():
    doc = parse_schema({})
    out = [schema_to_json(s) for s in close(Analyzer(doc), BranchList([A]), BranchList([B]))]
    assert out == [{"allOf": [schema_to_json(A), schema_to_json(B)]}]


def test_dedup():
    assert BranchList([A, A]).branches == [A]
    ab = parsed({"allOf": [{"properties": {"a": True}}, {"properties": {"b": True}}]})
    ba = parsed({"allOf": [{"properties": {"b": True}}, {"properties": {"a": True}}]})
    assert BranchList([ab, ba]).branches == [ab]
    assert BranchList([A, B]).branches == [A, B]
    # identity is the canonical text, not Python equality (True == 1)
    for js1, js2 in (
        ({"const": True}, {"const": 1}),
        ({"const": False}, {"const": 0}),
        ({"const": None}, {"const": False}),
    ):
        s1, s2 = parsed(js1), parsed(js2)
        assert s1 != s2
        assert BranchList([s1, s2]).branches == [s1, s2]
        assert schema_to_json(conjoin(s1, s2)) == {"allOf": [js1, js2]}
    # exact decimals: 1 and 1.0 are the same number, hence the same node
    one, one_point_zero = parsed({"const": 1}), parse_schema(parse_json('{"const": 1.0}')).root
    assert one == one_point_zero and hash(one) == hash(one_point_zero)
    assert BranchList([one, one_point_zero]).branches == [one]
    assert conjoin(one, one_point_zero) is one
    assert A == parsed({"properties": {"a": True}})
    assert hash(A) == hash(parsed({"properties": {"a": True}}))
    assert BoolSchema(True) != ObjSchema(())


def test_branchlist_rejects_duplicates():
    bl = BranchList([A])
    bl.add(A)
    assert len(bl) == 1


def sn_body(n):
    from uneval.families import gen_family_sn

    doc = gen_family_sn(n)
    return doc, ObjSchema((doc.root.get("anyOf"),))


def test_sn_branch_counts():
    for n in (1, 2, 3, 4):
        doc, body = sn_body(n)
        result = enf(doc, body)
        assert len(result.single_keyword("anyOf").value) == 2**n - 1


@pytest.mark.parametrize("kind", ["sn", "san"])
def test_family_rewrite_keys_each_branch_once(kind, monkeypatch):
    from uneval.eliminate import elim_document_with_stats
    from uneval.families import gen_family_san, gen_family_sn

    gen = gen_family_sn if kind == "sn" else gen_family_san
    calls = []
    enf_module = importlib.import_module("uneval.enf")

    def counting(real):
        def count(*args):
            calls.append(args)
            return real(*args)

        return count

    # every key built: a branch's own, or a product's from its factors'
    for name in ("branch_key", "product_key"):
        monkeypatch.setattr(enf_module, name, counting(getattr(enf_module, name)))
    for n in range(2, 9):
        doc = gen(n)
        calls.clear()
        _, stats = elim_document_with_stats(doc)
        assert sum(stats.values()) == 2**n - 1
        assert len(calls) == 2**n - 1, (kind, n)


#: Atoms of the seeded close inputs: evaluating ones, a plain assertion,
#: and the units that ``combine`` drops (``true``, ``{}``) or returns alone
#: (``false``).
_CLOSE_ATOMS = (
    {"properties": {"a": True}},
    {"properties": {"b": True}},
    {"patternProperties": {"^x": True}},
    {"prefixItems": [True]},
    {"contains": {"const": 0}},
    {"contains": {"anyOf": [{"const": 1}, {"const": "y"}]}},
    {"required": ["a"]},
    True,
    {},
    False,
)


def _close_input(rng):
    """An anyOf of two to four branches, each an atom, an allOf of up to
    three atoms (repeats allowed) or a nested anyOf of such branches; the
    branches share atoms, so products overlap."""

    def branch(depth):
        roll = rng.random()
        if depth and roll < 0.2:
            return {"anyOf": [branch(depth - 1) for _ in range(rng.randrange(2, 4))]}
        if roll < 0.45:
            return rng.choice(_CLOSE_ATOMS)
        return {"allOf": [rng.choice(_CLOSE_ATOMS) for _ in range(rng.randrange(0, 4))]}

    return {"anyOf": [branch(2) for _ in range(rng.randrange(2, 5))]}


def _close_documents():
    """(document, body) for the corpus, sn/san n = 2..8 and seeded inputs."""
    from uneval.families import gen_family_san, gen_family_sn

    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        yield doc, _enf_able_body(doc)
    for n in range(2, 9):
        for gen in (gen_family_sn, gen_family_san):
            doc = gen(n)
            yield doc, ObjSchema((doc.root.get("anyOf"),))
    rng = random.Random(53)
    for _ in range(400):
        doc = parse_schema(_close_input(rng))
        yield doc, doc.root


def test_close_products_equal_conjoin_and_carry_fresh_bounds(monkeypatch):
    """Every product ``close`` builds has the key, atoms and atom order
    ``conjoin`` gives, in the order ``BranchList.add`` keeps; its bounds are
    recorded as it is built and equal a fresh analyzer's."""
    from uneval.schema import operands

    enf_module = importlib.import_module("uneval.enf")
    real = enf_module.close
    seen = {"products": 0, "false": 0, "unit": 0, "overlap": 0}

    def is_unit(a):
        return isinstance(a, BoolSchema) or not a.keywords

    def checked(an, l1, l2):
        out = real(an, l1, l2)
        for product in out:
            assert id(product) in an._bounds, schema_to_json(product)
        expected = BranchList()
        for s1 in l1:
            for s2 in l2:
                if an.covers(s1, s2) or an.covers(s2, s1):
                    continue
                expected.add(conjoin(s1, s2))
                atoms1, atoms2 = operands(s1, "allOf"), operands(s2, "allOf")
                seen["unit"] += any(map(is_unit, atoms1 + atoms2))
                seen["overlap"] += bool(set(atoms1) & set(atoms2))
        assert [p.key for p in out] == [p.key for p in expected]
        assert list(out._by_key) == list(expected._by_key)
        fresh = Analyzer(an.doc)
        for product in out:
            assert an._of(product)[1:] == fresh._of(product)[1:], schema_to_json(product)
            seen["products"] += 1
            seen["false"] += product == BoolSchema(False)
        return out

    monkeypatch.setattr(enf_module, "close", checked)
    for doc, body in _close_documents():
        EnfBuilder(Analyzer(doc)).enf(body)
    assert all(seen.values()) and seen["products"] > 1000, seen


def test_branchlist_merge_keeps_first_occurrence_and_order():
    ab = parsed({"allOf": [{"properties": {"a": True}}, {"properties": {"b": True}}]})
    ba = parsed({"allOf": [{"properties": {"b": True}}, {"properties": {"a": True}}]})
    left = BranchList([A, ab])
    left.merge(BranchList([C, ba, A, B]))
    assert left.branches == [A, ab, C, B]
    assert left.branches[1] is ab
    empty = BranchList()
    empty.merge(left)
    assert empty.branches == [A, ab, C, B]


def test_enf_size_bound_on_family():
    for n in (2, 3, 4):
        doc, body = sn_body(n)
        subschemas = {canonical_text(s) for s in walk(body)}
        result = enf(doc, body)
        assert len(result.single_keyword("anyOf").value) <= 2 ** len(subschemas)


# ---------------------------------------------------------------------------
# recursion depth of the normalization


def in_place_depth(doc: SchemaDocument, node: Schema | Keyword) -> int:
    """Nesting measure through boolean keywords and references.

    Well defined exactly when recursion is guarded; an unguarded cycle is
    reported as :class:`GuardednessError`.
    """
    memo: dict[int, int] = {}
    in_progress: set[int] = set()
    pins: list = []  # keeps temporary schemas alive so ids stay unique

    def depth_schema(s: Schema) -> int:
        if isinstance(s, BoolSchema):
            return 0
        key = id(s)
        if key in memo:
            return memo[key]
        if key in in_progress:
            raise GuardednessError(["<cycle through in-place keywords>"])
        in_progress.add(key)
        pins.append(s)
        result = max((depth_keyword(kw) for kw in s.keywords), default=0) + 1
        in_progress.discard(key)
        memo[key] = result
        return result

    def depth_keyword(kw: Keyword) -> int:
        if kw.name in ("allOf", "anyOf"):
            return max((depth_schema(s) for s in kw.value), default=0) + 1
        if kw.name == "not":
            return depth_schema(kw.value) + 1
        if kw.name == "oneOf":
            return depth_schema(boolean_one_of(kw.value)) + 1
        if kw.name == "$ref":
            return depth_schema(deref(doc, kw.value)) + 1
        return 0

    if isinstance(node, Keyword):
        return depth_keyword(node)
    return depth_schema(node)


class DepthRecordingBuilder(EnfBuilder):
    """Records the deepest nesting of ``branch_list`` calls, the top call
    being depth 0."""

    def __init__(self, doc):
        super().__init__(Analyzer(doc))
        self.depth = self.max_depth = 0

    def branch_list(self, s):
        self.max_depth = max(self.max_depth, self.depth)
        self.depth += 1
        try:
            return super().branch_list(s)
        finally:
            self.depth -= 1


def test_in_place_depth_bool():
    doc = parse_schema(True)
    assert in_place_depth(doc, doc.root) == 0


def test_in_place_depth_structural():
    doc = parse_schema({"properties": {"a": True}})
    assert in_place_depth(doc, doc.root) == 1


def test_in_place_depth_ref():
    doc = parse_schema({"$ref": "#/$defs/t", "$defs": {"t": True}})
    # the reference keyword sits one level above its target, the schema one
    # above the keyword
    assert in_place_depth(doc, doc.root) == 2


def test_depth_decreases_into_applicator_arguments():
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        for name, top in doc.named_schemas():
            for s in walk(top):
                if not isinstance(s, ObjSchema):
                    continue
                for kw in s.keywords:
                    if kw.name in ("anyOf", "allOf", "oneOf"):
                        for arg in kw.value:
                            assert in_place_depth(doc, kw) > in_place_depth(doc, arg)
                    elif kw.name == "not":
                        assert in_place_depth(doc, kw) > in_place_depth(doc, kw.value)
                    elif kw.name == "$ref":
                        assert in_place_depth(doc, kw) > in_place_depth(
                            doc, deref(doc, kw.value)
                        )



def test_enf_recursion_depth_bounded():
    for n in (2, 3):
        doc, body = sn_body(n)
        builder = DepthRecordingBuilder(doc)
        builder.enf(body)
        assert 0 < builder.max_depth <= in_place_depth(doc, body)
    doc = parse_schema(SALE_CAR)
    body = ObjSchema((doc.root.get("anyOf"),))
    builder = DepthRecordingBuilder(doc)
    builder.enf(body)
    assert 0 < builder.max_depth <= in_place_depth(doc, body)


def _enf_able_body(doc):
    """Root keywords without the annotation-dependent ones."""
    from uneval.schema import ADK_NAMES

    if not isinstance(doc.root, ObjSchema):
        return doc.root
    return ObjSchema(tuple(kw for kw in doc.root.keywords if kw.name not in ADK_NAMES))


def test_enf_shape_and_cover_closure_on_corpus():
    for fixture in load_corpus():
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        body = _enf_able_body(doc)
        result = EnfBuilder(an).enf(body)
        kw = result.single_keyword("anyOf")
        assert kw is not None, fixture.name
        branches = list(kw.value)
        from uneval.enf import branch_key

        by_key = {branch_key(b) for b in branches}
        for b in branches:
            assert an.ex_ep(b) is not None, (fixture.name, schema_to_json(b))
            assert an.ex_ei(b) is not None, (fixture.name, schema_to_json(b))
        # every pair is covered inside the list, or its conjunction is present
        from uneval.analysis import pair_dominates, patterns_dominate
        from uneval.enf import conjoin
        from uneval.schema import operands

        def disjoint_by_negation(b1, b2):
            # branches from an exclusive-choice expansion contain an atom and
            # its negation; no instance satisfies both, so any schema covers
            a1 = {canonical_text(a) for a in operands(b1, "allOf")}
            a2 = {canonical_text(a) for a in operands(b2, "allOf")}
            from uneval.schema import not_

            negated_1 = {canonical_text(not_(a)) for a in operands(b1, "allOf")}
            negated_2 = {canonical_text(not_(a)) for a in operands(b2, "allOf")}
            return bool(a1 & negated_2) or bool(a2 & negated_1)

        def covers_pair(c, b1, b2):
            # satisfaction side: c is a conjunction of the pair's conjuncts
            union_atoms = {canonical_text(a) for a in operands(b1, "allOf")} | {
                canonical_text(a) for a in operands(b2, "allOf")
            }
            if not {canonical_text(a) for a in operands(c, "allOf")} <= union_atoms:
                return False
            # evaluation side: c evaluates at least what either one evaluates
            return all(
                patterns_dominate(an.min_ep(c), an.max_ep(b))
                and pair_dominates(an.min_ei(c), an.max_ei(b))
                for b in (b1, b2)
            )

        for i, b1 in enumerate(branches):
            for b2 in branches[i + 1 :]:
                witnessed = (
                    any(covers_pair(c, b1, b2) for c in branches)
                    or branch_key(conjoin(b1, b2)) in by_key
                    or disjoint_by_negation(b1, b2)
                )
                assert witnessed, (fixture.name, schema_to_json(b1), schema_to_json(b2))


def test_enf_equivalence_on_corpus_sample():
    # full equivalence sweep lives in the acceptance module
    for fixture in load_corpus()[:10]:
        doc = parse_schema(fixture.schema_json)
        body = _enf_able_body(doc)
        result = enf(doc, body)
        for instance in list(small_universe(doc))[:300]:
            assert (
                validate(doc, body, instance).valid
                == validate(doc, result, instance).valid
            ), fixture.name
