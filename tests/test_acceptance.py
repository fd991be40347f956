"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import random
import statistics
import time

from uneval.analysis import Analyzer
from uneval.difftest import difftest
from uneval.eliminate import count_uneval_keywords, elim_document
from uneval.enf import EnfBuilder
from uneval.families import gen_family_san, gen_family_sn
from uneval.instances import enumerate_instances
from uneval.jsonvalue import serialize_json
from uneval.schema import ObjSchema, parse_schema, serialize_schema
from uneval.validator import EMPTY_ANNOTATION, validate

from bounds import matches, satisfied_by
from conftest import load_corpus, load_suite, small_universe
from randgen import gen_instance, gen_schema
from test_instances import relevant_size

CORPUS = load_corpus()


def report(n, text):
    print(f"\ncriterion {n}: PASS - {text}")


def test_criterion_01_official_suite_subset():
    """Suite cases for the six target keywords all validate correctly."""
    total = failures = 0
    for stem, group in load_suite():
        doc = parse_schema(group["schema"])
        for case in group["tests"]:
            total += 1
            if validate(doc, doc.root, case["data"]).valid != case["valid"]:
                failures += 1
    assert failures == 0
    assert total >= 100
    report(1, f"test-suite subset: {total}/{total} cases")


def test_criterion_02_curated_equivalence():
    disagreements = 0
    runs = 0
    for fixture in CORPUS:
        doc = parse_schema(fixture.schema_json)
        result = difftest(
            doc, instances=fixture.valid + fixture.invalid, schema_id=fixture.name
        )
        runs += 1
        disagreements += result.disagree
    assert disagreements == 0
    report(2, f"curated witnesses: 0 disagreements across {runs} schemas")


def test_criterion_03_exhaustive_equivalence():
    started = time.perf_counter()
    schemas = instances = 0
    for fixture in CORPUS:
        doc = parse_schema(fixture.schema_json)
        if relevant_size(doc) > 12:
            continue
        result = difftest(doc, schema_id=fixture.name)
        assert result.disagree == 0, (fixture.name, result.disagreements[:3])
        schemas += 1
        instances += result.instances_total
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"oracle sweep took {elapsed:.0f}s"
    report(
        3,
        f"exhaustive oracle: {schemas} schemas, {instances} instances, "
        f"{elapsed:.1f}s, 0 disagreements",
    )


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

PRINTED_OUTPUT = {
    "items": {
        "anyOf": [
            {"allOf": [{"$ref": "#sale"},
                       {"patternProperties": {"^price$": {}},
                        "additionalProperties": False}]},
            {"allOf": [{"$ref": "#car"},
                       {"patternProperties": {"^model$": {}},
                        "additionalProperties": False}]},
            {"allOf": [{"allOf": [{"$ref": "#sale"}, {"$ref": "#car"}]},
                       {"patternProperties": {"^price$": {}, "^model$": {}},
                        "additionalProperties": False}]},
        ]
    },
    "$defs": WORKED["$defs"],
}


def test_criterion_04_worked_example_fidelity():
    doc = parse_schema(WORKED)
    out = elim_document(doc)
    rewritten = out.defs["__uneval_0"]
    sets = []
    for branch in rewritten.single_keyword("anyOf").value:
        wrap = branch.single_keyword("allOf").value[-1]
        sets.append(set(wrap.get("patternProperties").value.keys()))
    assert sets == [{"^price$"}, {"^model$"}, {"^model$", "^price$"}]

    expected = parse_schema(PRINTED_OUTPUT)
    cases = 0
    for instance in enumerate_instances(doc):
        cases += 1
        want = validate(expected, expected.root, instance).valid
        assert validate(doc, doc.root, instance).valid == want
        assert validate(out, out.root, instance).valid == want
    report(4, f"worked example: branch sets match, equivalent on {cases} instances")


def test_criterion_05_exponential_family():
    for n in (2, 3, 4):
        doc = gen_family_sn(n)
        body = ObjSchema((doc.root.get("anyOf"),))
        normalized = EnfBuilder(Analyzer(doc)).enf(body)
        assert len(normalized.single_keyword("anyOf").value) == 2**n - 1
        result = difftest(doc, schema_id=f"S{n}")
        assert result.disagree == 0, result.disagreements[:3]
    for n in (1, 2):
        result = difftest(gen_family_san(n), schema_id=f"SA{n}")
        assert result.disagree == 0, result.disagreements[:3]
    report(5, "families: 2^n - 1 branches (n=2..4), rewrites equivalent")


def test_criterion_06_no_residual():
    for fixture in CORPUS:
        doc = parse_schema(fixture.schema_json)
        assert count_uneval_keywords(elim_document(doc)) == 0, fixture.name
    report(6, f"no residual unevaluated* across {len(CORPUS)} rewritten schemas")


def test_criterion_07_bound_soundness():
    checked = 0
    for fixture in CORPUS:
        doc = parse_schema(fixture.schema_json)
        an = Analyzer(doc)
        lo_p, hi_p = an.min_ep(doc.root), an.max_ep(doc.root)
        lo_i, hi_i = an.min_ei(doc.root), an.max_ei(doc.root)
        for instance in small_universe(doc):
            o = validate(doc, doc.root, instance)
            if not o.valid:
                continue
            checked += 1
            if isinstance(instance, dict):
                for name in instance:
                    if matches(lo_p, name):
                        assert name in o.annotation.props, (fixture.name, instance)
                for name in o.annotation.props:
                    assert matches(hi_p, name), (fixture.name, instance)
            elif isinstance(instance, list):
                for pos, item in enumerate(instance):
                    if satisfied_by(doc, lo_i, pos, item):
                        assert pos in o.annotation.items, (fixture.name, instance)
                for pos in o.annotation.items:
                    assert satisfied_by(doc, hi_i, pos, instance[pos]), (
                        fixture.name,
                        instance,
                    )
    assert checked > 1000
    report(7, f"evaluation bounds sound on {checked} valid instances")


def test_criterion_08_performance():
    timings = []
    for fixture in CORPUS:
        doc = parse_schema(fixture.schema_json)
        if len(serialize_json(serialize_schema(doc))) > 10_000:
            continue
        started = time.perf_counter()
        elim_document(doc)
        timings.append((time.perf_counter() - started) * 1000.0)
    median = statistics.median(timings)
    assert median < 50.0, f"median rewrite time {median:.2f} ms"
    report(8, f"median rewrite time {median:.3f} ms over {len(timings)} schemas")


def test_criterion_09_size_ratio():
    ratios = []
    for fixture in CORPUS:
        if fixture.adversarial:
            continue
        doc = parse_schema(fixture.schema_json)
        before = len(serialize_json(serialize_schema(doc)))
        after = len(serialize_json(serialize_schema(elim_document(doc))))
        ratios.append(after / before)
    median = statistics.median(ratios)
    assert median <= 5.0, f"median size ratio {median:.2f}"
    report(9, f"median size ratio {median:.2f} over {len(ratios)} schemas")


def test_criterion_10_randomized_validator_laws():
    from uneval.schema import Keyword

    rng = random.Random(424242)
    produced = 0
    while produced < 1000:
        schema_json = gen_schema(rng, rng.randrange(1, 4))
        try:
            doc = parse_schema(schema_json)
        except Exception:
            continue
        instance = gen_instance(rng, 2)
        produced += 1
        base = validate(doc, doc.root, instance)
        if not base.valid:
            assert base.annotation == EMPTY_ANNOTATION
        wrapped = ObjSchema((Keyword("not", ObjSchema((Keyword("not", doc.root),))),))
        doubled = validate(doc, wrapped, instance)
        assert doubled.valid == base.valid
        assert doubled.annotation == EMPTY_ANNOTATION
    report(10, "double negation and failure erasure on 1000 random pairs")
