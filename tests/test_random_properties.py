"""Validator laws on randomized schema/instance pairs."""

import random

from uneval.schema import parse_schema
from uneval.validator import EMPTY_ANNOTATION, validate

from conftest import small_universe
from randgen import gen_instance, gen_schema

SEED = 707


def pairs(count, seed=SEED):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        schema_json = gen_schema(rng, rng.randrange(1, 4))
        try:
            doc = parse_schema(schema_json)
        except Exception:
            continue
        instance = gen_instance(rng, 2)
        produced += 1
        yield doc, instance


def test_double_negation_and_failure_erasure_1000():
    from uneval.schema import Keyword, ObjSchema

    checked = 0
    for doc, instance in pairs(1000):
        base = validate(doc, doc.root, instance)
        if not base.valid:
            assert base.annotation == EMPTY_ANNOTATION
        # not(not(S)) validated against the same document
        wrapped = ObjSchema((Keyword("not", ObjSchema((Keyword("not", doc.root),))),))
        o = validate(doc, wrapped, instance)
        assert o.valid == base.valid
        assert o.annotation == EMPTY_ANNOTATION
        checked += 1
    assert checked == 1000


def test_annotation_soundness_random():
    for doc, instance in pairs(400, seed=SEED + 1):
        o = validate(doc, doc.root, instance)
        if isinstance(instance, dict):
            assert o.annotation.props <= set(instance.keys())
        elif isinstance(instance, list):
            assert o.annotation.items <= set(range(len(instance)))
        else:
            assert o.annotation == EMPTY_ANNOTATION


def test_random_elimination_equivalence():
    """Rewriting agrees with the original on random schemas and a bounded universe."""
    from uneval.eliminate import count_uneval_keywords, elim_document
    from uneval.schema import schema_to_json

    rng = random.Random(SEED + 2)
    produced = 0
    while produced < 200:
        schema_json = gen_schema(rng, rng.randrange(1, 4))
        # force a healthy share of annotation-dependent keywords on top
        if isinstance(schema_json, dict) and rng.random() < 0.6:
            schema_json = dict(schema_json)
            adk = rng.choice(["unevaluatedProperties", "unevaluatedItems"])
            if adk not in schema_json:
                schema_json[adk] = gen_schema(rng, 1, False)
        try:
            doc = parse_schema(schema_json)
        except Exception:
            continue
        produced += 1
        rewritten = elim_document(doc)
        assert count_uneval_keywords(rewritten) == 0
        for instance in list(small_universe(doc))[:250]:
            before = validate(doc, doc.root, instance).valid
            after = validate(rewritten, rewritten.root, instance).valid
            assert before == after, (schema_to_json(doc.root), instance)


def test_random_rewrites_agree_on_every_universe_instance():
    """300 seeded schemas carrying unevaluated*, some with both keywords:
    the rewrite, merged branches and flat conjunctions included, judges
    every instance of the bounded universe as the original does."""
    from uneval.eliminate import count_uneval_keywords, elim_document
    from uneval.schema import schema_to_json

    rng = random.Random(SEED + 3)
    produced = instances = 0
    while produced < 300:
        schema_json = gen_schema(rng, rng.randrange(1, 4))
        if isinstance(schema_json, dict):
            schema_json = dict(schema_json)
            for adk in rng.sample(["unevaluatedProperties", "unevaluatedItems"], rng.randrange(1, 3)):
                schema_json.setdefault(adk, gen_schema(rng, 1, False))
        try:
            doc = parse_schema(schema_json)
        except Exception:
            continue
        if not count_uneval_keywords(doc):
            continue
        produced += 1
        rewritten = elim_document(doc)
        for instance in small_universe(doc):
            instances += 1
            before = validate(doc, doc.root, instance).valid
            after = validate(rewritten, rewritten.root, instance).valid
            assert before == after, (schema_to_json(doc.root), instance)
    assert instances > 30_000
