"""Annotation-aware validation.

Validating an instance against a schema returns a boolean plus an
*annotation*: the set of object properties and array positions that were
evaluated by structural keywords.  Boolean applicators transmit the union
of their branches' annotations (all branches run, no short-circuit); a
failing schema forgets the annotation it produced.  The two
``unevaluated*`` keywords consume the annotation accumulated by the
keywords before them and re-check whatever the annotation missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .jsonvalue import (
    JsonValue,
    is_integer_valued,
    is_number,
    json_equal,
    type_of,
)
from .schema import (
    ADK_NAMES,
    INF,
    BoolSchema,
    Keyword,
    Schema,
    SchemaDocument,
    SDK_NAMES,
    deref,
    pattern_matches,
)


@dataclass(frozen=True)
class Annotation:
    """Evaluated property names and evaluated item positions (0-based)."""

    props: frozenset[str] = frozenset()
    items: frozenset[int] = frozenset()

    def union(self, other: "Annotation") -> "Annotation":
        if not other.props and not other.items:
            return self
        if not self.props and not self.items:
            return other
        return Annotation(self.props | other.props, self.items | other.items)


EMPTY_ANNOTATION = Annotation()


@dataclass(frozen=True)
class ValidationOutcome:
    valid: bool
    annotation: Annotation

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "evaluatedProperties": sorted(self.annotation.props),
            "evaluatedItems": sorted(self.annotation.items),
        }


def validate(doc: SchemaDocument, schema: Schema, instance: JsonValue) -> ValidationOutcome:
    """Apply a schema to an instance; a failing schema yields no annotation."""
    if isinstance(schema, BoolSchema):
        return ValidationOutcome(schema.value, EMPTY_ANNOTATION)
    ok, ann = validate_keyword_list(doc, schema.keywords, instance)
    return ValidationOutcome(ok, ann if ok else EMPTY_ANNOTATION)


def validate_keyword_list(
    doc: SchemaDocument, keywords: Sequence[Keyword], instance: JsonValue
) -> tuple[bool, Annotation]:
    """Left fold over a canonically ordered keyword list.

    The empty list accepts with an empty annotation.  Dependent keywords
    receive the fold state accumulated by the keywords before them.
    """
    ok = True
    ann = EMPTY_ANNOTATION
    bounds = _contains_bounds(keywords)
    for idx, kw in enumerate(keywords):
        if kw.name in SDK_NAMES or kw.name in ADK_NAMES:
            r, contributed = _dependent_step(doc, keywords[:idx], kw, instance, ann)
        elif kw.name == "contains":
            r, contributed = _contains_triple(doc, kw.value, bounds, instance)
        else:
            r, contributed = validate_keyword(doc, kw, instance)
        ok = ok and r
        ann = ann.union(contributed)
    return ok, ann


def _contains_bounds(keywords: Iterable[Keyword]) -> tuple[int, float]:
    lo, hi = 1, INF
    for kw in keywords:
        if kw.name == "minContains":
            lo = kw.value
        elif kw.name == "maxContains":
            hi = kw.value
    return lo, hi


def validate_keyword(
    doc: SchemaDocument, kw: Keyword, instance: JsonValue
) -> tuple[bool, Annotation]:
    """Judgment for one independent keyword.

    Typed terminal keywords accept trivially on instances of other types.
    A bare ``contains`` keyword uses the default occurrence bounds.
    """
    name = kw.name
    ty = type_of(instance)

    if name in ("anyOf", "allOf", "oneOf"):
        outcomes = [validate(doc, s, instance) for s in kw.value]
        ann = EMPTY_ANNOTATION
        for o in outcomes:
            ann = ann.union(o.annotation)
        if name == "allOf":
            r = all(o.valid for o in outcomes)
        elif name == "anyOf":
            r = any(o.valid for o in outcomes)
        else:
            r = sum(1 for o in outcomes if o.valid) == 1
        return r, ann
    if name == "not":
        o = validate(doc, kw.value, instance)
        return (not o.valid), o.annotation
    if name == "$ref":
        o = validate(doc, deref(doc, kw.value), instance)
        return o.valid, o.annotation

    if name == "const":
        return json_equal(instance, kw.value), EMPTY_ANNOTATION
    if name == "type":
        if kw.value == "integer":
            return is_integer_valued(instance), EMPTY_ANNOTATION
        return ty == kw.value, EMPTY_ANNOTATION
    if name == "minimum":
        return (not is_number(instance)) or instance >= kw.value, EMPTY_ANNOTATION
    if name == "maximum":
        return (not is_number(instance)) or instance <= kw.value, EMPTY_ANNOTATION
    if name == "pattern":
        if ty != "string":
            return True, EMPTY_ANNOTATION
        return pattern_matches(kw.value, instance), EMPTY_ANNOTATION

    if name == "properties":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        matched = set()
        r = True
        for field, value in instance.items():
            sub = kw.value.get(field)
            if sub is not None:
                matched.add(field)
                r = validate(doc, sub, value).valid and r
        return r, Annotation(props=frozenset(matched))
    if name == "patternProperties":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        matched = set()
        r = True
        for field, value in instance.items():
            for pattern, sub in kw.value.items():
                if pattern_matches(pattern, field):
                    matched.add(field)
                    r = validate(doc, sub, value).valid and r
        return r, Annotation(props=frozenset(matched))
    if name == "required":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        return all(k in instance for k in kw.value), EMPTY_ANNOTATION
    if name == "propertyNames":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        return (
            all(validate(doc, kw.value, k).valid for k in instance),
            EMPTY_ANNOTATION,
        )
    if name == "minProperties":
        return ty != "object" or len(instance) >= kw.value, EMPTY_ANNOTATION
    if name == "maxProperties":
        return ty != "object" or len(instance) <= kw.value, EMPTY_ANNOTATION

    if name == "prefixItems":
        if ty != "array":
            return True, EMPTY_ANNOTATION
        upto = min(len(kw.value), len(instance))
        r = all(validate(doc, kw.value[i], instance[i]).valid for i in range(upto))
        return r, Annotation(items=frozenset(range(upto)))
    if name == "contains":
        return _contains_triple(doc, kw.value, (1, INF), instance)
    if name == "minItems":
        return ty != "array" or len(instance) >= kw.value, EMPTY_ANNOTATION
    if name == "maxItems":
        return ty != "array" or len(instance) <= kw.value, EMPTY_ANNOTATION
    if name == "uniqueItems":
        if ty != "array" or not kw.value:
            return True, EMPTY_ANNOTATION
        for i in range(len(instance)):
            for j in range(i + 1, len(instance)):
                if json_equal(instance[i], instance[j]):
                    return False, EMPTY_ANNOTATION
        return True, EMPTY_ANNOTATION

    # $anchor, minContains, maxContains (handled with contains), unknown
    # keywords: ignored during validation
    return True, EMPTY_ANNOTATION


def _contains_triple(
    doc: SchemaDocument,
    schema: Schema,
    bounds: tuple[int, float],
    instance: JsonValue,
) -> tuple[bool, Annotation]:
    """contains + minContains + maxContains act as one keyword."""
    if type_of(instance) != "array":
        return True, EMPTY_ANNOTATION
    lo, hi = bounds
    hits = frozenset(
        i for i, item in enumerate(instance) if validate(doc, schema, item).valid
    )
    return (lo <= len(hits) <= hi), Annotation(items=hits)


def _props_of(keywords: Sequence[Keyword]):
    """Matcher for names covered by adjacent properties/patternProperties."""
    names: set[str] = set()
    patterns: list[str] = []
    for kw in keywords:
        if kw.name == "properties":
            names.update(kw.value.keys())
        elif kw.name == "patternProperties":
            patterns.extend(kw.value.keys())

    def covered(field: str) -> bool:
        return field in names or any(pattern_matches(p, field) for p in patterns)

    return covered


def _prefix_len_of(keywords: Sequence[Keyword]) -> int:
    for kw in keywords:
        if kw.name == "prefixItems":
            return len(kw.value)
    return 0


def _dependent_step(
    doc: SchemaDocument,
    prefix: Sequence[Keyword],
    kw: Keyword,
    instance: JsonValue,
    prefix_annotation: Annotation,
) -> tuple[bool, Annotation]:
    ty = type_of(instance)
    sub = kw.value
    if kw.name == "additionalProperties":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        covered = _props_of(prefix)
        r = all(
            validate(doc, sub, value).valid
            for field, value in instance.items()
            if not covered(field)
        )
        return r, Annotation(props=frozenset(instance.keys()))
    if kw.name == "items":
        if ty != "array":
            return True, EMPTY_ANNOTATION
        start = _prefix_len_of(prefix)
        r = all(
            validate(doc, sub, instance[i]).valid
            for i in range(start, len(instance))
        )
        return r, Annotation(items=frozenset(range(len(instance))))
    if kw.name == "unevaluatedProperties":
        if ty != "object":
            return True, EMPTY_ANNOTATION
        r = all(
            validate(doc, sub, value).valid
            for field, value in instance.items()
            if field not in prefix_annotation.props
        )
        return r, Annotation(props=frozenset(instance.keys()))
    if kw.name == "unevaluatedItems":
        if ty != "array":
            return True, EMPTY_ANNOTATION
        r = all(
            validate(doc, sub, instance[i]).valid
            for i in range(len(instance))
            if i not in prefix_annotation.items
        )
        return r, Annotation(items=frozenset(range(len(instance))))
    raise AssertionError(f"not a dependent keyword: {kw.name}")
