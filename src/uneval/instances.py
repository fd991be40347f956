"""Bounded exhaustive instance enumeration.

The enumerator is the repository's ground-truth oracle: two schemas are
declared equivalent when they agree on every instance of a small, fully
deterministic universe derived from the schema under test.

Universe shape: the scalar alphabet {null, 0, "x", [], {}}; objects of up
to three fields over the schema's relevant property names plus one fresh
name; arrays of up to three items over the alphabet extended with small
objects, so that content-dependent item evaluation is exercised.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from typing import Iterator

from .jsonvalue import JsonValue
from .schema import (
    ObjSchema,
    Schema,
    SchemaDocument,
    distinct_nodes,
)

SCALAR_ALPHABET: tuple[JsonValue, ...] = (None, 0, "x")

_LITERAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*")
_ANCHORED_RE = re.compile(r"\^([A-Za-z0-9_][A-Za-z0-9_-]*)\$")

MAX_NAMES = 12
MAX_CONCATS = 3
#: the most members of an object, and the most items of an array
MAX_FIELDS = 3
MAX_ITEMS = 3


def pattern_literal(pattern: str) -> str | None:
    """The literal name a pattern denotes, if it is metacharacter-free."""
    m = _ANCHORED_RE.fullmatch(pattern)
    if m:
        return m.group(1)
    if _LITERAL_RE.fullmatch(pattern):
        return pattern
    return None


def _document_nodes(doc: SchemaDocument) -> list[Schema]:
    """Each node of the document once; the callers below only collect a
    set, a maximum or a yes/no, so the order does not matter."""
    return distinct_nodes((doc.root, *doc.defs.values()))


def relevant_property_names(doc: SchemaDocument) -> list[str]:
    """Names the schema can distinguish: literal keys, requireds, patterns."""
    names: set[str] = set()
    for s in _document_nodes(doc):
        if not isinstance(s, ObjSchema):
            continue
        for kw in s.keywords:
            if kw.name == "properties":
                names.update(kw.value.keys())
            elif kw.name == "required":
                names.update(kw.value)
            elif kw.name == "patternProperties":
                for p in kw.value:
                    lit = pattern_literal(p)
                    if lit is not None:
                        names.add(lit)
    return sorted(names)


def oracle_names(doc: SchemaDocument) -> list[str]:
    """Base names, a few pairwise concatenations, and one fresh name."""
    base = relevant_property_names(doc)[:MAX_NAMES]
    names = list(base)
    concats = []
    for a, b in combinations(base, 2):
        if len(concats) >= MAX_CONCATS:
            break
        concats.append(a + b)
    for extra in concats:
        if len(names) < MAX_NAMES and extra not in names:
            names.append(extra)
    if "_" not in names:
        names.append("_")
    return names


def _uses(doc: SchemaDocument, keyword_names: tuple[str, ...]) -> bool:
    for s in _document_nodes(doc):
        if isinstance(s, ObjSchema):
            for kw in s.keywords:
                if kw.name in keyword_names:
                    return True
                if kw.name == "type" and kw.value in keyword_names:
                    return True
    return False


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


def enumerate_instances(doc: SchemaDocument) -> Iterator[JsonValue]:
    """Deterministic instance universe for the given document."""
    names = oracle_names(doc)
    leaf_values: tuple[JsonValue, ...] = SCALAR_ALPHABET + ([],) + ({},)

    for v in leaf_values:
        yield v

    if _uses(doc, OBJECT_KEYWORDS):
        for k in range(1, MAX_FIELDS + 1):
            for keys in combinations(names, k):
                for values in product(leaf_values, repeat=k):
                    yield dict(zip(keys, values))

    if _uses(doc, ARRAY_KEYWORDS):
        # small objects as array items: content-driven evaluation needs them
        item_objects: list[JsonValue] = [{}]
        for k in (1, 2):
            for keys in combinations(names[: min(len(names), 4)], k):
                for values in product(SCALAR_ALPHABET, repeat=k):
                    item_objects.append(dict(zip(keys, values)))
        full_pool: list[JsonValue] = list(leaf_values) + item_objects
        reduced_pool: list[JsonValue] = list(leaf_values) + [
            {name: None} for name in names[: min(len(names), 4)]
        ]
        for length in range(1, MAX_ITEMS + 1):
            pool = full_pool if length <= 2 else reduced_pool
            for items in product(pool, repeat=length):
                yield list(items)
