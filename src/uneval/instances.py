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

from itertools import combinations, product
from typing import Iterator

from .jsonvalue import JsonValue
from .schema import (
    CONSTRAINS,
    REGEX,
    ObjSchema,
    SchemaDocument,
    distinct_nodes,
    pattern_kind,
)

SCALAR_ALPHABET: tuple[JsonValue, ...] = (None, 0, "x")

MAX_NAMES = 12
MAX_CONCATS = 3
#: the most members of an object, and the most items of an array
MAX_FIELDS = 3
MAX_ITEMS = 3


def universe_inputs(doc: SchemaDocument) -> tuple[list[str], set[str]]:
    """The names the schema can distinguish, sorted, and the JSON types its
    nodes name in ``type`` or constrain by a keyword of
    :data:`~uneval.schema.CONSTRAINS`, from one walk over the document's
    distinct nodes.  The names are the keys of ``properties``, the
    ``required`` names, and the text of each ``patternProperties`` pattern
    that :func:`~uneval.schema.pattern_kind` reads as a nonempty literal:
    exact, prefix or substring, each of which its own text matches."""
    names: set[str] = set()
    types: set[str] = set()
    for s in distinct_nodes((doc.root, *doc.defs.values())):
        if not isinstance(s, ObjSchema):
            continue
        for kw in s.keywords:
            name = kw.name
            types.add(kw.value if name == "type" else CONSTRAINS.get(name))
            if name == "properties" or name == "required":
                names.update(kw.value)
            elif name == "patternProperties":
                for pattern in kw.value:
                    kind, text = pattern_kind(pattern)
                    if text and kind != REGEX:
                        names.add(text)
    types.discard(None)
    return sorted(names), types


def oracle_names(base: list[str]) -> list[str]:
    """The first ``MAX_NAMES`` base names, a few pairwise concatenations,
    and one fresh name."""
    base = base[:MAX_NAMES]
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


def enumerate_instances(doc: SchemaDocument) -> Iterator[JsonValue]:
    """Deterministic instance universe for the given document."""
    base, types = universe_inputs(doc)
    names = oracle_names(base)
    leaf_values: tuple[JsonValue, ...] = SCALAR_ALPHABET + ([],) + ({},)

    for v in leaf_values:
        yield v

    if "object" in types:
        for k in range(1, MAX_FIELDS + 1):
            for keys in combinations(names, k):
                for values in product(leaf_values, repeat=k):
                    yield dict(zip(keys, values))

    if "array" in types:
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
