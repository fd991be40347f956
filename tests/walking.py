"""Recursive walks over schema trees, one visit per node occurrence.

The package visits each distinct node once (``schema.distinct_nodes``);
tests that count or check every occurrence use these instead.
"""

from typing import Iterator

from uneval.schema import Schema, SchemaDocument, child_schemas


def walk(s: Schema) -> Iterator[Schema]:
    """The schema and all of its nested subschemas, pre-order."""
    yield s
    for _, child in child_schemas(s):
        yield from walk(child)


def document_schemas(doc: SchemaDocument) -> Iterator[Schema]:
    """Every node occurrence of every named schema, in walk order."""
    for _, top in doc.named_schemas():
        yield from walk(top)
