"""Annotation-aware JSON Schema validation and unevaluated* elimination.

The names below are the public surface; everything else lives in the
submodules and may change between versions.
"""

from .analysis import Analyzer
from .difftest import DiffReport, difftest
from .eliminate import count_uneval_keywords, elim_document, elim_document_with_stats
from .enf import enf
from .errors import (
    DuplicateKeyError,
    EliminationError,
    GuardednessError,
    JsonParseError,
    NestingDepthError,
    RefResolutionError,
    SchemaParseError,
    UnevalError,
)
from .families import gen_family_san, gen_family_sn
from .instances import enumerate_instances
from .jsonvalue import parse_json, serialize_json
from .schema import SchemaDocument, find_unguarded_cycle, parse_schema, serialize_schema
from .validator import ValidationOutcome, validate

__all__ = [
    "parse_json",
    "serialize_json",
    "parse_schema",
    "serialize_schema",
    "SchemaDocument",
    "find_unguarded_cycle",
    "validate",
    "ValidationOutcome",
    "elim_document",
    "elim_document_with_stats",
    "count_uneval_keywords",
    "enf",
    "Analyzer",
    "enumerate_instances",
    "difftest",
    "DiffReport",
    "gen_family_sn",
    "gen_family_san",
    "UnevalError",
    "JsonParseError",
    "DuplicateKeyError",
    "SchemaParseError",
    "RefResolutionError",
    "GuardednessError",
    "EliminationError",
    "NestingDepthError",
    "main",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``main`` is imported on first use, so that ``python -m uneval.cli``
    # does not find ``uneval.cli`` already imported by its package
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
