"""Membership in the analysis's evaluation bounds, decided at run time.

The analysis only compares bounds with one another; the tests that check
a bound against the validator's annotation decide, per property name or
array item, whether the bound holds it.
"""

from uneval.analysis import EvalPair, PatternSet
from uneval.schema import SchemaDocument, pattern_matches
from uneval.validator import validate


def matches(patterns: PatternSet, name: str) -> bool:
    """Whether some pattern of the set matches ``name``, unanchored."""
    return any(pattern_matches(p, name) for p in patterns.patterns)


def satisfied_by(doc: SchemaDocument, pair: EvalPair, position: int, item) -> bool:
    """Whether the item at the 0-based ``position`` is covered: it lies
    within the pair's bound, or the validator accepts it under the guard."""
    return position < pair.h or validate(doc, pair.guard, item).valid
