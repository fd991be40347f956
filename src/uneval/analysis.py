"""Static characterization of evaluated properties and items.

For a schema S the analysis computes:

* a lower and an upper bound on the property names S evaluates, as finite
  sets of unanchored patterns (``min_ep``/``max_ep``);
* a lower and an upper bound on the array positions S evaluates, as a
  pair (h, guard): an item is covered when its 1-based position is <= h
  or its value satisfies the guard schema (``min_ei``/``max_ei``).

When the two bounds coincide under the (sound, syntactic) ``eq``
relation, the schema is *statically characterized* and ``ex_ep``/``ex_ei``
return the exact set/pair; otherwise they return ``None``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .schema import (
    INF,
    BoolSchema,
    Keyword,
    Schema,
    SchemaDocument,
    TRUE_SCHEMA,
    FALSE_SCHEMA,
    combine,
    deref,
    operands,
)


def exact_pattern(name: str) -> str:
    """Anchored pattern matching exactly one property name."""
    return "^" + re.escape(name) + "$"


@dataclass(frozen=True, slots=True)
class PatternSet:
    """A finite union of unanchored patterns."""

    patterns: frozenset[str]

    @property
    def contains_dotstar(self) -> bool:
        return ".*" in self.patterns


EMPTY_PATTERNS = PatternSet(frozenset())
DOTSTAR_PATTERNS = PatternSet(frozenset({".*"}))


@dataclass(frozen=True, slots=True)
class EvalPair:
    """Item-evaluation bound: positions <= h (1-based) or values in guard."""

    h: int | float
    guard: Schema


def eq_patterns(a: PatternSet, b: PatternSet) -> bool:
    """Sound under-approximation of language equality.

    Syntactic set equality, extended so that any two sets containing the
    absorbing pattern ``.*`` compare equal.
    """
    if a.patterns == b.patterns:
        return True
    return a.contains_dotstar and b.contains_dotstar


def eq_pairs(a: EvalPair, b: EvalPair) -> bool:
    """Component-wise: equal bound and equal guard nodes."""
    return a.h == b.h and a.guard == b.guard


def _norm_pair(h: int | float, guard: Schema) -> EvalPair:
    # (inf, G) and (h, true) both cover every item of every array
    if h == INF or (isinstance(guard, BoolSchema) and guard.value):
        return EvalPair(INF, TRUE_SCHEMA)
    return EvalPair(h, guard)


ZERO_PAIR = EvalPair(0, FALSE_SCHEMA)
ALL_PAIR = EvalPair(INF, TRUE_SCHEMA)


def _combine_union(pairs: list[EvalPair]) -> EvalPair:
    """Bound for 'evaluated by some conjunct': max h, disjoined guards."""
    if not pairs:
        return ZERO_PAIR
    if len(pairs) == 1:
        return pairs[0]
    guard = combine([p.guard for p in pairs], FALSE_SCHEMA)
    return _norm_pair(max(p.h for p in pairs), guard)


def _combine_intersection(pairs: list[EvalPair]) -> EvalPair:
    """Bound for 'evaluated whichever branch holds': min h, conjoined guards."""
    if not pairs:
        return ZERO_PAIR
    if len(pairs) == 1:
        return pairs[0]
    guard = combine([p.guard for p in pairs], TRUE_SCHEMA)
    return _norm_pair(min(p.h for p in pairs), guard)


def _combine_patterns(sets: list[PatternSet]) -> PatternSet:
    """Bound for 'evaluated by some conjunct': one union of the parts."""
    return PatternSet(frozenset().union(*[p.patterns for p in sets]))


def _union_bounds(bounds: list[tuple], combine_parts) -> tuple:
    """Bounds of a conjunction: ``combine_parts`` of its parts' lower and
    of their upper bounds, built once when every part's two bounds are one
    object."""
    lo = combine_parts([klo for klo, _ in bounds])
    if all(klo is khi for klo, khi in bounds):
        return lo, lo
    return lo, combine_parts([khi for _, khi in bounds])


class Analyzer:
    """Bound computations over one document, memoized per schema node.

    Each bound family is a pair (lower, upper) computed in one walk per
    distinct node and memoized by the node's ``id``: ``ep`` for property
    patterns, ``ei`` for item pairs.  Where the two bounds cannot differ
    they are one object: every keyword but ``anyOf``/``oneOf``, and every
    ``allOf``, ``$ref`` or keyword list whose parts each have one object
    for both bounds (an ``anyOf``/``oneOf`` too, when all its branches
    share one such object).  ``ex_ep``/``ex_ei`` then answer by identity
    before comparing, and an item walk builds no second guard node.
    """

    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        # id -> (node, lower, upper); the node reference keeps ids from
        # being reused
        self._ep: dict[int, tuple[Schema, PatternSet, PatternSet]] = {}
        self._ei: dict[int, tuple[Schema, EvalPair, EvalPair]] = {}

    # -- property bounds

    def _ep_of(self, s: Schema) -> tuple[Schema, PatternSet, PatternSet]:
        hit = self._ep.get(id(s))
        if hit is None or hit[0] is not s:
            if isinstance(s, BoolSchema):
                hit = (s, EMPTY_PATTERNS, EMPTY_PATTERNS)
            else:
                parts = [self._ep_keyword(kw) for kw in s.keywords]
                hit = (s, *_union_bounds(parts, _combine_patterns))
            self._ep[id(s)] = hit
        return hit

    def min_ep(self, s: Schema) -> PatternSet:
        return self._ep_of(s)[1]

    def max_ep(self, s: Schema) -> PatternSet:
        return self._ep_of(s)[2]

    def _ep_keyword(self, kw: Keyword) -> tuple[PatternSet, PatternSet]:
        name = kw.name
        if name == "properties":
            p = PatternSet(frozenset(exact_pattern(k) for k in kw.value))
            return p, p
        if name == "patternProperties":
            p = PatternSet(frozenset(kw.value.keys()))
            return p, p
        if name in ("additionalProperties", "unevaluatedProperties"):
            return DOTSTAR_PATTERNS, DOTSTAR_PATTERNS
        if name == "$ref":
            return self._ep_of(deref(self.doc, kw.value))[1:]
        if name == "allOf":
            return _union_bounds([self._ep_of(b)[1:] for b in kw.value], _combine_patterns)
        if name in ("anyOf", "oneOf"):
            entries = [self._ep_of(b) for b in kw.value]
            if not entries:
                return EMPTY_PATTERNS, EMPTY_PATTERNS
            lo = entries[0][1]
            if all(blo is lo and bhi is lo for _, blo, bhi in entries):
                return lo, lo
            return (
                PatternSet(frozenset.intersection(*[blo.patterns for _, blo, _ in entries])),
                _combine_patterns([bhi for _, _, bhi in entries]),
            )
        return EMPTY_PATTERNS, EMPTY_PATTERNS

    # -- item bounds

    def _ei_of(self, s: Schema) -> tuple[Schema, EvalPair, EvalPair]:
        hit = self._ei.get(id(s))
        if hit is None or hit[0] is not s:
            if isinstance(s, BoolSchema):
                hit = (s, ZERO_PAIR, ZERO_PAIR)
            else:
                # adjacent keywords conjoin, so their evaluations accumulate
                parts = [self._ei_keyword(kw) for kw in s.keywords]
                hit = (s, *_union_bounds(parts, _combine_union))
            self._ei[id(s)] = hit
        return hit

    def min_ei(self, s: Schema) -> EvalPair:
        return self._ei_of(s)[1]

    def max_ei(self, s: Schema) -> EvalPair:
        return self._ei_of(s)[2]

    def _ei_keyword(self, kw: Keyword) -> tuple[EvalPair, EvalPair]:
        name = kw.name
        if name == "prefixItems":
            p = EvalPair(len(kw.value), FALSE_SCHEMA)
            return p, p
        if name == "contains":
            p = _norm_pair(0, kw.value)
            return p, p
        if name in ("items", "unevaluatedItems"):
            return ALL_PAIR, ALL_PAIR
        if name == "$ref":
            return self._ei_of(deref(self.doc, kw.value))[1:]
        if name == "allOf":
            return _union_bounds([self._ei_of(b)[1:] for b in kw.value], _combine_union)
        if name in ("anyOf", "oneOf"):
            entries = [self._ei_of(b) for b in kw.value]
            if not entries:
                return ZERO_PAIR, ZERO_PAIR
            lo = entries[0][1]
            if all(blo is lo and bhi is lo for _, blo, bhi in entries):
                return lo, lo
            return (
                _combine_intersection([blo for _, blo, _ in entries]),
                _combine_union([bhi for _, _, bhi in entries]),
            )
        return ZERO_PAIR, ZERO_PAIR

    # -- exact characterizations

    def ex_ep(self, s: Schema) -> PatternSet | None:
        _, lo, hi = self._ep_of(s)
        return lo if lo is hi or eq_patterns(lo, hi) else None

    def ex_ei(self, s: Schema) -> EvalPair | None:
        _, lo, hi = self._ei_of(s)
        return lo if lo is hi or eq_pairs(lo, hi) else None

    def is_characterized(self, s: Schema) -> bool:
        return self.ex_ep(s) is not None and self.ex_ei(s) is not None

    # -- covering

    def covers(self, s1: Schema, s2: Schema) -> bool:
        """Provable 'p-covers and i-covers': s1 covers the pair (s1, s2).

        Sound but incomplete: True guarantees that on any instance
        satisfying both schemas, s1 evaluates everything s2 evaluates;
        False only means the cover could not be proven.
        """
        return patterns_dominate(self._ep_of(s1)[1], self._ep_of(s2)[2]) and pair_dominates(
            self._ei_of(s1)[1], self._ei_of(s2)[2]
        )


def patterns_dominate(lo: PatternSet, hi: PatternSet) -> bool:
    """Prove language containment hi <= lo: absorbing .* or verbatim subset."""
    return lo.contains_dotstar or hi.patterns <= lo.patterns


def guard_implies(premise: Schema, conclusion: Schema) -> bool:
    """Sound syntactic implication between guard schemas."""
    if isinstance(conclusion, BoolSchema) and conclusion.value:
        return True
    if isinstance(premise, BoolSchema) and not premise.value:
        return True
    if premise == conclusion:
        return True
    # a disjunction follows from any sub-disjunction of its branches
    return frozenset(operands(premise, "anyOf")) <= frozenset(operands(conclusion, "anyOf"))


def pair_dominates(lo: EvalPair, hi: EvalPair) -> bool:
    """Prove that every item satisfying hi also satisfies lo."""
    if isinstance(lo.guard, BoolSchema) and lo.guard.value:
        return True
    if lo.h < hi.h:
        return False
    if isinstance(hi.guard, BoolSchema) and not hi.guard.value:
        return True
    return guard_implies(hi.guard, lo.guard)
