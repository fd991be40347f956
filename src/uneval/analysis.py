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
    ObjSchema,
    Schema,
    SchemaDocument,
    TRUE_SCHEMA,
    FALSE_SCHEMA,
    all_of,
    any_of,
    compile_pattern,
    deref,
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

    def matches(self, name: str) -> bool:
        return any(compile_pattern(p).search(name) for p in self.patterns)

    def union(self, other: "PatternSet") -> "PatternSet":
        return PatternSet(self.patterns | other.patterns)

    def intersection(self, other: "PatternSet") -> "PatternSet":
        return PatternSet(self.patterns & other.patterns)


EMPTY_PATTERNS = PatternSet(frozenset())
DOTSTAR_PATTERNS = PatternSet(frozenset({".*"}))


@dataclass(frozen=True, slots=True)
class EvalPair:
    """Item-evaluation bound: positions <= h (1-based) or values in guard."""

    h: int | float
    guard: Schema

    def satisfied_by(self, doc: SchemaDocument, position: int, item) -> bool:
        """0-based position; defers to the validator for the guard."""
        from .validator import validate

        if position < self.h:
            return True
        return validate(doc, self.guard, item).valid


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


def _guard_combine(guards: list[Schema], unit: BoolSchema) -> Schema:
    """Disjunction (unit ``false``) or conjunction (unit ``true``) of guards,
    with constant folding and deduplication."""
    kept = list(dict.fromkeys(g for g in guards if g != unit))
    for g in kept:
        if isinstance(g, BoolSchema):
            return g  # the absorbing constant
    if not kept:
        return unit
    if len(kept) == 1:
        return kept[0]
    return all_of(kept) if unit.value else any_of(kept)


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
    guard = _guard_combine([p.guard for p in pairs], FALSE_SCHEMA)
    return _norm_pair(max(p.h for p in pairs), guard)


def _combine_intersection(pairs: list[EvalPair]) -> EvalPair:
    """Bound for 'evaluated whichever branch holds': min h, conjoined guards."""
    if not pairs:
        return ZERO_PAIR
    if len(pairs) == 1:
        return pairs[0]
    guard = _guard_combine([p.guard for p in pairs], TRUE_SCHEMA)
    return _norm_pair(min(p.h for p in pairs), guard)


class Analyzer:
    """Bound computations over one document, memoized per schema node."""

    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        # one memo per bound, id -> (node, value); the node reference keeps
        # ids from being reused
        self._min_ep: dict[int, tuple[Schema, PatternSet]] = {}
        self._max_ep: dict[int, tuple[Schema, PatternSet]] = {}
        self._min_ei: dict[int, tuple[Schema, EvalPair]] = {}
        self._max_ei: dict[int, tuple[Schema, EvalPair]] = {}

    @staticmethod
    def _memo(table: dict, s: Schema, compute, lower: bool):
        hit = table.get(id(s))
        if hit is not None and hit[0] is s:
            return hit[1]
        value = compute(s, lower=lower)
        table[id(s)] = (s, value)
        return value

    # -- property bounds

    def min_ep(self, s: Schema) -> PatternSet:
        return self._memo(self._min_ep, s, self._ep, True)

    def max_ep(self, s: Schema) -> PatternSet:
        return self._memo(self._max_ep, s, self._ep, False)

    def _ep(self, s: Schema, lower: bool) -> PatternSet:
        if isinstance(s, BoolSchema):
            return EMPTY_PATTERNS
        result = EMPTY_PATTERNS
        for kw in s.keywords:
            result = result.union(self._ep_keyword(kw, lower))
        return result

    def _ep_keyword(self, kw: Keyword, lower: bool) -> PatternSet:
        name = kw.name
        if name == "properties":
            return PatternSet(frozenset(exact_pattern(k) for k in kw.value))
        if name == "patternProperties":
            return PatternSet(frozenset(kw.value.keys()))
        if name in ("additionalProperties", "unevaluatedProperties"):
            return DOTSTAR_PATTERNS
        if name == "$ref":
            target = deref(self.doc, kw.value)
            return self.min_ep(target) if lower else self.max_ep(target)
        if name in ("anyOf", "oneOf"):
            branches = [
                self.min_ep(b) if lower else self.max_ep(b) for b in kw.value
            ]
            if not branches:
                return EMPTY_PATTERNS
            if lower:
                out = branches[0]
                for b in branches[1:]:
                    out = out.intersection(b)
                return out
            out = EMPTY_PATTERNS
            for b in branches:
                out = out.union(b)
            return out
        if name == "allOf":
            out = EMPTY_PATTERNS
            for b in kw.value:
                out = out.union(self.min_ep(b) if lower else self.max_ep(b))
            return out
        return EMPTY_PATTERNS

    # -- item bounds

    def min_ei(self, s: Schema) -> EvalPair:
        return self._memo(self._min_ei, s, self._ei, True)

    def max_ei(self, s: Schema) -> EvalPair:
        return self._memo(self._max_ei, s, self._ei, False)

    def _ei(self, s: Schema, lower: bool) -> EvalPair:
        if isinstance(s, BoolSchema):
            return ZERO_PAIR
        pairs = [self._ei_keyword(kw, lower) for kw in s.keywords]
        # adjacent keywords conjoin, so their evaluations accumulate
        return _combine_union(pairs)

    def _ei_keyword(self, kw: Keyword, lower: bool) -> EvalPair:
        name = kw.name
        if name == "prefixItems":
            return EvalPair(len(kw.value), FALSE_SCHEMA)
        if name == "contains":
            return _norm_pair(0, kw.value)
        if name in ("items", "unevaluatedItems"):
            return ALL_PAIR
        if name == "$ref":
            target = deref(self.doc, kw.value)
            return self.min_ei(target) if lower else self.max_ei(target)
        if name in ("anyOf", "oneOf"):
            branches = [
                self.min_ei(b) if lower else self.max_ei(b) for b in kw.value
            ]
            if lower:
                return _combine_intersection(branches)
            return _combine_union(branches)
        if name == "allOf":
            branches = [
                self.min_ei(b) if lower else self.max_ei(b) for b in kw.value
            ]
            return _combine_union(branches)
        return ZERO_PAIR

    # -- exact characterizations

    def ex_ep(self, s: Schema) -> PatternSet | None:
        lo, hi = self.min_ep(s), self.max_ep(s)
        return lo if eq_patterns(lo, hi) else None

    def ex_ei(self, s: Schema) -> EvalPair | None:
        lo, hi = self.min_ei(s), self.max_ei(s)
        return lo if eq_pairs(lo, hi) else None

    def is_characterized(self, s: Schema) -> bool:
        return self.ex_ep(s) is not None and self.ex_ei(s) is not None

    # -- covering

    def covers(self, s1: Schema, s2: Schema) -> bool:
        """Provable 'p-covers and i-covers': s1 covers the pair (s1, s2).

        Sound but incomplete: True guarantees that on any instance
        satisfying both schemas, s1 evaluates everything s2 evaluates;
        False only means the cover could not be proven.
        """
        return patterns_dominate(self.min_ep(s1), self.max_ep(s2)) and pair_dominates(
            self.min_ei(s1), self.max_ei(s2)
        )


def patterns_dominate(lo: PatternSet, hi: PatternSet) -> bool:
    """Prove language containment hi <= lo: absorbing .* or verbatim subset."""
    return lo.contains_dotstar or hi.patterns <= lo.patterns


def _disjuncts(guard: Schema) -> frozenset[Schema]:
    """A guard's disjuncts (a lone guard is one disjunct)."""
    if isinstance(guard, ObjSchema):
        kw = guard.single_keyword("anyOf")
        if kw is not None:
            return frozenset(kw.value)
    return frozenset((guard,))


def guard_implies(premise: Schema, conclusion: Schema) -> bool:
    """Sound syntactic implication between guard schemas."""
    if isinstance(conclusion, BoolSchema) and conclusion.value:
        return True
    if isinstance(premise, BoolSchema) and not premise.value:
        return True
    if premise == conclusion:
        return True
    # a disjunction follows from any sub-disjunction of its branches
    return _disjuncts(premise) <= _disjuncts(conclusion)


def pair_dominates(lo: EvalPair, hi: EvalPair) -> bool:
    """Prove that every item satisfying hi also satisfies lo."""
    if isinstance(lo.guard, BoolSchema) and lo.guard.value:
        return True
    if lo.h < hi.h:
        return False
    if isinstance(hi.guard, BoolSchema) and not hi.guard.value:
        return True
    return guard_implies(hi.guard, lo.guard)
