"""Static characterization of evaluated properties and items.

For a schema S the analysis computes:

* a lower and an upper bound on the property names S evaluates, as
  frozensets of unanchored patterns (``min_ep``/``max_ep``);
* a lower and an upper bound on the array positions S evaluates, as a
  pair (h, guard): an item is covered when its 1-based position is <= h
  or its value satisfies the guard schema (``min_ei``/``max_ei``).

All four follow one induction (adjacent keywords and ``allOf`` unite,
``anyOf``/``oneOf`` meet the lower bounds and unite the upper ones), so
one walk per distinct node computes them together.

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


EMPTY_PATTERNS: frozenset[str] = frozenset()
DOTSTAR_PATTERNS = frozenset({".*"})


@dataclass(frozen=True, slots=True)
class EvalPair:
    """Item-evaluation bound: positions <= h (1-based) or values in guard."""

    h: int | float
    guard: Schema


def eq_patterns(a: frozenset[str], b: frozenset[str]) -> bool:
    """Sound under-approximation of language equality.

    Syntactic set equality, extended so that any two sets containing the
    absorbing pattern ``.*`` compare equal.
    """
    return a == b or (".*" in a and ".*" in b)


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
_NOTHING = (EMPTY_PATTERNS, EMPTY_PATTERNS, ZERO_PAIR, ZERO_PAIR)


def _combine_union(*pairs: EvalPair) -> EvalPair:
    """Bound for 'evaluated by some conjunct': max h, disjoined guards.
    A lone part is returned itself; ``ZERO_PAIR`` parts, which add nothing, are dropped."""
    if len(pairs) == 1:
        return pairs[0]
    kept = [p for p in pairs if p is not ZERO_PAIR]
    if not kept:
        return ZERO_PAIR
    return _norm_pair(max(p.h for p in kept), combine([p.guard for p in kept], FALSE_SCHEMA))


def _combine_intersection(*pairs: EvalPair) -> EvalPair:
    """Bound for 'evaluated whichever branch holds': min h, conjoined guards."""
    if len(pairs) == 1:
        return pairs[0]
    return _norm_pair(min(p.h for p in pairs), combine([p.guard for p in pairs], TRUE_SCHEMA))


def _combine_patterns(*sets: frozenset[str]) -> frozenset[str]:
    """Bound for 'evaluated by some conjunct': the union of the nonempty parts."""
    kept = [p for p in sets if p]
    if len(kept) < 2:
        return kept[0] if kept else EMPTY_PATTERNS
    return frozenset().union(*kept)


def _leaf_bounds(kw: Keyword) -> tuple:
    """The four bounds of a keyword that evaluates by itself."""
    name = kw.name
    if name == "properties":
        p = frozenset([exact_pattern(k) for k in kw.value])
        return p, p, ZERO_PAIR, ZERO_PAIR
    if name == "patternProperties":
        p = frozenset(kw.value.keys())
        return p, p, ZERO_PAIR, ZERO_PAIR
    if name in ("additionalProperties", "unevaluatedProperties"):
        return DOTSTAR_PATTERNS, DOTSTAR_PATTERNS, ZERO_PAIR, ZERO_PAIR
    if name == "prefixItems":
        p = EvalPair(len(kw.value), FALSE_SCHEMA)
        return EMPTY_PATTERNS, EMPTY_PATTERNS, p, p
    if name == "contains":
        p = _norm_pair(0, kw.value)
        return EMPTY_PATTERNS, EMPTY_PATTERNS, p, p
    if name in ("items", "unevaluatedItems"):
        return EMPTY_PATTERNS, EMPTY_PATTERNS, ALL_PAIR, ALL_PAIR
    return _NOTHING


def _union_family(los: tuple, his: tuple, join) -> tuple:
    lo = join(*los)
    return (lo, lo) if all([a is b for a, b in zip(los, his)]) else (lo, join(*his))


def _union_bounds(parts: list[tuple]) -> tuple:
    """Bounds of a conjunction: per family, the union of its parts' lower
    and of their upper bounds, one object when each part's two are one."""
    if len(parts) < 2:
        return parts[0] if parts else _NOTHING
    ep_lo, ep_hi, ei_lo, ei_hi = zip(*parts)
    ep = _union_family(ep_lo, ep_hi, _combine_patterns)
    return (*ep, *_union_family(ei_lo, ei_hi, _combine_union))


def _choice_family(los: tuple, his: tuple, meet, join) -> tuple:
    lo = los[0]
    return (lo, lo) if all([b is lo for b in (*los, *his)]) else (meet(*los), join(*his))


class Analyzer:
    """Bound computations over one document, memoized per schema node.

    One walk per distinct node computes both families of bounds, each a
    (lower, upper) pair: ``ep`` for property patterns, ``ei`` for item
    pairs; one table memoizes all four by the node's ``id``.  Where a
    family's two bounds cannot differ they are one object: every keyword
    but ``anyOf``/``oneOf``, and every ``allOf``, ``$ref`` or keyword list
    whose parts each have one object for that family (a choice too, when
    all its branches share one).  ``ex_ep``/``ex_ei`` then answer by
    identity before comparing, and an item walk builds no second guard node.
    """

    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        # id -> (node, min_ep, max_ep, min_ei, max_ei); the node reference
        # keeps ids from being reused
        self._bounds: dict[int, tuple] = {}

    def _of(self, s: Schema) -> tuple:
        hit = self._bounds.get(id(s))
        if hit is None or hit[0] is not s:
            if isinstance(s, BoolSchema):
                hit = (s, *_NOTHING)
            else:
                # adjacent keywords conjoin, so their evaluations accumulate
                hit = (s, *_union_bounds([self._keyword(kw) for kw in s.keywords]))
            self._bounds[id(s)] = hit
        return hit

    def _keyword(self, kw: Keyword) -> tuple:
        """(min_ep, max_ep, min_ei, max_ei) of one keyword."""
        name = kw.name
        if name == "$ref":
            return self._of(deref(self.doc, kw.value))[1:]
        if name == "allOf":
            return _union_bounds([self._of(b)[1:] for b in kw.value])
        if name in ("anyOf", "oneOf"):
            if not kw.value:
                return _NOTHING
            ep_lo, ep_hi, ei_lo, ei_hi = zip(*[self._of(b)[1:] for b in kw.value])
            return (
                *_choice_family(ep_lo, ep_hi, frozenset.intersection, _combine_patterns),
                *_choice_family(ei_lo, ei_hi, _combine_intersection, _combine_union),
            )
        return _leaf_bounds(kw)

    def min_ep(self, s: Schema) -> frozenset[str]:
        return self._of(s)[1]

    def max_ep(self, s: Schema) -> frozenset[str]:
        return self._of(s)[2]

    def min_ei(self, s: Schema) -> EvalPair:
        return self._of(s)[3]

    def max_ei(self, s: Schema) -> EvalPair:
        return self._of(s)[4]

    # -- exact characterizations

    def ex_ep(self, s: Schema) -> frozenset[str] | None:
        _, lo, hi, _, _ = self._of(s)
        return lo if lo is hi or eq_patterns(lo, hi) else None

    def ex_ei(self, s: Schema) -> EvalPair | None:
        _, _, _, lo, hi = self._of(s)
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
        _, ep1, _, ei1, _ = self._of(s1)
        _, _, ep2, _, ei2 = self._of(s2)
        return patterns_dominate(ep1, ep2) and pair_dominates(ei1, ei2)


def patterns_dominate(lo: frozenset[str], hi: frozenset[str]) -> bool:
    """Prove language containment hi <= lo: absorbing .* or verbatim subset."""
    return ".*" in lo or hi <= lo


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
