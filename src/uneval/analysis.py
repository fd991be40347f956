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
from dataclasses import dataclass, field

from .schema import (
    INF,
    BoolSchema,
    Keyword,
    ObjSchema,
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
    """Item-evaluation bound: positions <= h (1-based) or values in guard.

    ``normal`` tells that ``combine((false, guard), false)`` gives the guard
    back, equal, as it does for every guard ``combine`` built; it is false
    where the guard may be a raw ``contains`` subschema that is a bare
    ``anyOf``, which ``combine`` would rebuild.  It takes no part in
    equality."""

    h: int | float
    guard: Schema
    normal: bool = field(default=True, compare=False, repr=False)


def eq_patterns(a: frozenset[str], b: frozenset[str]) -> bool:
    """Sound under-approximation of language equality.

    Syntactic set equality, extended so that any two sets containing the
    absorbing pattern ``.*`` compare equal.
    """
    return a == b or (".*" in a and ".*" in b)


def eq_pairs(a: EvalPair, b: EvalPair) -> bool:
    """Component-wise: equal bound and equal guard nodes."""
    return a.h == b.h and a.guard == b.guard


def _norm_pair(h: int | float, guard: Schema, normal: bool = True) -> EvalPair:
    # (inf, G) and (h, true) both cover every item of every array
    if h == INF or (isinstance(guard, BoolSchema) and guard.value):
        return EvalPair(INF, TRUE_SCHEMA)
    return EvalPair(h, guard, normal)


ZERO_PAIR = EvalPair(0, FALSE_SCHEMA)
ALL_PAIR = EvalPair(INF, TRUE_SCHEMA)
_NOTHING = (EMPTY_PATTERNS, EMPTY_PATTERNS, ZERO_PAIR, ZERO_PAIR)


def _union_pairs(kept: list) -> EvalPair:
    """Max h and disjoined guards of pairs other than ``ZERO_PAIR``; a lone
    pair too goes through ``combine``, which may rebuild its guard."""
    if not kept:
        return ZERO_PAIR
    return _norm_pair(max([p.h for p in kept]), combine([p.guard for p in kept], FALSE_SCHEMA))


def _combine_union(*pairs: EvalPair) -> EvalPair:
    """Bound for 'evaluated by some conjunct': max h, disjoined guards.
    A lone part is returned itself; ``ZERO_PAIR`` parts, which add nothing, are dropped."""
    if len(pairs) == 1:
        return pairs[0]
    return _union_pairs([p for p in pairs if p is not ZERO_PAIR])


def _combine_intersection(*pairs: EvalPair) -> EvalPair:
    """Bound for 'evaluated whichever branch holds': min h, conjoined guards.
    The conjunction may be one part's guard itself, so it is ``normal``
    only when every part's is."""
    if len(pairs) == 1:
        return pairs[0]
    guard = combine([p.guard for p in pairs], TRUE_SCHEMA)
    return _norm_pair(min(p.h for p in pairs), guard, all([p.normal for p in pairs]))


def _union_patterns(kept: list) -> frozenset[str]:
    """The union of nonempty pattern sets; a lone set is returned itself."""
    if len(kept) < 2:
        return kept[0] if kept else EMPTY_PATTERNS
    return frozenset().union(*kept)


def _combine_patterns(*sets: frozenset[str]) -> frozenset[str]:
    """Bound for 'evaluated by some conjunct': the union of the nonempty parts."""
    return _union_patterns([p for p in sets if p])


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
        # the parsed subschema, kept raw: combine may rebuild a bare anyOf
        guard = kw.value
        raw = isinstance(guard, ObjSchema) and guard.single_keyword("anyOf") is not None
        p = _norm_pair(0, guard, not raw)
        return EMPTY_PATTERNS, EMPTY_PATTERNS, p, p
    if name in ("items", "unevaluatedItems"):
        return EMPTY_PATTERNS, EMPTY_PATTERNS, ALL_PAIR, ALL_PAIR
    return _NOTHING


def _union_bounds(parts: list[tuple]) -> tuple:
    """Bounds of a conjunction: per family, the union of its parts' lower
    and of their upper bounds, one object when each part's two are one.

    One pass over the parts collects the nonempty pattern sets and the
    lower item pairs other than ``ZERO_PAIR``, and notes whether each
    part's two bounds are one object; the upper bounds are collected
    only where some part's are not."""
    if len(parts) < 2:
        return parts[0] if parts else _NOTHING
    ep_lo: list = []
    ei_lo: list = []
    ep_one = ei_one = True
    for lo, hi, ilo, ihi in parts:
        if lo:
            ep_lo.append(lo)
        if hi is not lo:
            ep_one = False
        if ilo is not ZERO_PAIR:
            ei_lo.append(ilo)
        if ihi is not ilo:
            ei_one = False
    lo = _union_patterns(ep_lo)
    hi = lo if ep_one else _union_patterns([p[1] for p in parts if p[1]])
    ilo = _union_pairs(ei_lo)
    ihi = ilo if ei_one else _union_pairs([p[3] for p in parts if p[3] is not ZERO_PAIR])
    return lo, hi, ilo, ihi


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
        # id -> (guard, its anyOf operand set), read by every refused cover;
        # a closure over the table, not a bound method, so that the
        # analyzer holds no cycle and is freed with its last reference
        disjuncts: dict[int, tuple] = {}

        def guard_operands(guard: Schema) -> frozenset[Schema]:
            hit = disjuncts.get(id(guard))
            if hit is None:
                hit = disjuncts[id(guard)] = (guard, _disjuncts(guard))
            return hit[1]

        self._guard_operands = guard_operands

    def _of(self, s: Schema) -> tuple:
        hit = self._bounds.get(id(s))
        if hit is None:
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
        return patterns_dominate(ep1, ep2) and pair_dominates(ei1, ei2, self._guard_operands)

    def record_conjunction(self, product: Schema, s1: Schema, s2: Schema) -> None:
        """Record the bounds of ``product``, the conjunction of ``s1`` and
        ``s2`` that ``combine`` gives, as the union of theirs.

        Only a node the memo does not hold gets them: a fresh ``allOf``.
        Whatever else ``combine`` returns (``false``, a factor, or an atom
        of one) is in the memo once the factors' bounds are read, and keeps
        its own."""
        parts = [self._of(s1)[1:], self._of(s2)[1:]]
        if id(product) not in self._bounds:
            self._bounds[id(product)] = (product, *_union_bounds(parts))


def patterns_dominate(lo: frozenset[str], hi: frozenset[str]) -> bool:
    """Prove language containment hi <= lo: absorbing .* or verbatim subset."""
    return ".*" in lo or hi <= lo


def _disjuncts(guard: Schema) -> frozenset[Schema]:
    """The set of a guard's ``anyOf`` operands, the guard alone if it is
    no bare ``anyOf``."""
    return frozenset(operands(guard, "anyOf"))


def guard_implies(premise: Schema, conclusion: Schema, disjuncts=_disjuncts) -> bool:
    """Sound syntactic implication between guard schemas; a ``true``
    conclusion and a ``false`` premise are for the caller to answer, as
    :func:`pair_dominates` does.  ``disjuncts`` gives a guard's operand
    set (:class:`Analyzer` passes its memoized one).

    A disjunction follows from any sub-disjunction of its branches; equal
    guards have equal operand sets, so no equality test is needed."""
    return disjuncts(premise) <= disjuncts(conclusion)


def pair_dominates(lo: EvalPair, hi: EvalPair, disjuncts=_disjuncts) -> bool:
    """Prove that every item satisfying hi also satisfies lo."""
    if isinstance(lo.guard, BoolSchema) and lo.guard.value:
        return True
    if lo.h < hi.h:
        return False
    if isinstance(hi.guard, BoolSchema) and not hi.guard.value:
        return True
    return guard_implies(hi.guard, lo.guard, disjuncts)
