"""Evaluation normal form.

A schema in evaluation normal form is a single ``anyOf`` whose branch
list is *cover-closed* (every pair of branches has a branch evaluating at
least as much as both, on instances satisfying both) and in which every
branch is statically characterized.  Such a disjunction is the shape
through which ``unevaluated*`` keywords can be pushed soundly.

Normalization only ever expands boolean applicators and references, so
guarded recursion makes it terminate; conjunctions are built by
:func:`schema.combine` (flat, deduplicated, ``false`` absorbing) and
branch lists are deduplicated, which keeps the output within a ``2^n``
envelope in the number of distinct subschemas.  Deduplication compares
nodes by their identity, the cached canonical text (:attr:`Schema.key`).
One :class:`Analyzer` answers every question about the document: the
bounds, the cover proofs, and the document itself.

A product that :func:`close` builds is handed what its two factors
already know: its key, from their stored keys, and its bounds, recorded
as the union of theirs (:meth:`Analyzer.record_conjunction`), so neither
is computed again atom by atom.
"""

from __future__ import annotations

from typing import Iterable

from .analysis import Analyzer
from .errors import EliminationError, GuardednessError, NestingDepthError
from .schema import (
    ADK_NAMES,
    READS,
    BoolSchema,
    Keyword,
    ObjSchema,
    Schema,
    SchemaDocument,
    TRUE_SCHEMA,
    all_of,
    any_of,
    boolean_one_of,
    combine,
    deref,
    find_unguarded_cycle,
    operands,
)


def conjoin(s1: Schema, s2: Schema) -> Schema:
    """The conjunction of two branches (:func:`schema.combine`)."""
    return combine((s1, s2), TRUE_SCHEMA)


def branch_key(s: Schema) -> Schema | frozenset[Schema]:
    """Identity of a branch; conjunctions compare order-insensitively."""
    atoms = operands(s, "allOf")
    return s if len(atoms) == 1 else frozenset(atoms)


def product_key(atoms1: frozenset[Schema], atoms2: frozenset[Schema]) -> frozenset[Schema]:
    """The key of ``allOf(atoms1 + atoms2)``, from its factors' disjoint
    atom sets; the union reuses their stored hashes."""
    return atoms1 | atoms2


class BranchList:
    """Ordered list of branches without duplicates (first one wins).

    Each branch is keyed once, when it is added; a merged list brings
    its stored keys along.
    """

    __slots__ = ("_by_key",)

    def __init__(self, branches: Iterable[Schema] = ()):
        self._by_key: dict[Schema | frozenset[Schema], Schema] = {}
        for s in branches:
            self.add(s)

    def add(self, s: Schema) -> Schema:
        """Add ``s`` unless a branch with its key is kept; return the kept one."""
        return self._by_key.setdefault(branch_key(s), s)

    def merge(self, other: BranchList) -> None:
        """Add the branches of ``other`` by the keys it has stored."""
        merged = self._by_key | other._by_key
        merged.update(self._by_key)  # first occurrence wins, as in add
        self._by_key = merged

    @property
    def branches(self) -> list[Schema]:
        return list(self._by_key.values())

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self):
        return len(self._by_key)


def and_combine(lists: Iterable[Iterable[Schema]]) -> BranchList:
    """Cartesian conjunction of branch lists; the empty product is [true].

    The lists are folded from the right in a loop, so a wide conjunction
    costs no recursion."""
    out = BranchList([TRUE_SCHEMA])
    for branches in reversed([list(b) for b in lists]):
        rest, out = out, BranchList()
        for left in branches:
            for right in rest:
                out.add(conjoin(left, right))
    return out


def _factors(bl: BranchList) -> list[tuple]:
    """(branch, atoms, atom set) per branch, the set read from the stored
    key; it is None where a product with the branch needs :func:`conjoin`:
    no atoms, a repeated atom, or a unit atom that ``combine`` drops or
    returns alone."""
    out = []
    for key, s in bl._by_key.items():
        atoms = operands(s, "allOf")
        atom_set = key if type(key) is frozenset else frozenset(atoms)
        if not atoms or len(atom_set) != len(atoms) or any(
            [isinstance(a, BoolSchema) or not a.keywords for a in atoms]
        ):
            atom_set = None
        out.append((s, atoms, atom_set))
    return out


def close(an: Analyzer, l1: BranchList, l2: BranchList) -> BranchList:
    """Conjunctions needed so that l1 ++ l2 ++ close(l1, l2) is cover-closed.

    A cross pair is omitted when one of its two endpoints provably covers
    it; no third-schema search is attempted.  Where the two factors' atom
    sets are disjoint and free of units (``true``, ``false``, ``{}``) and
    repeats, their product is ``allOf(atoms1 + atoms2)``, as
    :func:`conjoin` builds it, keyed by :func:`product_key` without hashing
    an atom; any other pair goes through :func:`conjoin` and
    :meth:`BranchList.add`.  The analyzer records each kept product's
    bounds from its factors'.
    """
    out = BranchList()
    by_key = out._by_key
    right = _factors(l2)
    for s1, atoms1, set1 in _factors(l1):
        for s2, atoms2, set2 in right:
            if an.covers(s1, s2) or an.covers(s2, s1):
                continue
            if set1 is not None and set2 is not None and set1.isdisjoint(set2):
                key = product_key(set1, set2)
                if key in by_key:
                    continue
                product = by_key[key] = all_of(atoms1 + atoms2)
            else:
                product = conjoin(s1, s2)
                if out.add(product) is not product:
                    continue
            an.record_conjunction(product, s1, s2)
    return out


def or_combine(an: Analyzer, lists: Iterable[Iterable[Schema]]) -> BranchList:
    """Concatenation of branch lists, completed by close insertions,
    folded from the right in a loop like :func:`and_combine`.  Each step
    hands :func:`close` the keyed lists it merges, so no factor is keyed
    twice."""
    out = BranchList()
    for branches in reversed([list(b) for b in lists]):
        rest, out = out, BranchList(branches)
        products = close(an, out, rest)
        out.merge(rest)
        out.merge(products)
    return out


class EnfBuilder:
    """Normalization over the document of one analyzer.

    A reference is normalized through its target as :meth:`resolve` gives
    it; a subclass may substitute another (the eliminator maps references
    to uneval-schemas onto their rewritten form).  Reference
    normalizations are memoized per URI.  The caller vouches that the
    document's recursion is guarded (:func:`schema.find_unguarded_cycle`
    finds no cycle), as :func:`enf` and the eliminator check first.
    """

    def __init__(self, analyzer: Analyzer):
        self.analyzer = analyzer
        self._ref_memo: dict[str, list[Schema]] = {}

    def resolve(self, uri: str) -> Schema:
        """The schema a reference is normalized through: its target."""
        return deref(self.analyzer.doc, uri)

    def enf(self, s: Schema) -> ObjSchema:
        return any_of(self.branch_list(s))

    def branch_list(self, s: Schema) -> list[Schema]:
        if isinstance(s, ObjSchema):
            adk = [kw.name for kw in s.keywords if kw.name in ADK_NAMES]
            if adk:
                raise EliminationError(
                    f"normalization applied to a schema still carrying {adk}"
                )
        if self.analyzer.is_characterized(s):
            if isinstance(s, ObjSchema):
                kw = s.single_keyword("anyOf")
                if kw is not None:
                    return BranchList(kw.value).branches
            return [s]
        assert isinstance(s, ObjSchema)  # booleans are always characterized
        # a top-level $anchor of an inlined definition must not be copied
        # into the expansion branches; the definition itself keeps it
        keywords = tuple(kw for kw in s.keywords if kw.name != "$anchor")
        groups = _dependency_groups(keywords)
        if len(groups) > 1:
            parts = [self.branch_list(ObjSchema(g)) for g in groups]
            return and_combine(parts).branches
        # a single multi-keyword dependency group is structural, hence
        # characterized, hence never reaches this point
        assert len(groups) == 1 == len(groups[0]), groups
        kw = groups[0][0]
        if kw.name == "allOf":
            parts = [self.branch_list(b) for b in kw.value]
            return and_combine(parts).branches
        if kw.name == "anyOf":
            parts = [self.branch_list(b) for b in kw.value]
            return or_combine(self.analyzer, parts).branches
        if kw.name == "oneOf":
            (products,) = boolean_one_of(kw.value).keywords
            return BranchList(
                branch
                for product in products.value
                for branch in self.branch_list(product)
            ).branches
        if kw.name == "$ref":
            memo = self._ref_memo.get(kw.value)
            if memo is None:
                memo = self._ref_memo[kw.value] = self.branch_list(self.resolve(kw.value))
            return memo
        raise EliminationError(
            f"schema with single keyword {kw.name!r} is unexpectedly uncharacterized"
        )


#: Keywords read by a neighbour, each mapped to the neighbour that reads it.
_READ_BY = {read: reader for reader, reads in READS.items() for read in reads}


def _dependency_groups(keywords: tuple[Keyword, ...]) -> list[tuple[Keyword, ...]]:
    """Split a keyword list into independently evaluable units.

    Keywords that read their neighbours stay with them: the contains
    triple is one unit, ``additionalProperties`` keeps its adjacent
    properties/patternProperties, ``items`` keeps its adjacent
    prefixItems.  Everything else forms its own unit.  Units keep the
    position of their first keyword.
    """
    names = {kw.name for kw in keywords}
    units: dict[str, list[Keyword]] = {}
    for kw in keywords:
        reader = _READ_BY.get(kw.name)
        units.setdefault(reader if reader in names else kw.name, []).append(kw)
    return [tuple(unit) for unit in units.values()]


def enf(doc: SchemaDocument, s: Schema) -> ObjSchema:
    """Rewrite a schema into an equivalent single-anyOf normal form.  A
    document with unguarded recursion raises :class:`GuardednessError`, and
    a schema that nests beyond the recursion limit
    :class:`NestingDepthError`."""
    cycle = find_unguarded_cycle(doc)
    if cycle is not None:
        raise GuardednessError(cycle)
    try:
        return EnfBuilder(Analyzer(doc)).enf(s)
    except RecursionError:
        raise NestingDepthError("the schema nests too deeply to normalize") from None
