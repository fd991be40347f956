"""Rewriting unevaluatedProperties/unevaluatedItems away.

The driver hoists every nested schema carrying an ``unevaluated*``
keyword into ``$defs`` (so rewrites never nest), then rewrites each named
schema: the keywords before the ``unevaluated*`` are brought into
evaluation normal form, and each branch is conjoined with one wrapper that
re-states both constraints without annotations, built from the branch's
exact evaluation sets (``patternProperties``+``additionalProperties`` on
the property side, ``prefixItems``+``items`` on the item side, with no
empty evaluation keyword).  A branch that evaluates only through its own
keywords takes the checks as ``additionalProperties``/``items`` keywords
of its own instead, and so does a conjunction of such atoms, merged into
one node first.  A wrapper is written only for a branch with an atom that
evaluates through other nodes (``allOf``, ``anyOf``, ``oneOf``, ``not``,
``$ref``), or carries an ``$anchor``, ``additionalProperties`` or
``items``, and for a conjunction whose atoms give some keyword other than
``properties``, ``patternProperties`` and ``required`` two different
arguments.  The wrapper is appended to the branch's conjuncts, which
normalization has already spliced and deduplicated, and a single branch
is not wrapped in ``anyOf``.  The eliminator is a normalizer
(:class:`EnfBuilder`) that resolves references to uneval-schemas to their
rewrites.
"""

from __future__ import annotations

import operator

from .analysis import Analyzer
from .enf import EnfBuilder
from .errors import EliminationError, GuardednessError, NestingDepthError
from .schema import (
    ADK_NAMES,
    CHILD_KIND,
    INF,
    MAP_VALUED,
    READS,
    SDK_NAMES,
    BoolSchema,
    FALSE_SCHEMA,
    Keyword,
    ObjSchema,
    Schema,
    SchemaDocument,
    TRUE_SCHEMA,
    all_of,
    any_of,
    build_document,
    child_schemas,
    combine,
    deref,
    distinct_nodes,
    find_unguarded_cycle,
    make_obj,
    operands,
    ref,
)


def is_uneval_schema(s: Schema) -> bool:
    """True for object schemas with a top-level unevaluated* keyword."""
    return isinstance(s, ObjSchema) and any(
        kw.name in ADK_NAMES for kw in s.keywords
    )


def count_uneval_keywords(doc: SchemaDocument) -> int:
    """Residual unevaluated* occurrences in a whole document.

    A node that occurs several times counts each time, but its subtree is
    counted once: one bottom-up pass over the distinct nodes, on a stack
    of its own rather than of frames, keeps the count below each node by
    ``id``.  A node is pushed back with its children above it, and counted
    when it is popped again, its children done.
    """
    tops = (doc.root, *doc.defs.values())
    below: dict[int, int] = {}
    stack: list = [(top, None) for top in tops]
    while stack:
        s, children = stack.pop()
        if children is not None:
            below[id(s)] = sum([kw.name in ADK_NAMES for kw in s.keywords]) + sum(
                [below[id(child)] for child in children]
            )
        elif id(s) not in below:
            if isinstance(s, ObjSchema):
                children = [child for _, child in child_schemas(s)]
                stack.append((s, children))
                stack.extend([(child, None) for child in children])
            else:
                below[id(s)] = 0
    return sum([below[id(top)] for top in tops])


# ---------------------------------------------------------------------------
# unnesting


class _FreshNames:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.counter = 0

    def next(self) -> str:
        while True:
            name = f"__uneval_{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def _rebuild_keyword(kw: Keyword, rewrite) -> Keyword:
    """``kw`` with ``rewrite`` applied to its subschemas; ``kw`` itself when
    ``rewrite`` returned each of them unchanged."""
    kind = CHILD_KIND.get(kw.name)
    if kind == 0:
        new = rewrite(kw.value)
        return kw if new is kw.value else Keyword(kw.name, new)
    if kind == 1:
        news = tuple([rewrite(s) for s in kw.value])
        if all(map(operator.is_, news, kw.value)):
            return kw
        return Keyword(kw.name, news)
    if kind == 2:
        changed = {}
        for k, s in kw.value.items():
            new = rewrite(s)
            if new is not s:
                changed[k] = new
        return Keyword(kw.name, {**kw.value, **changed}) if changed else kw
    return kw


class _Hoister:
    """Post-order rewrite that moves nested uneval-schemas into fresh
    definitions, collected in ``new_defs``.  A node met at several places
    is rewritten once, so a shared uneval-schema gets one definition."""

    def __init__(self, taken: set[str]):
        self.fresh = _FreshNames(taken)
        self.new_defs: dict[str, Schema] = {}
        # id -> (node, its rewrite); the node reference keeps ids from
        # being reused
        self._done: dict[int, tuple[Schema, Schema]] = {}

    def hoist(self, s: Schema) -> Schema:
        """Rewrite children post-order; replace uneval occurrences by refs."""
        hit = self._done.get(id(s))
        if hit is not None and hit[0] is s:
            return hit[1]
        rebuilt = self.rewrite_children(s)
        if is_uneval_schema(rebuilt):
            name = self.fresh.next()
            self.new_defs[name] = rebuilt
            rebuilt = ref(f"#/$defs/{name}")
        self._done[id(s)] = (s, rebuilt)
        return rebuilt

    def rewrite_children(self, s: Schema) -> Schema:
        """``s`` with its children hoisted; ``s`` itself when none changed."""
        if not isinstance(s, ObjSchema):
            return s
        keywords = tuple([_rebuild_keyword(kw, self.hoist) for kw in s.keywords])
        if all(map(operator.is_, keywords, s.keywords)):
            return s
        return ObjSchema(keywords)


def unnest(doc: SchemaDocument) -> SchemaDocument:
    """Hoist nested uneval-schemas into fresh definitions.

    Afterwards every unevaluated* keyword sits at the top level of a named
    schema, and uneval-schemas reach each other only through references.
    Subtrees without unevaluated* are kept as they are, and a document
    with nothing to hoist is returned itself, without a walk when its
    parse recorded that nothing is nested (``doc.nested_uneval``).
    """
    if doc.nested_uneval is False:
        return doc
    hoister = _Hoister(set(doc.defs))
    defs = {name: hoister.rewrite_children(s) for name, s in doc.defs.items()}
    root = hoister.rewrite_children(doc.root)
    if not hoister.new_defs:
        return doc
    defs.update(hoister.new_defs)
    # closed: the old references keep their targets, the new ones name the
    # hoisted definitions
    return build_document(root, defs)


# ---------------------------------------------------------------------------
# pushing


EMPTY_OBJ_SCHEMA = ObjSchema(())


def p_props(patterns: frozenset[str]) -> Keyword:
    """patternProperties listing the given patterns, each mapped to {}."""
    return Keyword("patternProperties", {p: EMPTY_OBJ_SCHEMA for p in sorted(patterns)})


def pref_its(h: int) -> Keyword:
    """prefixItems of h unconstrained slots, evaluating the first h items."""
    if h == INF:
        raise EliminationError("prefix length must be finite")
    return Keyword("prefixItems", tuple(TRUE_SCHEMA for _ in range(int(h))))


def _branches_of(enf_schema: Schema) -> tuple[Schema, ...]:
    if isinstance(enf_schema, ObjSchema):
        kw = enf_schema.single_keyword("anyOf")
        if kw is not None:
            return kw.value
    raise EliminationError("expected a single-anyOf normalized schema")


#: Keywords through which a node evaluates by way of other nodes, or beside
#: which a second additionalProperties/items, or an $anchor, cannot go.
_NOT_MERGED = frozenset(
    ("allOf", "anyOf", "oneOf", "not", "$ref", "$anchor", *SDK_NAMES, *ADK_NAMES)
)


def _own_keywords(branch: Schema) -> tuple[Keyword, ...] | None:
    """The keywords of a branch that evaluates only through them, or None.

    Such a branch evaluates exactly the names of its own ``properties`` and
    ``patternProperties`` and the items of its own ``prefixItems`` and
    ``contains``, so an ``additionalProperties``/``items`` added beside them
    checks exactly the complement that the push would otherwise restate.
    """
    if isinstance(branch, BoolSchema):
        return () if branch.value else None
    if any(kw.name in _NOT_MERGED for kw in branch.keywords):
        return None
    return branch.keywords


def push_uneval_props(
    an: Analyzer, branch: Schema, s_u: Schema | None, own: bool
) -> tuple[Keyword, ...]:
    """The property check of one branch: ``additionalProperties: s_u``,
    after a ``patternProperties`` of the names the branch evaluates unless
    it evaluates none or lists them itself (``own``).  Nothing without
    ``s_u``."""
    if s_u is None:
        return ()
    check = Keyword("additionalProperties", s_u)
    if own:
        return (check,)
    pats = an.ex_ep(branch)
    if pats is None:
        raise EliminationError("normalized branch has no exact property characterization")
    return (p_props(pats), check) if pats else (check,)


def push_uneval_items(
    an: Analyzer, branch: Schema, s_u: Schema | None, own: bool
) -> tuple[Keyword, ...]:
    """The item check of one branch: ``items`` of ``s_u`` or the branch's
    item guard, after a ``prefixItems`` of the positions the branch
    evaluates unless it evaluates none or lists them itself (``own``).
    Nothing without ``s_u``, or for a branch that evaluates every item."""
    if s_u is None:
        return ()
    pair = an.ex_ei(branch)
    if pair is None:
        raise EliminationError("normalized branch has no exact item characterization")
    if pair.h == INF:  # pairs are normalized: (inf, true) covers every item
        return ()
    check = Keyword("items", combine((s_u, pair.guard), FALSE_SCHEMA))
    return (check,) if own or not pair.h else (pref_its(pair.h), check)


#: The contains triple: the bounds count the items of their own contains,
#: so one atom contributes the three as one entry.
_CONTAINS_GROUP = ("contains", *READS["contains"])


def _split_atom(atom: Schema):
    """The parts an own-keyword atom brings to a merged conjunction, or
    None when ``_own_keywords`` rejects it: its ``properties`` and
    ``patternProperties`` keywords, its ``required`` names as a dict, and
    each other keyword as ``(name, identity, keywords)``, where the
    identity is the canonical text and the contains triple is one entry
    under ``contains``."""
    own = _own_keywords(atom)
    if own is None:
        return None
    maps, required, others = [], {}, []
    group = tuple(kw for kw in own if kw.name in _CONTAINS_GROUP)
    if group:
        others.append(("contains", ObjSchema(group).key, group))
    for kw in own:
        if kw.name in MAP_VALUED:
            maps.append(kw)
        elif kw.name == "required":
            required = dict.fromkeys(kw.value)
        elif kw.name not in _CONTAINS_GROUP:
            others.append((kw.name, ObjSchema((kw,)).key, (kw,)))
    return maps, required, others


def _merge_atoms(atoms: tuple[Schema, ...], splits: dict) -> list[Keyword] | None:
    """The keywords of one node that evaluates and asserts exactly what
    the conjunction of ``atoms`` does, or None: some atom is not an
    own-keyword one, or two atoms give one other keyword two arguments.

    The ``properties`` and ``patternProperties`` maps are united
    (:func:`_unite_maps`), and so are the ``required`` names, in
    first-seen order.  Every other keyword, ``prefixItems`` and the
    contains triple included, comes from one atom or has one canonical
    text in all that carry it.  So the node evaluates exactly the names
    and items its atoms evaluate together, and an ``additionalProperties``
    or ``items`` added to it checks the same complement as beside the
    conjunction.  ``splits`` memoizes :func:`_split_atom` by node id for
    the caller, whose normal form keeps the atoms alive.
    """
    maps: dict[str, list[dict[str, Schema]]] = {}
    required: dict[str, None] = {}
    others: dict[str, tuple[str, tuple[Keyword, ...]]] = {}
    for atom in atoms:
        try:
            split = splits[id(atom)]
        except KeyError:
            split = splits[id(atom)] = _split_atom(atom)
        if split is None:
            return None
        atom_maps, atom_required, atom_others = split
        for name, identity, kws in atom_others:
            if others.setdefault(name, (identity, kws))[0] != identity:
                return None
        for kw in atom_maps:
            parts = maps.get(kw.name)
            if parts is None:
                maps[kw.name] = [kw.value]
            else:
                parts.append(kw.value)
        required.update(atom_required)
    keywords = [Keyword(name, _unite_maps(parts)) for name, parts in maps.items()]
    if required:
        keywords.append(Keyword("required", tuple(required)))
    for _, kws in others.values():
        keywords.extend(kws)
    return keywords


def _unite_maps(parts: list[dict[str, Schema]]) -> dict[str, Schema]:
    """One name map holding every entry of ``parts``, a name of two parts
    mapping to the conjunction of their subschemas, in name order as the
    parser keeps it."""
    if len(parts) == 1:
        return parts[0]
    merged: dict[str, Schema] = {}
    for part in parts:
        for name, s in part.items():
            t = merged.get(name)
            merged[name] = s if t is None else combine((t, s), TRUE_SCHEMA)
    return dict(sorted(merged.items()))


def push_uneval(
    an: Analyzer,
    enf_schema: Schema,
    u_props: Schema | None = None,
    u_items: Schema | None = None,
) -> Schema:
    """Close every branch of a normal form with its complement checks:
    ``u_props`` for the properties it leaves unevaluated, ``u_items`` for
    the items (``None``: no such check).

    A branch that evaluates only through its own keywords takes the checks
    as keywords of its own, and so does a conjunction of such atoms, which
    becomes one node (:func:`_merge_atoms`) that evaluates what they
    evaluate together.  A wrapper is still written for a branch with an
    atom that evaluates through other nodes or carries an ``$anchor``,
    ``additionalProperties`` or ``items`` (``_own_keywords``), and for a
    conjunction whose atoms give one other keyword two arguments: the
    branch is conjoined with one wrapper that holds both checks, appended
    to its conjuncts.  Normalization has spliced and deduplicated those,
    and the wrapper is a fresh node, so no key is computed for it.  One
    disjunction carries both checks because the normal form is closed
    under cover, which ``covers`` proves for properties and items
    together.
    """
    splits: dict = {}
    out = []
    for branch in _branches_of(enf_schema):
        atoms = operands(branch, "allOf")
        own = _own_keywords(branch) if len(atoms) == 1 else _merge_atoms(atoms, splits)
        checks = (
            *push_uneval_props(an, branch, u_props, own is not None),
            *push_uneval_items(an, branch, u_items, own is not None),
        )
        if not checks:
            out.append(branch)
        elif own is not None:
            out.append(make_obj(*own, *checks))
        else:
            out.append(all_of((*atoms, make_obj(*checks))))
    return out[0] if len(out) == 1 else any_of(out)


# ---------------------------------------------------------------------------
# the eliminator


class _ElimRun(EnfBuilder):
    def __init__(self, doc: SchemaDocument):
        super().__init__(Analyzer(doc))
        self._by_id = {id(s): name for name, s in doc.defs.items()}
        self._by_id[id(doc.root)] = ""
        self._memo: dict[str, Schema] = {}
        self.enf_branches: dict[str, int] = {}

    def resolve(self, uri: str) -> Schema:
        target = deref(self.analyzer.doc, uri)
        if is_uneval_schema(target):
            name = self._by_id.get(id(target))
            if name is None:
                raise EliminationError(
                    f"reference {uri!r} reaches an unnamed uneval-schema; "
                    "the document was not unnested"
                )
            return self.elim_named(name)
        return target

    def elim_named(self, name: str) -> Schema:
        result = self._memo.get(name)
        if result is None:
            doc = self.analyzer.doc
            s = doc.root if name == "" else doc.defs[name]
            result = self._memo[name] = self.elim(s, stats_key=name)
        return result

    def elim(self, s: Schema, stats_key: str | None = None) -> Schema:
        if not is_uneval_schema(s):
            return s
        assert isinstance(s, ObjSchema)
        anchor = s.get("$anchor")
        body = tuple(
            kw
            for kw in s.keywords
            if kw.name not in ADK_NAMES and kw.name != "$anchor"
        )
        u = {kw.name: kw.value for kw in s.keywords if kw.name in ADK_NAMES}
        normalized = self.enf(ObjSchema(body))
        if stats_key is not None:
            self.enf_branches[stats_key] = len(_branches_of(normalized))
        result = push_uneval(
            self.analyzer,
            normalized,
            u.get("unevaluatedProperties"),
            u.get("unevaluatedItems"),
        )
        return with_anchor(result, anchor)


def with_anchor(result: Schema, anchor: Keyword | None) -> ObjSchema:
    """The rewrite of a named schema, carrying the schema's own ``$anchor``
    and no other.

    A bare branch may be a boolean, which cannot carry an anchor (nor, at
    the root, ``$defs``), or a named schema with an ``$anchor`` of its own,
    which must not be declared a second time: either is wrapped in an
    ``allOf``.
    """
    if not isinstance(result, ObjSchema) or result.get("$anchor") is not None:
        result = all_of((result,))
    if anchor is None:
        return result
    return ObjSchema((anchor,) + result.keywords)


def elim_document(doc: SchemaDocument) -> SchemaDocument:
    """Rewrite a whole document into its annotation-independent equivalent."""
    result, _ = elim_document_with_stats(doc)
    return result


def elim_document_with_stats(
    doc: SchemaDocument,
) -> tuple[SchemaDocument, dict[str, int]]:
    """The rewrite of ``doc`` and the ENF branch count of each named schema
    that carried unevaluated*.  A document without unevaluated* comes back
    as a new document over the same nodes, with no counts.  A schema that
    nests beyond the recursion limit raises :class:`NestingDepthError`."""
    try:
        return _elim_with_stats(doc)
    except RecursionError:
        raise NestingDepthError("the schema nests too deeply to rewrite") from None


def _elim_with_stats(doc: SchemaDocument) -> tuple[SchemaDocument, dict[str, int]]:
    cycle = find_unguarded_cycle(doc)
    if cycle is not None:
        raise GuardednessError(cycle)
    unnested = unnest(doc)
    if not any(map(is_uneval_schema, (unnested.root, *unnested.defs.values()))):
        # nothing was hoisted (hoisted schemas carry unevaluated*), so this
        # is ``doc``, and no node of it has unevaluated*
        return SchemaDocument(doc.root, dict(doc.defs), dict(doc.anchors)), {}
    run = _ElimRun(unnested)
    new_defs = {name: run.elim_named(name) for name in sorted(unnested.defs)}
    new_root = run.elim_named("")
    # each named schema keeps its name and its $anchor, and every reference
    # of a rewrite was one of the unnested document's
    out = build_document(new_root, new_defs)
    _check_rewrite(out)
    return out, dict(run.enf_branches)


def _check_rewrite(doc: SchemaDocument) -> None:
    """Every reference resolves and no unevaluated* is left: one visit per
    distinct node."""
    for s in distinct_nodes((doc.root, *doc.defs.values())):
        if isinstance(s, ObjSchema):
            for kw in s.keywords:
                if kw.name == "$ref":
                    deref(doc, kw.value)  # raises if unresolved
                elif kw.name in ADK_NAMES:
                    raise EliminationError("rewriting left unevaluated* keywords behind")
