"""Annotation-aware validation, compiled once per document.

Validating an instance against a schema returns a boolean plus an
*annotation*: the set of object properties and array positions that were
evaluated by structural keywords.  Boolean applicators transmit the union
of their valid branches' annotations; a failing schema forgets the
annotation it produced.  The two ``unevaluated*`` keywords consume the
annotation accumulated by the keywords before them and re-check whatever
the annotation missed.

Each schema node is compiled to a closure, once per
:class:`~uneval.schema.SchemaDocument` (the cache is the document's
``compiled`` field), in one of two modes:

* *bool mode* returns only the verdict and stops as soon as it is known:
  keyword lists at their first failing keyword, ``anyOf``/``allOf`` at the
  deciding branch, ``oneOf`` at a second success, ``contains`` once the
  count is decided;
* *annotation mode* returns the annotation (a set of property names or of
  item positions) of a valid instance, or ``None`` for an invalid one.

Annotations are tracked only where an ``unevaluated*`` keyword can observe
them: a keyword list holding one compiles its in-place applicators
(``allOf``/``anyOf``/``oneOf``/``$ref``) in annotation mode, transitively;
``not`` and every subschema applied to a child instance are in bool mode.
Annotation mode is the bool-mode check plus ``_EVALUATES``, a table of
what ``properties``, ``patternProperties``, ``additionalProperties``,
``prefixItems`` and ``items`` evaluate, which depends only on the instance
and the keyword's syntax.  Steps exist only where the annotation reads
subschema verdicts or the annotation before it: ``contains``, the two
``unevaluated*`` keywords, and ``choice_step``, which passes up the union
of the valid subschemas' annotations for the four in-place applicators.
No annotation is ever changed in place, so a union keeps its first
nonempty part as it is, and one set may serve every instance:
``prefixItems`` gives each array at least as long as its prefix one
frozenset, built at compile time.  A schema without ``unevaluated*``
keywords, such as a rewrite, runs in bool mode throughout.
:func:`validate` returns the bool-mode verdict;
:attr:`ValidationOutcome.annotation` is computed on first read, in
annotation mode.

The bool-mode verdict of a node with ``unevaluated*`` reads an
annotation only when an in-place applicator stands beside the keyword.
With local siblings only, what they evaluate is fixed by their syntax,
so the node compiles as any other keyword list:
``unevaluatedProperties`` checks what ``additionalProperties`` would,
and holds beside it; ``unevaluatedItems`` checks what ``items`` would,
except for the items ``contains`` matches, and holds beside ``items``.
Beside an in-place applicator, the verdict builds no annotation of its
own: it takes the annotation of the node's other keywords and tests the
members that annotation lacks against the ``unevaluated*`` subschema,
which the annotation step of such a node (for ``.annotation`` and under
an in-place applicator of another such node) shares.  An annotation
holds only members of its instance, so ``anyOf`` stops once a branch has
held and the union holds as many members as the instance (at the first
valid branch for a scalar), and against ``false`` the test is one length
comparison.  A keyword list with at most one evaluating keyword and at
most one step gets an annotation closure of its shape, without loops;
and a node that is only a ``$ref`` annotates with its target's closure,
or with the trampoline while that target is under way.

A node's bool-mode check dispatches once on the instance's class, over a
table of the JSON classes its keywords constrain; the other classes get a
constant answer without a call: ``False`` where ``type`` or ``const``
narrow the classes, ``True`` otherwise.  A node with a keyword that checks
every class, such as ``not``, has every class in its table.  A one-class
table tests ``type(x) is T``, and a value of another Python class, such as
an ``OrderedDict``, is looked up by its JSON class.  Every failing verdict
is one shared :class:`ValidationOutcome`, which holds no document, schema
or instance and cannot be changed; only a passing verdict builds one.  Only
a named node (the root, a definition, an anchor) can be re-entered by a
``$ref``, so only these get a late-bound trampoline while under way.
Compiled checks bind what they read as default arguments, not as closure
cells, each one more object to allocate and keep.  A one-entry
``prefixItems`` is one call on the first item, without a loop.

Patterns are compiled by the kind :func:`~uneval.schema.pattern_kind`
gives them, in :func:`_pattern` only: a literal ``^lit$``, ``^lit`` or
``lit`` is tested as ``==``, ``startswith`` or ``in``, and only another
pattern runs a regex search.  :func:`_name_patterns` splits a pattern
set into its exact names and one test for the others.  Beside
``additionalProperties``, the exact names of ``patternProperties`` (the
``^name$`` patterns a rewrite writes for evaluated names) join the
``properties`` names in one set, and ``additionalProperties: false``
beside names only is ``x.keys() <= names``; ``patternProperties`` looks
its exact names up in a dict, and its annotation is ``x.keys() & names``
plus, or without exact names only, the names the other patterns match.

A compile session compiles each node once, and stores in the cache the
named nodes it compiled and the nodes it compiled below them, never a
node compiled outside every named node, which may be ad hoc.  So
validating ad hoc schema objects against a document, or the exact fold,
does not grow its cache past the document's nodes; the ad hoc nodes are
compiled afresh on each call, and the named nodes they reach once.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Sequence

from .errors import NestingDepthError
from .jsonvalue import JsonValue, json_class, type_of, unique_key
from .schema import (
    ADK_NAMES,
    CONSTRAINS,
    EXACT,
    INF,
    PREFIX,
    READS,
    SUBSTRING,
    BoolSchema,
    Keyword,
    Schema,
    SchemaDocument,
    compile_pattern,
    deref,
    distinct_nodes,
    pattern_kind,
)


@dataclass(frozen=True)
class Annotation:
    """Evaluated property names and evaluated item positions (0-based)."""

    props: frozenset[str] = frozenset()
    items: frozenset[int] = frozenset()


EMPTY_ANNOTATION = Annotation()


class ValidationOutcome:
    """The verdict of :func:`validate`; the annotation is computed on first
    read."""

    __slots__ = ("valid", "_doc", "_schema", "_instance", "_annotation")

    def __init__(self, valid: bool, doc: SchemaDocument, schema: Schema, instance: JsonValue):
        self.valid = valid
        self._doc = doc
        self._schema = schema
        self._instance = instance
        self._annotation = None

    @property
    def annotation(self) -> Annotation:
        if self._annotation is None:
            found = None
            if self.valid:
                try:
                    found = _compiled(self._doc, self._schema, ANNOT)(self._instance)
                except RecursionError:
                    raise NestingDepthError(_TOO_DEEP) from None
            self._annotation = _as_annotation(self._instance, found)
            self._doc = self._schema = self._instance = None
        return self._annotation

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "evaluatedProperties": sorted(self.annotation.props),
            "evaluatedItems": sorted(self.annotation.items),
        }

    def __repr__(self):
        return f"ValidationOutcome(valid={self.valid})"


class _Failed(ValidationOutcome):
    """The outcome of every failing validation: one shared instance that
    holds nothing and cannot be changed."""

    __slots__ = ()

    def __init__(self):
        empty = {"valid": False, "_doc": None, "_schema": None, "_instance": None,
                 "_annotation": EMPTY_ANNOTATION}
        for name, value in empty.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("the failing outcome is shared and cannot be changed")

    def __delattr__(self, name):
        raise AttributeError("the failing outcome is shared and cannot be changed")

    def __reduce__(self):  # copy and pickle give back the shared instance
        return "_FAILED"


_FAILED = _Failed()


_TOO_DEEP = "the schema or instance nests too deeply to validate"


def validate(doc: SchemaDocument, schema: Schema, instance: JsonValue) -> ValidationOutcome:
    """Apply a schema to an instance; a failing schema yields no annotation.

    Nesting beyond the recursion limit raises :class:`NestingDepthError`;
    a compile cut short by it leaves the document's cache as it was.
    """
    entry = doc.compiled.get(id(schema))
    try:
        if entry is not None and entry[BOOL] is not None:
            check = entry[BOOL]
        else:
            check = _compiled(doc, schema, BOOL)
        valid = check(instance)
    except RecursionError:
        raise NestingDepthError(_TOO_DEEP) from None
    if not valid:
        return _FAILED
    return ValidationOutcome(True, doc, schema, instance)


def validate_keyword_list(
    doc: SchemaDocument, keywords: Sequence[Keyword], instance: JsonValue
) -> tuple[bool, Annotation]:
    """Left fold over a canonically ordered keyword list, without
    short-circuit.

    The empty list accepts with an empty annotation.  Each keyword
    contributes its annotation whether or not it holds, and dependent
    keywords receive the annotation accumulated by the keywords before them.
    """
    compiler = _Compiler(doc)
    steps = [compiler.exact_step(kw, keywords) for kw in keywords]
    ok = True
    acc = _EMPTY
    for step in steps:
        holds, found = step(instance, acc)
        ok = ok and holds
        if found:
            acc = acc | found
    return ok, _as_annotation(instance, acc)


def _as_annotation(instance: JsonValue, found) -> Annotation:
    if not found:
        return EMPTY_ANNOTATION
    if isinstance(instance, dict):
        return Annotation(props=frozenset(found))
    return Annotation(items=frozenset(found))


# ---------------------------------------------------------------------------
# compiled closures

#: Indices of the two modes in a cache entry ``[node, bool_fn, annotation_fn]``.
BOOL, ANNOT = 1, 2

_EMPTY: frozenset = frozenset()
_OK = (True, _EMPTY)

Check = Callable[[JsonValue], bool]


def _true(x) -> bool:
    return True


def _false(x) -> bool:
    return False


def _ann_true(x):
    return _EMPTY


def _ann_false(x):
    return None


def _late(cell: list) -> Check:
    return lambda x, cell=cell: cell[0](x)


_CONSTANT = {(True, BOOL): _true, (False, BOOL): _false, (True, ANNOT): _ann_true, (False, ANNOT): _ann_false}

_NULL = type(None)
_NUMBERS = (int, float, Decimal)
#: The exact Python classes of JSON values.
_EXACT = frozenset((bool, dict, list, str, int, float, Decimal, _NULL))
_TYPE_CLASSES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": _NUMBERS,
    "integer": _NUMBERS,  # with the checks of _INTEGRAL
    "boolean": (bool,),
    "null": (_NULL,),
}


def _all(checks: Sequence[Check]) -> Check:
    if not checks:
        return _true
    if len(checks) == 1:
        return checks[0]
    if len(checks) == 2:
        a, b = checks
        return lambda x, a=a, b=b: a(x) and b(x)

    def all_(x, checks=tuple(checks)):
        for c in checks:
            if not c(x):
                return False
        return True

    return all_


def _dispatch_or(table: dict, answer: bool) -> Check:
    """One check per instance type, as a single closure: ``table`` maps the
    JSON classes a node constrains, and the other classes get ``answer``
    without a call.  A value of another Python class is looked up by its
    JSON class."""
    if len(table) == 1:
        ((only, f),) = table.items()

        def one_type_or(x, only=only, f=f, answer=answer):
            t = type(x)
            if t is only or t not in _EXACT and json_class(x) is only:
                return f(x)
            return answer

        return one_type_or

    def by_type_or(x, get=table.get, answer=answer):
        t = type(x)
        f = get(t)
        if f is None:
            if t in _EXACT:
                return answer
            f = get(json_class(x))
            if f is None:
                return answer
        return f(x)

    return by_type_or


def _siblings(context: Sequence[Keyword]) -> dict:
    return {kw.name: kw.value for kw in context}


class _Compiler:
    """One compile session against one document.

    Every node compiled is kept in ``new`` for the session; :meth:`commit`
    stores the document's nodes among them in ``doc.compiled``.
    """

    def __init__(self, doc: SchemaDocument):
        self.doc = doc
        #: id -> [node, bool closure, annotation closure]; the node keeps
        #: the id from being reused
        self.new: dict[int, list] = {}
        #: named schemas whose compilation is under way, for recursive $ref
        self.pending: dict[tuple[int, int], list] = {}
        #: the nodes a ``$ref`` can reach
        self.named = {id(doc.root), *map(id, doc.defs.values()), *map(id, doc.anchors.values())}

    def commit(self, top: Schema) -> None:
        """Store what the session compiled from ``top`` in the cache.  Below
        a named ``top`` every node is the document's; otherwise only the
        named nodes compiled and the nodes below them are known to be, and
        the others, which may be ad hoc, are left out."""
        new = self.new
        if id(top) not in self.named:
            below = {id(s) for s in distinct_nodes([e[0] for i, e in new.items() if i in self.named])}
            new = {i: e for i, e in new.items() if i in below}
        cache = self.doc.compiled
        for key, entry in new.items():
            old = cache.get(key)
            if old is None:
                cache[key] = entry
            else:
                old[BOOL] = old[BOOL] or entry[BOOL]
                old[ANNOT] = old[ANNOT] or entry[ANNOT]

    # -- schemas

    def schema(self, node: Schema, mode: int):
        """Compile a node, once per session; a reference back to a named
        node whose compilation is under way gets a late-bound trampoline."""
        if isinstance(node, BoolSchema):
            return _CONSTANT[node.value, mode]
        i = id(node)
        entry = self.new.get(i)
        if entry is not None and entry[mode] is not None:
            return entry[mode]
        old = self.doc.compiled.get(i)
        if old is not None and old[mode] is not None:
            return old[mode]
        named = i in self.named
        if named:
            key = (i, mode)
            cell = self.pending.get(key)
            if cell is not None:
                return _late(cell)
            cell = self.pending[key] = [None]
        keywords = node.keywords
        if mode == ANNOT:
            if len(keywords) == 1 and keywords[0].name == "$ref":
                fn = self.schema(deref(self.doc, keywords[0].value), ANNOT)
            else:
                fn = self.annotation_list(keywords)
        elif (
            keywords
            and keywords[-1].name in ADK_NAMES  # rank order: ADKs last
            and any(kw.name in _IN_PLACE for kw in keywords)
        ):
            fn = self.unevaluated_verdict(keywords)
        else:
            fn = self.bool_list(keywords, keywords)
        if named:
            cell[0] = fn
            del self.pending[key]
        entry = self.new.get(i)  # compiling the other mode may have made it
        if entry is None:
            entry = self.new[i] = [node, None, None]
        entry[mode] = fn
        return fn

    # -- bool mode

    def bool_list(self, keywords: Sequence[Keyword], context: Sequence[Keyword]) -> Check:
        """Verdict of a keyword list without an in-place applicator beside
        ``unevaluated*``.

        ``context`` is the whole list, whose syntax the keywords of
        :data:`~uneval.schema.READS` and the ``unevaluated*`` keywords read.
        """
        general: list[Check] = []
        # the checks of the keywords that constrain some types, by those types
        typed: dict[tuple, list[Check]] = {}
        # the instance types left by ``type`` and ``const``; None: all
        accepted = None
        integer = False
        siblings = None
        for kw in keywords:
            name = kw.name
            if name == "type" or name == "const":
                if name == "type":
                    classes = _TYPE_CLASSES[kw.value]
                    integer = kw.value == "integer"
                else:
                    classes = _TYPE_CLASSES[type_of(kw.value)]
                    general.append(_const_check(kw.value))
                accepted = classes if accepted is None else [t for t in accepted if t in classes]
                continue
            compile_kw = _DISPATCH.get(name)
            if compile_kw is None:
                continue  # $anchor, minContains/maxContains, unknown keywords
            types, compile_kw = compile_kw
            if name in _CONTEXT_READERS and siblings is None:
                siblings = _siblings(context)
            check = compile_kw(self, kw.value, siblings)
            if check is _true:
                continue
            if types is not None:
                typed.setdefault(types, []).append(check)
            elif check is _false:
                return _false
            else:
                general.append(check)
        if accepted is not None and not accepted:
            return _false
        every = _all(general)
        if accepted is None and not typed:
            return every
        table = dict.fromkeys(accepted or (), every)
        for types, checks in typed.items():
            fn = _all(checks + general)
            for t in types:
                if accepted is None or t in accepted:
                    table[t] = fn
        if integer:
            for t, is_integral in _INTEGRAL:
                fn = table[t]
                table[t] = is_integral if fn is _true else _all((is_integral, fn))
        if accepted is not None:
            return _dispatch_or(table, False)
        if every is not _true:  # the other classes get it, and the answer never fires
            for t in _EXACT:
                table.setdefault(t, every)
        return _dispatch_or(table, True)

    def bool_any_of(self, branches, siblings) -> Check:
        fs = [self.schema(s, BOOL) for s in branches]
        if _true in fs:
            return _true
        fs = tuple(f for f in fs if f is not _false)
        if not fs:
            return _false
        if len(fs) == 1:
            return fs[0]

        def any_of(x, fs=fs):
            for f in fs:
                if f(x):
                    return True
            return False

        return any_of

    def bool_all_of(self, branches, siblings) -> Check:
        fs = [self.schema(s, BOOL) for s in branches]
        if _false in fs:
            return _false
        return _all([f for f in fs if f is not _true])

    def bool_one_of(self, branches, siblings) -> Check:
        fs = tuple(self.schema(s, BOOL) for s in branches)

        def one_of(x, fs=fs):
            found = False
            for f in fs:
                if f(x):
                    if found:
                        return False
                    found = True
            return found

        return one_of

    def bool_not(self, sub, siblings) -> Check:
        f = self.schema(sub, BOOL)
        if f is _true:
            return _false
        if f is _false:
            return _true
        return lambda x, f=f: not f(x)

    def bool_ref(self, uri, siblings) -> Check:
        return self.schema(deref(self.doc, uri), BOOL)

    def bool_properties(self, props, siblings) -> Check:
        subs = {}
        for name, sub in props.items():
            f = self.schema(sub, BOOL)
            if f is not _true:
                subs[name] = f
        if not subs:
            return _true

        def properties(x, get=subs.get):
            for k, v in x.items():
                f = get(k)
                if f is not None and not f(v):
                    return False
            return True

        return properties

    def bool_pattern_properties(self, props, siblings) -> Check:
        exact: dict[str, list[Check]] = {}
        pairs = []
        for pattern, sub in props.items():
            f = self.schema(sub, BOOL)
            if f is _true:
                continue
            kind, text = pattern_kind(pattern)
            if kind == EXACT:  # two patterns may name one literal
                exact.setdefault(text, []).append(f)
            else:
                pairs.append((_pattern(kind, text), f))
        if not exact and not pairs:
            return _true
        named = {name: _all(fs) for name, fs in exact.items()}

        def pattern_properties(x, get=named.get, pairs=tuple(pairs)):
            for k, v in x.items():
                f = get(k)
                if f is not None and not f(v):
                    return False
                for matches, f in pairs:
                    if matches(k) and not f(v):
                        return False
            return True

        return pattern_properties

    def bool_additional_properties(self, sub, siblings) -> Check:
        f = self.schema(sub, BOOL)
        if f is _true:
            return _true
        patterns = siblings.get("patternProperties", ())
        names, other = _name_patterns(patterns, siblings.get("properties", ()))
        if other is None:
            if f is _false:
                return lambda x, names=names: x.keys() <= names

            def additional_names(x, names=names, f=f):
                for k, v in x.items():
                    if k not in names and not f(v):
                        return False
                return True

            return additional_names

        def additional_properties(x, names=names, other=other, f=f):
            for k, v in x.items():
                if k not in names and not other(k) and not f(v):
                    return False
            return True

        return additional_properties

    def bool_unevaluated_properties(self, sub, siblings) -> Check:
        """With local siblings only, the siblings evaluate the names of
        ``properties`` and the names ``patternProperties`` match, so this
        is the check of ``additionalProperties``; beside that keyword,
        which evaluates every property, there is none."""
        if "additionalProperties" in siblings:
            return _true
        return self.bool_additional_properties(sub, siblings)

    def bool_property_names(self, sub, siblings) -> Check:
        f = self.schema(sub, BOOL)
        if f is _true:
            return _true

        def property_names(x, f=f):
            for k in x:
                if not f(k):
                    return False
            return True

        return property_names

    def bool_prefix_items(self, subs, siblings) -> Check:
        fs = tuple(self.schema(s, BOOL) for s in subs)
        if all(f is _true for f in fs):
            return _true
        if len(fs) == 1:
            return lambda x, f=fs[0]: not x or f(x[0])

        def prefix_items(x, fs=fs):
            for f, v in zip(fs, x):
                if not f(v):
                    return False
            return True

        return prefix_items

    def bool_items(self, sub, siblings) -> Check:
        f = self.schema(sub, BOOL)
        start = len(siblings.get("prefixItems", ()))
        if f is _true:
            return _true
        if f is _false:
            return lambda x, start=start: len(x) <= start

        def items(x, f=f, start=start):
            for i in range(start, len(x)):
                if not f(x[i]):
                    return False
            return True

        return items

    def bool_unevaluated_items(self, sub, siblings) -> Check:
        """With local siblings only, the siblings evaluate the
        ``prefixItems`` positions and the items ``contains`` matches, so
        this is the check of ``items``, except for those matches; beside
        ``items``, which evaluates every item, there is none."""
        if "items" in siblings:
            return _true
        contains = siblings.get("contains")
        if contains is None:
            return self.bool_items(sub, siblings)
        f = self.schema(sub, BOOL)
        hit = self.schema(contains, BOOL)
        if _true in (f, hit):
            return _true

        def unevaluated_items(x, f=f, hit=hit, start=len(siblings.get("prefixItems", ()))):
            for i in range(start, len(x)):
                v = x[i]
                if not hit(v) and not f(v):
                    return False
            return True

        return unevaluated_items

    def bool_contains(self, sub, siblings) -> Check:
        f = self.schema(sub, BOOL)
        lo = siblings.get("minContains", 1)
        hi = siblings.get("maxContains", INF)
        if lo == 0 and hi == INF:
            return _true

        def contains(x, f=f, lo=lo, hi=hi):
            n = 0
            for v in x:
                if f(v):
                    n += 1
                    if n > hi:
                        return False
                    if n >= lo and hi == INF:
                        return True
            return lo <= n

        return contains

    # -- annotation mode

    def unevaluated_verdict(self, keywords: Sequence[Keyword]) -> Check:
        """Verdict of a keyword list ending in ``unevaluated*``, with no
        annotation of its own: the annotation of the other keywords, then
        the members it lacks, each against its ``unevaluated*`` subschema."""
        rest, tests = [], []
        for kw in keywords:
            kind = _ADK_KINDS.get(kw.name)
            if kind is None:
                rest.append(kw)
            else:
                tests.append((kind, _unevaluated_valid(self.schema(kw.value, BOOL), kind)))
        annotated = self.annotation_list(rest)

        def unevaluated(x, annotated=annotated, tests=tuple(tests)):
            acc = annotated(x)
            if acc is None:
                return False
            for kind, valid in tests:
                if isinstance(x, kind):
                    return valid(x, acc)
            return True

        return unevaluated

    def annotation_list(self, keywords: Sequence[Keyword]):
        """Annotation of a valid instance, or ``None``: the bool check of
        the keywords without a step, plus what they evaluate by
        :data:`_EVALUATES`, then the steps, which read verdicts or the
        annotation before them and stop at the first failing one."""
        check = self.bool_list([kw for kw in keywords if kw.name not in _STEPS], keywords)
        evaluates = [_EVALUATES[kw.name](kw.value) for kw in keywords if kw.name in _EVALUATES]
        steps = [_STEPS[kw.name](self, kw.value, keywords) for kw in keywords if kw.name in _STEPS]
        if check is _false:
            return _ann_false
        return _annotated(None if check is _true else check, evaluates, steps)

    def exact_step(self, kw: Keyword, context: Sequence[Keyword]):
        """``step(x, acc) -> (holds, annotation)`` of one keyword, with the
        annotation kept also when the keyword fails: ``allOf``, ``oneOf``
        and ``not`` keep the union of their valid subschemas' annotations,
        the other keywords keep theirs on failure anyway."""
        name = kw.name
        if name in _STEPS and name not in ("allOf", "oneOf"):
            return _STEPS[name](self, kw.value, context)
        check = self.bool_list((kw,), context)
        if name in ("allOf", "oneOf", "not"):
            union = self.choice_step((kw.value,) if name == "not" else kw.value, 0, INF)
            return lambda x, acc: (check(x), union(x, acc)[1])
        evaluates = _EVALUATES.get(name)
        if evaluates is None:
            return lambda x, acc: (check(x), _EMPTY)
        kind, evaluated = evaluates(kw.value)
        return lambda x, acc: (check(x), evaluated(x) if isinstance(x, kind) else _EMPTY)

    # Each step below is ``step(x, acc) -> (holds, annotation)``, where
    # ``acc`` is the annotation of the keywords before it.  A step may stop
    # once it fails, with an incomplete annotation.

    def choice_step(self, branches, lo, hi):
        """Holds when ``lo`` to ``hi`` branches are valid; the annotation
        is the union of the valid branches' annotations.  It stops once
        more than ``len(branches) - lo`` branches have failed or more than
        ``hi`` have held.  ``anyOf`` also stops once a branch has held and
        the union holds every member of the instance: an annotation holds
        only members of its instance, so no later branch can add one."""
        fs = tuple(self.schema(s, ANNOT) for s in branches)
        if lo == 1 and hi == INF:

            def any_of(x, acc, fs=fs):
                members = len(x) if isinstance(x, (dict, list)) else 0
                held = False
                union = _EMPTY
                for f in fs:
                    found = f(x)
                    if found is not None:
                        held = True
                        if found:
                            union = union | found if union else found
                        if len(union) >= members:
                            return True, union
                return held, union

            return any_of

        def choice(x, acc, fs=fs, most_failed=len(fs) - lo, hi=hi, lo=lo):
            valid = failed = 0
            union = _EMPTY
            for f in fs:
                found = f(x)
                if found is None:
                    failed += 1
                    if failed > most_failed:
                        return False, union
                else:
                    valid += 1
                    if valid > hi:
                        return False, union
                    if found:
                        union = union | found if union else found
            return valid >= lo, union

        return choice

    def contains_step(self, sub, context):
        f = self.schema(sub, BOOL)
        siblings = _siblings(context)
        lo = siblings.get("minContains", 1)
        hi = siblings.get("maxContains", INF)

        def contains(x, acc, f=f, lo=lo, hi=hi):
            if not isinstance(x, list):
                return _OK
            hits = {i for i, v in enumerate(x) if f(v)}
            return lo <= len(hits) <= hi, hits

        return contains

    def unevaluated_step(self, sub, kind):
        """``unevaluatedProperties`` for ``kind`` dict, ``unevaluatedItems``
        for list: then every member of the instance is evaluated."""
        valid = _unevaluated_valid(self.schema(sub, BOOL), kind)

        def unevaluated(x, acc, valid=valid, kind=kind, members=_MEMBERS[kind]):
            if not isinstance(x, kind):
                return _OK
            return valid(x, acc), members(x)

        return unevaluated


def _annotated(check, evaluates: Sequence, steps: Sequence):
    """The annotation closure of a keyword list: ``check`` (``None`` for
    none), then what ``evaluates`` gives, then the ``steps``.  A list with
    at most one of each gets a closure of its shape, without the loops."""
    if len(evaluates) > 1 or len(steps) > 1:

        def annotated(x, check=check, evaluates=tuple(evaluates), steps=tuple(steps)):
            if check is not None and not check(x):
                return None
            acc = _EMPTY
            for kind, evaluated in evaluates:
                if isinstance(x, kind):
                    found = evaluated(x)
                    acc = acc | found if acc else found
            for step in steps:
                ok, found = step(x, acc)
                if not ok:
                    return None
                if found:
                    acc = acc | found if acc else found
            return acc

        return annotated
    if not steps:
        if not evaluates:
            if check is None:
                return _ann_true
            return lambda x, check=check: _EMPTY if check(x) else None
        ((kind, evaluated),) = evaluates

        def evaluated_only(x, check=check, kind=kind, evaluated=evaluated):
            if check is not None and not check(x):
                return None
            return evaluated(x) if isinstance(x, kind) else _EMPTY

        return evaluated_only
    (step,) = steps
    if not evaluates:

        def step_only(x, check=check, step=step):
            if check is not None and not check(x):
                return None
            ok, found = step(x, _EMPTY)
            return found if ok else None

        return step_only
    ((kind, evaluated),) = evaluates

    def evaluated_then_step(x, check=check, kind=kind, evaluated=evaluated, step=step):
        if check is not None and not check(x):
            return None
        acc = evaluated(x) if isinstance(x, kind) else _EMPTY
        ok, found = step(x, acc)
        if not ok:
            return None
        if not acc:
            return found
        return acc | found if found else acc

    return evaluated_then_step


def _unevaluated_valid(f: Check, kind: type):
    """``valid(x, acc)``: every member of ``x``, an instance of ``kind``,
    that the annotation ``acc`` lacks is valid against ``f``.  An
    annotation holds only members of its instance, so against ``false``
    it must hold as many as the instance has."""
    if f is _false:
        return lambda x, acc: len(acc) >= len(x)
    if kind is dict:

        def properties(x, acc, f=f):
            for k, v in x.items():
                if k not in acc and not f(v):
                    return False
            return True

        return properties

    def items(x, acc, f=f):
        for i, v in enumerate(x):
            if i not in acc and not f(v):
                return False
        return True

    return items


#: The instance kind each ``unevaluated*`` keyword tests.
_ADK_KINDS = {name: _TYPE_CLASSES[CONSTRAINS[name]][0] for name in ADK_NAMES}


def _const_check(value) -> Check:
    if isinstance(value, bool) or value is None:
        return lambda x, value=value: x is value
    if isinstance(value, (list, dict)):
        return lambda x, key=unique_key(value): unique_key(x) == key
    return lambda x, value=value: x == value


def _is_integral(x: Decimal) -> bool:
    return x == x.to_integral_value()


#: The checks ``"type": "integer"`` adds to the number classes it accepts.
_INTEGRAL = ((float, float.is_integer), (Decimal, _is_integral))


def _pattern(kind: str, text: str) -> Check:
    """The test of a name against a pattern that
    :func:`~uneval.schema.pattern_kind` gave ``(kind, text)``; the text of
    a regex is its source."""
    if kind == EXACT:
        return lambda x, text=text: x == text
    if kind == PREFIX:
        return lambda x, text=text: x.startswith(text)
    if kind == SUBSTRING:
        return lambda x, text=text: text in x
    return lambda x, search=compile_pattern(text).search: search(x) is not None


def _name_patterns(patterns, names=()):
    """``(exact, other)``: the names of ``patterns`` read as exact, with
    ``names``, and one test of a name against the other patterns by
    :func:`_pattern`, or ``None`` when there are none."""
    exact = set(names)
    tests = []
    for pattern in patterns:
        kind, text = pattern_kind(pattern)
        if kind == EXACT:
            exact.add(text)
        else:
            tests.append(_pattern(kind, text))
    if len(tests) < 2:
        return frozenset(exact), tests[0] if tests else None

    def any_pattern(k, tests=tuple(tests)):
        for test in tests:
            if test(k):
                return True
        return False

    return frozenset(exact), any_pattern


def _required(names) -> Check:
    need = frozenset(names)
    if not need:
        return _true
    if len(need) == 1:
        (name,) = need
        return lambda x, name=name: name in x
    return lambda x, need=need: x.keys() >= need


def _unique_items(x) -> bool:
    seen = set()
    for v in x:
        key = unique_key(v)
        if key in seen:
            return False
        seen.add(key)
    return True


def _leaf(make):
    """A keyword whose check depends on its argument only."""
    return lambda compiler, value, siblings: make(value)


#: Bool-mode compilers of the keywords other than ``type``/``const``.
_BOOL_KEYWORDS = {
    "anyOf": _Compiler.bool_any_of,
    "allOf": _Compiler.bool_all_of,
    "oneOf": _Compiler.bool_one_of,
    "not": _Compiler.bool_not,
    "$ref": _Compiler.bool_ref,
    "minimum": _leaf(lambda m: lambda x, m=m: x >= m),
    "maximum": _leaf(lambda m: lambda x, m=m: x <= m),
    "pattern": _leaf(lambda source: _pattern(*pattern_kind(source))),
    "properties": _Compiler.bool_properties,
    "patternProperties": _Compiler.bool_pattern_properties,
    "additionalProperties": _Compiler.bool_additional_properties,
    "required": _leaf(_required),
    "propertyNames": _Compiler.bool_property_names,
    "minProperties": _leaf(lambda n: lambda x, n=n: len(x) >= n),
    "maxProperties": _leaf(lambda n: lambda x, n=n: len(x) <= n),
    "prefixItems": _Compiler.bool_prefix_items,
    "items": _Compiler.bool_items,
    "contains": _Compiler.bool_contains,
    "minItems": _leaf(lambda n: lambda x, n=n: len(x) >= n),
    "maxItems": _leaf(lambda n: lambda x, n=n: len(x) <= n),
    "uniqueItems": _leaf(lambda on: _unique_items if on else _true),
    "unevaluatedProperties": _Compiler.bool_unevaluated_properties,
    "unevaluatedItems": _Compiler.bool_unevaluated_items,
}

#: Each compiler with the disjoint group of instance classes its keyword
#: constrains by :data:`~uneval.schema.CONSTRAINS` (``None``: all).
_DISPATCH = {
    name: (_TYPE_CLASSES.get(CONSTRAINS.get(name)), compile_kw)
    for name, compile_kw in _BOOL_KEYWORDS.items()
}

#: Keywords whose check reads the syntax of their siblings.
_CONTEXT_READERS = frozenset((*READS, *ADK_NAMES))


def _matching_names(patterns):
    names, other = _name_patterns(patterns)
    if other is None:
        return dict, lambda x, names=names: x.keys() & names
    if not names:
        return dict, lambda x, other=other: {k for k in x if other(k)}
    return dict, lambda x, names=names, other=other: x.keys() & names | {k for k in x if other(k)}


def _prefix_positions(subs):
    n, every = len(subs), frozenset(range(len(subs)))
    return list, lambda x, n=n, every=every: every if len(x) >= n else set(range(len(x)))


#: Every member of an instance of each kind: an object's names, an
#: array's positions.
_MEMBERS = {dict: dict.keys, list: lambda x: set(range(len(x)))}


#: What a keyword evaluates, given its value: the instance kind it applies
#: to and the names or positions it evaluates in such an instance.  This
#: depends only on the instance and the keyword's syntax.
_EVALUATES = {
    "properties": lambda props: (dict, lambda x, names=props.keys(): x.keys() & names),
    "patternProperties": _matching_names,
    "additionalProperties": lambda sub: (dict, _MEMBERS[dict]),
    "prefixItems": _prefix_positions,
    "items": lambda sub: (list, _MEMBERS[list]),
}

#: Annotation-mode compilers of the keywords whose annotation reads their
#: subschemas' verdicts or the annotation of the keywords before them.
_STEPS = {
    "anyOf": lambda c, subs, context: c.choice_step(subs, 1, INF),
    "allOf": lambda c, subs, context: c.choice_step(subs, len(subs), INF),
    "oneOf": lambda c, subs, context: c.choice_step(subs, 1, 1),
    "$ref": lambda c, uri, context: c.choice_step((deref(c.doc, uri),), 1, 1),
    "contains": _Compiler.contains_step,
    **{
        name: lambda c, sub, context, kind=kind: c.unevaluated_step(sub, kind)
        for name, kind in _ADK_KINDS.items()
    },
}

#: The in-place applicators: the steps other than ``contains`` and
#: ``unevaluated*``.  Beside ``unevaluated*``, the annotation they pass up
#: depends on their subschemas' verdicts, not on syntax alone.
_IN_PLACE = frozenset(_STEPS).difference(("contains", *ADK_NAMES))


def _compiled(doc: SchemaDocument, schema: Schema, mode: int):
    entry = doc.compiled.get(id(schema))
    if entry is not None and entry[mode] is not None:
        return entry[mode]
    compiler = _Compiler(doc)
    fn = compiler.schema(schema, mode)
    compiler.commit(schema)
    return fn
