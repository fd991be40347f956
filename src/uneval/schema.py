"""Schema AST for the static Draft 2020-12 subset.

A schema is either a boolean or an ordered keyword list.  Keywords are
partitioned into three classes that fix the evaluation order:

* independent keywords (``properties``, ``anyOf``, ``$ref``, ...),
* statically dependent keywords (``additionalProperties``, ``items``),
  which read the syntax of their independent neighbours,
* annotation dependent keywords (``unevaluatedProperties``,
  ``unevaluatedItems``), which read the runtime annotation.

Parsing reorders keywords into that partition order, indexes ``$defs``
and ``$anchor`` targets, checks that every reference resolves inside the
document, and makes equal inner subschemas one shared node.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import EliminationError, NestingDepthError, RefResolutionError, SchemaParseError
from .jsonvalue import JsonValue, PlainDict, is_number, is_plain
from .jsonvalue import serialize_json, string_text, type_of

INF = math.inf

TYPE_NAMES = ("object", "number", "integer", "string", "array", "boolean", "null")

SDK_NAMES = ("additionalProperties", "items")
ADK_NAMES = ("unevaluatedProperties", "unevaluatedItems")

#: Keywords we recognise but deliberately do not support; silently treating
#: them as inert unknowns would change validation outcomes (and, for
#: ``if``/``then``/``else``, drop the annotations they produce).
UNSUPPORTED_NAMES = (
    "$id",
    "$dynamicRef",
    "$dynamicAnchor",
    "dependentSchemas",
    "dependentRequired",
    "exclusiveMinimum",
    "exclusiveMaximum",
    "multipleOf",
    "minLength",
    "maxLength",
    "enum",
    "if",
    "then",
    "else",
)

SCHEMA_VALUED = (
    "not",
    "propertyNames",
    "contains",
    "additionalProperties",
    "items",
    "unevaluatedProperties",
    "unevaluatedItems",
)
LIST_VALUED = ("anyOf", "allOf", "oneOf", "prefixItems")
MAP_VALUED = ("properties", "patternProperties")

#: How a keyword holds subschemas: 0 one, 1 a list, 2 a name map.  Every
#: traversal of a node's children dispatches on this table.
CHILD_KIND = {
    **dict.fromkeys(SCHEMA_VALUED, 0),
    **dict.fromkeys(LIST_VALUED, 1),
    **dict.fromkeys(MAP_VALUED, 2),
}

#: The keywords whose check reads the syntax of sibling keywords, each
#: with the siblings it reads.  The validator, normalization and the push
#: take these facts from this table.  The ``unevaluated*`` keywords are
#: left out: the validator reads their siblings itself, and
#: ``enf._READ_BY`` would otherwise keep them in one unit with those
#: siblings and change normalization.
READS = {
    "additionalProperties": ("properties", "patternProperties"),
    "items": ("prefixItems",),
    "contains": ("minContains", "maxContains"),
}

#: The JSON type each type-specific keyword constrains: an instance of any
#: other type passes it.  ``minContains``/``maxContains`` have no check of
#: their own (``contains`` reads them).  The validator's dispatch and the
#: oracle's choice of universe both take this fact from here.
CONSTRAINS = {
    **dict.fromkeys(("minimum", "maximum"), "number"),
    "pattern": "string",
    **dict.fromkeys(
        ("properties", "patternProperties", "additionalProperties", "required",
         "propertyNames", "minProperties", "maxProperties", "unevaluatedProperties"),
        "object",
    ),
    **dict.fromkeys(
        ("prefixItems", "items", "contains", "minItems", "maxItems", "uniqueItems",
         "unevaluatedItems"),
        "array",
    ),
}

_PLAIN_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")


def keyword_rank(name: str) -> int:
    if name in ADK_NAMES:
        return 2
    if name in SDK_NAMES:
        return 1
    return 0


def _rank(kw: Keyword) -> int:
    return keyword_rank(kw.name)


@dataclass(frozen=True, slots=True)
class Keyword:
    """One schema keyword: a name plus its parsed argument.

    Argument shapes: ``Schema`` for schema-valued keywords, tuples of
    ``Schema`` for list-valued ones, ``dict[str, Schema]`` for map-valued
    ones, and plain scalars/JSON otherwise.  Unknown keywords keep their
    raw JSON argument and are inert during validation.
    """

    name: str
    value: Any

    def __repr__(self):  # compact, for assertion messages
        return f"Keyword({self.name!r})"


class Schema:
    """A schema node: a boolean or an ordered keyword list.

    Node identity is the canonical text (:func:`canonical_text`), computed
    at most once per node from the children's keys and cached as
    :attr:`key`.  Two nodes are equal, and hash equal, exactly when their
    canonical texts are equal.  The text
    is used rather than Python structural equality, under which
    ``{"const": true}`` and ``{"const": 1}`` would be the same node.
    """

    __slots__ = ("_key",)

    @property
    def key(self) -> str:
        try:
            return self._key
        except AttributeError:
            key = canonical_text(self)
            object.__setattr__(self, "_key", key)  # nodes are frozen
            return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Schema):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        try:
            return hash(self._key)
        except AttributeError:
            return hash(self.key)


@dataclass(frozen=True, eq=False, slots=True)
class BoolSchema(Schema):
    value: bool


@dataclass(frozen=True, eq=False, slots=True)
class ObjSchema(Schema):
    """An ordered keyword list, in rank order (:func:`keyword_rank`), so
    that an ``unevaluated*`` keyword, if any, comes last."""

    keywords: tuple[Keyword, ...]

    def get(self, name: str) -> Optional[Keyword]:
        for kw in self.keywords:
            if kw.name == name:
                return kw
        return None

    def single_keyword(self, name: str) -> Optional[Keyword]:
        """The keyword, provided it is the only one in this schema."""
        if len(self.keywords) == 1 and self.keywords[0].name == name:
            return self.keywords[0]
        return None


TRUE_SCHEMA = BoolSchema(True)
FALSE_SCHEMA = BoolSchema(False)


def make_obj(*keywords: Keyword) -> ObjSchema:
    """Build an object schema, reordering keywords into the grammar partition."""
    ordered = tuple(sorted(keywords, key=_rank))
    names = [kw.name for kw in ordered]
    if len(names) != len(set(names)):
        raise SchemaParseError(f"duplicate keyword among {names}")
    return ObjSchema(ordered)


def any_of(branches: Iterable[Schema]) -> ObjSchema:
    return ObjSchema((Keyword("anyOf", tuple(branches)),))


def all_of(branches: Iterable[Schema]) -> ObjSchema:
    return ObjSchema((Keyword("allOf", tuple(branches)),))


def combine(parts: Iterable[Schema], unit: BoolSchema) -> Schema:
    """Conjunction (``unit`` true) or disjunction (``unit`` false) of ``parts``.

    The children of a part that is a bare ``allOf`` (``anyOf``) are spliced
    in, one level deep.  The unit is dropped, and so is ``{}`` in a
    conjunction; the others are deduplicated by key.  An absorbing constant
    (``false`` in a conjunction, ``true`` or ``{}`` in a disjunction) is
    returned alone, a lone part bare, and the unit when no part is left.
    Booleans are told by type, so that no key is computed for them.
    """
    conj = unit.value
    name = "allOf" if conj else "anyOf"
    kept = []
    for part in parts:
        kw = part.single_keyword(name) if isinstance(part, ObjSchema) else None
        for s in (part,) if kw is None else kw.value:
            if isinstance(s, BoolSchema):
                if s.value is not conj:
                    return s
            elif s.keywords:
                kept.append(s)
            elif not conj:
                return s
    if len(kept) > 1:
        kept = list(dict.fromkeys(kept))
    if not kept:
        return unit
    if len(kept) == 1:
        return kept[0]
    return all_of(kept) if conj else any_of(kept)


def operands(s: Schema, name: str) -> tuple[Schema, ...]:
    """The operands of ``s`` if its only keyword is ``name`` (``allOf`` or
    ``anyOf``), else ``(s,)``."""
    if isinstance(s, ObjSchema) and len(s.keywords) == 1 and s.keywords[0].name == name:
        return s.keywords[0].value
    return (s,)


def not_(s: Schema) -> ObjSchema:
    return ObjSchema((Keyword("not", s),))


def ref(uri: str) -> ObjSchema:
    return ObjSchema((Keyword("$ref", uri),))


@dataclass
class SchemaDocument:
    """A closed schema: a root plus its named definitions and anchors."""

    root: Schema
    defs: dict[str, Schema] = field(default_factory=dict)
    anchors: dict[str, Schema] = field(default_factory=dict)
    #: The validator's closures, per node of this document, keyed by the
    #: node's ``id``; filled on first validation (see :mod:`uneval.validator`).
    #: Each entry holds its node, which keeps the id from being reused.
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: :func:`find_unguarded_cycle`'s answer, ``()`` for none; filled on
    #: first call.  Like ``compiled``, it relies on the document not
    #: changing after construction.
    cycle: Optional[tuple[str, ...]] = field(default=None, init=False, repr=False, compare=False)
    #: Whether a node below the root or a definition carries
    #: ``unevaluated*``: recorded by :func:`parse_schema`, None (unknown)
    #: for a document assembled by :func:`build_document`.
    nested_uneval: Optional[bool] = field(default=None, init=False, repr=False, compare=False)
    #: The JSON form that :func:`serialize_schema` returns copies of:
    #: built and kept by :func:`check_rewrite` for a rewrite, None (built
    #: per call) for any other document.
    json_form: JsonValue = field(default=None, init=False, repr=False, compare=False)

    def named_schemas(self) -> Iterator[tuple[str, Schema]]:
        """Root first (name ``""``), then definitions in name order."""
        yield "", self.root
        for name in sorted(self.defs):
            yield name, self.defs[name]


# ---------------------------------------------------------------------------
# parsing


def _ecma_end_anchors(source: str) -> str:
    """``source`` with every ``$`` outside a character class, and not
    escaped, written as ``\\Z``: in ECMA-262 ``$`` matches only at the end
    of the input, in Python also before a final newline.  Classes are
    delimited as Python reads them, where a ``]`` right after ``[`` or
    ``[^`` is a member."""
    if "$" not in source:
        return source
    out = []
    i, n = 0, len(source)
    in_class = False
    while i < n:
        c = source[i]
        i += 1
        if c == "\\":
            c += source[i : i + 1]
            i += 1
        elif in_class:
            in_class = c != "]"
        elif c == "[":
            in_class = True
            if source.startswith("^", i):
                c += "^"
                i += 1
            if source.startswith("]", i):
                c += "]"
                i += 1
        elif c == "$":
            c = "\\Z"
        out.append(c)
    return "".join(out)


@functools.lru_cache(maxsize=1024)
def compile_pattern(source: str) -> re.Pattern:
    """The compiled pattern, with ``$`` meaning the end of the input as in
    ECMA-262; the most recently used sources are kept.  A syntax error is
    reported at its position in ``source``."""
    try:
        return re.compile(_ecma_end_anchors(source))
    except re.error:
        re.compile(source)
        raise


#: The kinds of :func:`pattern_kind`: the pattern matches a name equal to,
#: starting with or containing its literal text, or it is a regex.
EXACT, PREFIX, SUBSTRING, REGEX = "exact", "prefix", "substring", "regex"

# ``^``, a literal, ``$``: a literal holds no character with a meaning in a
# pattern unescaped, and escapes only characters other than ASCII letters
# and digits, each of which then stands for itself (what ``re.escape``
# writes)
_LITERAL_PATTERN_RE = re.compile(r"(\^?)((?:[^\\^$.|?*+()\[\]{}]|\\[^0-9A-Za-z])*)(\$?)")
# DOTALL, since an escaped newline stands for a newline
_ESCAPED_RE = re.compile(r"\\(.)", re.DOTALL)


@functools.lru_cache(maxsize=1024)
def pattern_kind(source: str) -> tuple[str, str]:
    """``(kind, text)``: how a name can be tested against the pattern
    without a regex.  ``^lit$`` is :data:`EXACT`, ``^lit`` :data:`PREFIX`
    and ``lit`` :data:`SUBSTRING`, with ``text`` the literal unescaped; any
    other pattern is :data:`REGEX`, with ``text`` the source.  So
    ``compile_pattern(source).search(name)`` succeeds exactly when
    ``name == text``, ``name.startswith(text)`` or ``text in name``."""
    m = _LITERAL_PATTERN_RE.fullmatch(source)
    if m is None:
        return REGEX, source
    start, lit, end = m.groups()
    if end and not start:
        return REGEX, source
    text = _ESCAPED_RE.sub(r"\1", lit)
    return (EXACT if end else PREFIX if start else SUBSTRING), text


def pattern_matches(source: str, name: str) -> bool:
    """Unanchored match: the pattern 'a' matches any string containing 'a'."""
    return compile_pattern(source).search(name) is not None


def _pointer_segment(name: str) -> str:
    """``name`` as one JSON pointer segment: ``~`` as ``~0``, ``/`` as
    ``~1`` (RFC 6901)."""
    return name.replace("~", "~0").replace("/", "~1")


def type_name(v) -> str:
    try:
        return type_of(v)
    except TypeError:
        return type(v).__name__


def _parse_pattern(v):
    if not isinstance(v, str):
        raise SchemaParseError("expected a pattern string")
    try:
        compile_pattern(v)
    except re.error as exc:
        raise SchemaParseError(f"invalid regular expression {v!r}: {exc}")
    return v


#: Keywords that move to the end of a node's keyword list.
_RANKED = frozenset(SDK_NAMES + ADK_NAMES)
_ADK = frozenset(ADK_NAMES)

def _drop_contains_bounds(keywords: list[Keyword], has_contains: bool) -> list[Keyword]:
    """``keywords`` without ``minContains``/``maxContains`` when no
    ``contains`` stands beside them, and without a ``minContains: 1``,
    the default, when one does."""
    return [
        kw
        for kw in keywords
        if kw.name not in ("minContains", "maxContains")
        or (has_contains and (kw.name, kw.value) != ("minContains", 1))
    ]


class _Parser:
    """One parse of a document.

    Inner nodes are hash-consed by their identity, :attr:`Schema.key`: two
    equal ones are one object, the first parsed, so a re-parsed rewrite
    shares its subschemas as the rewrite did.  Named tops are never
    shared, so each has one place.  The table lives as long as the
    parser.

    A ``SchemaParseError`` is raised with the path below the keyword or
    node that detects it, and each enclosing level prepends its segment
    while the error unwinds, so no path is built unless one is reported.
    """

    def __init__(self):
        #: every ``$ref`` argument parsed so far, in the order parsed
        self.refs: list[str] = []
        self.interned: dict[ObjSchema, ObjSchema] = {}
        #: whether a node that is not a named top carries unevaluated*
        self.nested_uneval = False

    def parse_schema_node(self, v: JsonValue, named_top: bool) -> Schema:
        if isinstance(v, bool):
            return TRUE_SCHEMA if v else FALSE_SCHEMA
        if not isinstance(v, dict):
            raise SchemaParseError(f"a schema must be a boolean or an object, got {type_name(v)}")
        keywords: list[Keyword] = []
        parsers, inert = _KEYWORD_PARSERS, _Parser.inert
        try:
            for name, arg in v.items():
                keywords.append(parsers.get(name, inert)(self, name, arg, named_top))
        except SchemaParseError as exc:
            exc.path = f"/{_pointer_segment(name)}{exc.path}"
            raise
        if "minContains" in v or "maxContains" in v:
            keywords = _drop_contains_bounds(keywords, "contains" in v)
        if not _RANKED.isdisjoint(v):
            keywords.sort(key=_rank)
            if not named_top and not _ADK.isdisjoint(v):
                self.nested_uneval = True
        node = ObjSchema(tuple(keywords))
        return node if named_top else self.interned.setdefault(node, node)

    # One method per keyword class: ``(name, arg, named_top) -> Keyword``.

    def inert(self, name, arg, named_top):
        """``const``, and unknown keywords, which round-trip verbatim."""
        return Keyword(name, arg)

    def unsupported(self, name, arg, named_top):
        raise SchemaParseError(f"keyword {name!r} is not supported")

    def nested_defs(self, name, arg, named_top):
        raise SchemaParseError("$defs is only allowed at the top level of the document")

    def anchor(self, name, arg, named_top):
        if not named_top:
            raise SchemaParseError(
                "$anchor is only supported at the top level of the root or of a named schema"
            )
        if not isinstance(arg, str) or not _PLAIN_NAME_RE.fullmatch(arg):
            raise SchemaParseError("expected a plain-name anchor")
        return Keyword(name, arg)

    def reference(self, name, arg, named_top):
        if not isinstance(arg, str):
            raise SchemaParseError("expected a reference string")
        if not (
            arg.startswith("#/$defs/")
            and "/" not in arg[len("#/$defs/") :]
            and arg[len("#/$defs/") :]
        ) and not (arg.startswith("#") and _PLAIN_NAME_RE.fullmatch(arg[1:])):
            raise SchemaParseError(
                f"only local references of shape '#/$defs/name' or "
                f"'#anchor' are supported, got {arg!r}"
            )
        self.refs.append(arg)
        return Keyword(name, arg)

    def type_(self, name, arg, named_top):
        if arg not in TYPE_NAMES:
            raise SchemaParseError(f"unknown type {arg!r}")
        return Keyword(name, arg)

    def required(self, name, arg, named_top):
        if not isinstance(arg, list) or not all(isinstance(k, str) for k in arg):
            raise SchemaParseError("expected an array of property names")
        return Keyword(name, tuple(arg))

    def unique_items(self, name, arg, named_top):
        if not isinstance(arg, bool):
            raise SchemaParseError("expected a boolean")
        return Keyword(name, arg)

    def number(self, name, arg, named_top):
        if not is_number(arg):
            raise SchemaParseError(f"expected a number, got {type_name(arg)}")
        return Keyword(name, arg)

    def nonneg_int(self, name, arg, named_top):
        if isinstance(arg, bool) or not isinstance(arg, int) or arg < 0:
            raise SchemaParseError("expected a non-negative integer")
        return Keyword(name, arg)

    def pattern(self, name, arg, named_top):
        return Keyword(name, _parse_pattern(arg))

    def schema_valued(self, name, arg, named_top):
        return Keyword(name, self.parse_schema_node(arg, False))

    def list_valued(self, name, arg, named_top):
        if not isinstance(arg, list):
            raise SchemaParseError("expected an array of schemas")
        subs = []
        try:
            for s in arg:
                subs.append(self.parse_schema_node(s, False))
        except SchemaParseError as exc:
            exc.path = f"/{len(subs)}{exc.path}"
            raise
        return Keyword(name, tuple(subs))

    def map_valued(self, name, arg, named_top):
        if not isinstance(arg, dict):
            raise SchemaParseError("expected an object of schemas")
        try:
            if name == "patternProperties":
                for key in arg:
                    _parse_pattern(key)
            parsed = {}
            for key in sorted(arg):
                parsed[key] = self.parse_schema_node(arg[key], False)
        except SchemaParseError as exc:
            exc.path = f"/{_pointer_segment(key)}{exc.path}"
            raise
        return Keyword(name, parsed)


_KEYWORD_PARSERS: dict[str, Callable] = {
    **dict.fromkeys(UNSUPPORTED_NAMES, _Parser.unsupported),
    "$defs": _Parser.nested_defs,
    "$anchor": _Parser.anchor,
    "$ref": _Parser.reference,
    "type": _Parser.type_,
    "required": _Parser.required,
    "uniqueItems": _Parser.unique_items,
    "minimum": _Parser.number,
    "maximum": _Parser.number,
    "pattern": _Parser.pattern,
    **dict.fromkeys(
        ("minProperties", "maxProperties", "minItems", "maxItems", "minContains", "maxContains"),
        _Parser.nonneg_int,
    ),
    **dict.fromkeys(SCHEMA_VALUED, _Parser.schema_valued),
    **dict.fromkeys(LIST_VALUED, _Parser.list_valued),
    **dict.fromkeys(MAP_VALUED, _Parser.map_valued),
}


def parse_schema(v: JsonValue) -> SchemaDocument:
    """Parse a JSON value into a schema document.

    Keywords are canonically reordered, ``$defs``/``$anchor`` are indexed,
    ``minContains``/``maxContains`` are dropped where no ``contains``
    reads them and ``minContains: 1``, their default, everywhere, and the
    document is checked to be closed (every reference resolves).  An
    unresolved reference of the root is reported before those of the
    definitions, and within one named schema the first parsed: keywords in
    source order, map entries by name.  Equal inner subschemas become one
    shared node.  The document records whether a node below its root or a
    definition carries ``unevaluated*`` (``nested_uneval``).  A schema that
    nests beyond the recursion limit raises :class:`NestingDepthError`.
    """
    try:
        return _parse_document(v)
    except RecursionError:
        raise NestingDepthError("the schema nests too deeply to parse") from None


def _parse_document(v: JsonValue) -> SchemaDocument:
    parser = _Parser()
    defs: dict[str, Schema] = {}
    def_refs: list[str] = []
    if isinstance(v, dict) and "$defs" in v:
        defs_json = v["$defs"]
        if not isinstance(defs_json, dict):
            raise SchemaParseError("expected an object of named schemas", "/$defs")
        for name in sorted(defs_json):
            try:
                defs[name] = parser.parse_schema_node(defs_json[name], named_top=True)
            except SchemaParseError as exc:
                exc.path = f"/$defs/{_pointer_segment(name)}{exc.path}"
                raise
        def_refs, parser.refs = parser.refs, []
        v = {k: val for k, val in v.items() if k != "$defs"}
    root = parser.parse_schema_node(v, named_top=True)
    doc = build_document(root, defs)
    for uri in dict.fromkeys(parser.refs + def_refs):
        deref(doc, uri)  # raises if unresolved
    doc.nested_uneval = parser.nested_uneval
    return doc


def build_document(root: Schema, defs: dict[str, Schema]) -> SchemaDocument:
    """A document over already-parsed schemas, anchors re-indexed; the
    caller vouches that every reference resolves."""
    doc = SchemaDocument(root=root, defs=dict(defs))
    _index_anchors(doc)
    return doc


def _index_anchors(doc: SchemaDocument) -> None:
    anchors: dict[str, Schema] = {}
    for name, schema in doc.named_schemas():
        if not isinstance(schema, ObjSchema):
            continue
        kw = schema.get("$anchor")
        if kw is None:
            continue
        anchor = kw.value
        if anchor in anchors and anchors[anchor] is not schema:
            raise SchemaParseError(
                f"anchor {anchor!r} is declared by two different schemas", "/$defs"
            )
        if anchor in doc.defs and doc.defs[anchor] is not schema:
            raise SchemaParseError(
                f"anchor {anchor!r} collides with the definition of the same "
                "name but designates a different schema",
                "/$defs",
            )
        anchors[anchor] = schema
    doc.anchors = anchors


def deref(doc: SchemaDocument, uri: str) -> Schema:
    """Resolve ``#/$defs/name`` (RFC 6901 escapes decoded) or ``#anchor``."""
    if uri.startswith("#/$defs/"):
        name = uri[len("#/$defs/") :]
        if "~" in name:
            name = name.replace("~1", "/").replace("~0", "~")
        try:
            return doc.defs[name]
        except KeyError:
            raise RefResolutionError(f"unresolved reference {uri!r}") from None
    if uri.startswith("#") and len(uri) > 1:
        try:
            return doc.anchors[uri[1:]]
        except KeyError:
            raise RefResolutionError(f"unresolved reference {uri!r}") from None
    raise RefResolutionError(f"unsupported reference shape {uri!r}")


# ---------------------------------------------------------------------------
# traversal


def child_schemas(s: Schema) -> Iterator[tuple[Keyword, Schema]]:
    """All directly nested subschemas, with the keyword that holds them."""
    if not isinstance(s, ObjSchema):
        return
    for kw in s.keywords:
        kind = CHILD_KIND.get(kw.name)
        if kind == 0:
            yield kw, kw.value
        elif kind == 1:
            for sub in kw.value:
                yield kw, sub
        elif kind == 2:
            for sub in kw.value.values():
                yield kw, sub


def distinct_nodes(tops: Iterable[Schema]) -> list[Schema]:
    """Every node reachable from ``tops``, each once however often it
    occurs, in the order first met: ``tops`` in turn, each pre-order, but
    with the children of a node taken last to first.

    Rewrites share subschemas, so this costs one visit per distinct node
    where a recursive pre-order walk costs one per occurrence.  Nodes are
    told apart by ``id``, not by :attr:`Schema.key`, so no key is
    computed.  Children are pushed as they come and popped last first;
    putting them in pre-order would cost a reversal per node.
    """
    order: list[Schema] = []
    seen: set[int] = set()
    stack: list = list(tops)
    stack.reverse()
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        order.append(s)
        if isinstance(s, ObjSchema):
            for kw in s.keywords:
                kind = CHILD_KIND.get(kw.name)
                if kind == 0:
                    stack.append(kw.value)
                elif kind == 1:
                    stack.extend(kw.value)
                elif kind == 2:
                    stack.extend(kw.value.values())
    return order


# ---------------------------------------------------------------------------
# guarded recursion and in-place depth


def _inplace_edges(
    doc: SchemaDocument, s: Schema
) -> Iterator[tuple[str, Schema]]:
    """Successors of a schema through boolean keywords and references."""
    if not isinstance(s, ObjSchema):
        return
    for kw in s.keywords:
        if kw.name in ("anyOf", "allOf", "oneOf"):
            for i, sub in enumerate(kw.value):
                yield f"{kw.name}[{i}]", sub
        elif kw.name == "not":
            yield "not", kw.value
        elif kw.name == "$ref":
            yield f"$ref:{kw.value}", deref(doc, kw.value)


def find_unguarded_cycle(doc: SchemaDocument) -> Optional[list[str]]:
    """One cycle of the immediately-unguardedly-depends graph, or None.

    The cycle is the first that a depth-first search meets, searching from
    the root and then from each definition in name order.  It is a path
    from the named schema whose search found it: its start label (``#`` or
    ``#/$defs/name``), then the edge labels up to the first node met again
    on the path, which may be an inner node that two places share.
    Searched once per document and kept in ``doc.cycle``; each call
    returns a list of its own.
    """
    if doc.cycle is None:
        doc.cycle = tuple(_first_unguarded_cycle(doc) or ())
    return list(doc.cycle) or None


_GREY, _BLACK = 1, 2


def _first_unguarded_cycle(doc: SchemaDocument) -> Optional[list[str]]:
    """One depth-first search from each named schema in turn, colours
    shared.  Every cycle takes a reference, so it passes through a named
    schema; an anchor designates one of them, as the parser allows
    ``$anchor`` only at the top of one.

    ``color`` marks the nodes on the path (grey) and those finished
    (black).  The path is a stack of ``(node, edges left)`` pairs, not of
    frames, so any chain length fits; ``trail`` holds the labels of the
    edges along it."""
    color: dict[int, int] = {}
    for name, top in doc.named_schemas():
        if id(top) in color:
            continue
        color[id(top)] = _GREY
        trail: list[str] = []
        stack = [(top, _inplace_edges(doc, top))]
        while stack:
            for label, nxt in stack[-1][1]:
                state = color.get(id(nxt))
                if state == _BLACK:
                    continue
                trail.append(label)
                if state == _GREY:
                    trail.insert(0, f"#/$defs/{_pointer_segment(name)}" if name else "#")
                    return trail
                color[id(nxt)] = _GREY
                stack.append((nxt, _inplace_edges(doc, nxt)))
                break
            else:
                node, _ = stack.pop()
                color[id(node)] = _BLACK
                if stack:
                    trail.pop()
    return None


def boolean_one_of(args: Iterable[Schema]) -> Schema:
    """Expand exclusive choice into anyOf-of-allOf with negated siblings."""
    branches = []
    args = tuple(args)
    for i, s in enumerate(args):
        conj = tuple(
            args[j] if j == i else not_(args[j]) for j in range(len(args))
        )
        branches.append(all_of(conj))
    return any_of(branches)


# ---------------------------------------------------------------------------
# serialization


def schema_to_json(s: Schema) -> JsonValue:
    """JSON form of a schema.

    A node that occurs several times in the tree, as rewrites share
    subschemas, is converted once and its occurrences share that value.
    """
    return _JsonForm(None, CHILD_KIND).node(s)


#: :data:`CHILD_KIND` for :func:`check_rewrite`'s walk, with two more
#: kinds: an unevaluated* keyword is left behind, a ``$ref`` is resolved.
_LEFT_BEHIND, _RESOLVED = 3, 4
_CHECKED_KIND = {**CHILD_KIND, **dict.fromkeys(ADK_NAMES, _LEFT_BEHIND), "$ref": _RESOLVED}


class _JsonForm:
    """The JSON forms of nodes of ``doc``.  ``memo`` maps the ids of the
    nodes converted so far to their values, which their occurrences
    share; ``plain`` tells whether every keyword value written so far is
    plain (:func:`is_plain`).  ``kinds`` tells how each keyword is taken:
    :data:`CHILD_KIND` or :data:`_CHECKED_KIND`."""

    __slots__ = ("doc", "kinds", "memo", "plain")

    def __init__(self, doc: Optional[SchemaDocument], kinds: dict):
        self.doc = doc
        self.kinds = kinds
        self.memo: dict[int, dict] = {}
        self.plain = True

    def node(self, s: Schema) -> JsonValue:
        """One frame per nesting level: the keywords are converted here,
        with plain loops, since a comprehension would take a frame of its
        own.  Keys, names and the parser's ``required`` lists are strings,
        so only the other keyword values are asked whether they are plain."""
        if isinstance(s, BoolSchema):
            return s.value
        memo = self.memo
        out = memo.get(id(s))
        if out is not None:
            return out
        out = memo[id(s)] = {}
        kinds = self.kinds
        for kw in s.keywords:
            kind = kinds.get(kw.name)
            value = kw.value
            if kind == 0:
                value = self.node(value)
            elif kind == 1:
                value = list(value)  # sized once, not grown by appends
                for i, sub in enumerate(value):
                    value[i] = self.node(sub)
            elif kind == 2:
                value = {}
                for name, sub in kw.value.items():
                    value[name] = self.node(sub)
            elif kind is None:
                if kw.name == "required":
                    value = list(value)
                elif not is_plain(value):
                    self.plain = False
            elif kind == _RESOLVED:
                deref(self.doc, value)  # raises if unresolved
            else:
                raise EliminationError("rewriting left unevaluated* keywords behind")
            out[kw.name] = value
        return out

    def document(self) -> JsonValue:
        """The document's form: the root, then the definitions in name
        order under ``$defs``.  A dict root comes as a fresh dict, a
        :class:`PlainDict` when every keyword value is plain."""
        doc = self.doc
        root = self.node(doc.root)
        defs = {name: self.node(s) for name, s in sorted(doc.defs.items())}
        if isinstance(root, bool):
            if defs:
                raise SchemaParseError("cannot attach $defs to a boolean root schema")
            return root
        # a copy, of the class that tells plainness: the root node may
        # also occur inside a definition
        root = (PlainDict if self.plain else dict)(root)
        if defs:
            root["$defs"] = defs
        return root


def serialize_schema(doc: SchemaDocument) -> JsonValue:
    """JSON form of the document, keywords in canonical partition order.

    The walk that builds the form also tells whether it is plain: then
    the root is a :class:`PlainDict`, which ``serialize_json`` writes
    without a scan.  A rewrite's form is built once, by its check
    (:func:`check_rewrite`), and kept; each call returns a fresh shallow
    copy of its root.  Occurrences of one node share one JSON value, and
    a kept form shares them across calls too: copy before mutating.
    """
    form = doc.json_form
    if form is None:
        return _JsonForm(doc, CHILD_KIND).document()
    return type(form)(form)


def check_rewrite(doc: SchemaDocument) -> None:
    """Check that every reference of a rewrite resolves
    (:class:`RefResolutionError`) and that no unevaluated* keyword is
    left (:class:`EliminationError`), and keep the document's JSON form,
    which the same walk builds, in ``doc.json_form``: one visit per
    distinct node."""
    doc.json_form = _JsonForm(doc, _CHECKED_KIND).document()


def canonical_text(s: Schema) -> str:
    """Deterministic text form of a schema: its node identity.

    Equal to ``serialize_json(schema_to_json(s))``, but composed from the
    cached keys of the node's children, so each distinct node is
    serialized once however many nodes contain it.  Read it through the
    cached :attr:`Schema.key`, which calls this once per node.
    """
    if isinstance(s, BoolSchema):
        return "true" if s.value else "false"
    # a dict, as in schema_to_json: a repeated name keeps its last keyword
    by_name = {kw.name: kw.value for kw in s.keywords}
    parts = []
    for name in sorted(by_name):
        value = by_name[name]
        kind = CHILD_KIND.get(name)
        if kind == 0:
            text = value.key
        elif kind == 1:
            text = "[" + ",".join([sub.key for sub in value]) + "]"
        elif kind == 2:
            text = "{" + ",".join([string_text(k) + ":" + value[k].key for k in sorted(value)]) + "}"
        elif name == "required":  # the parser admits only strings
            text = "[" + ",".join(map(string_text, value)) + "]"
        else:
            text = serialize_json(value)
        parts.append(string_text(name) + ":" + text)
    return "{" + ",".join(parts) + "}"
