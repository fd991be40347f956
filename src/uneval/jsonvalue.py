"""JSON value model with exact decimal numbers.

Instances are plain Python trees: ``None``, ``bool``, ``int``/``Decimal``,
``str``, ``list``, ``dict``.  Numbers are kept as exact decimals so that
``minimum``/``maximum``/``const`` comparisons never go through binary
floats and ``1.0`` equals ``1`` by mathematical value.

Values built by the package, such as the JSON form of a rewrite, may reuse
one list or dict object at several places.  :func:`serialize_json` writes
such a shared container once per occurrence: in C for a plain value, in
Python for a value with floats or Decimals.  A value whose maker already
knows it to be plain comes as a :class:`PlainDict` and is not scanned.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring
from typing import Union

from .errors import DuplicateKeyError, JsonParseError

JsonValue = Union[None, bool, int, float, Decimal, str, list, dict]

#: The JSON classes with their type names; ``bool`` comes before ``int``,
#: its base, so that the first class a value is an instance of is its own.
_TYPE_NAMES = {
    bool: "boolean",
    type(None): "null",
    int: "number",
    float: "number",
    Decimal: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def json_class(v: JsonValue) -> type:
    """The JSON class of a value, also of an instance of a subclass."""
    for py_type in _TYPE_NAMES:
        if isinstance(v, py_type):
            return py_type
    raise TypeError(f"not a JSON value: {v!r}")


def type_of(v: JsonValue) -> str:
    """Return the JSON type name of a value ('null', 'boolean', ...)."""
    return _TYPE_NAMES[json_class(v)]


def is_number(v: JsonValue) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float, Decimal))


def _reject_constant(name: str):
    raise JsonParseError(f"non-finite number literal {name!r} is not allowed")


def _object_from_pairs(pairs):
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKeyError(f"duplicate object key {key!r}")
        obj[key] = value
    return obj


#: The interpreter's limit on the digits of an integer literal, 0 for none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal(text: str) -> Decimal:
    """A non-integer literal, held to the limit that integers have: its
    digits plus the size of its exponent, which bound the length of its
    plain-decimal text, read from the ``Decimal`` without writing it."""
    try:
        value = Decimal(text)
    except InvalidOperation:  # an exponent past what a Decimal can hold
        raise JsonParseError(f"number literal {text[:20]!r} has an exponent out of range") from None
    limit = _digit_limit()
    if limit:
        _, digits, exp = value.as_tuple()
        if len(digits) + abs(exp) > limit:
            raise JsonParseError(
                f"number literal {text[:20]!r} spans more than {limit} digits written out "
                "(the limit of sys.set_int_max_str_digits)"
            )
    return value


#: One decoder for every call, as ``json.loads`` shares its default one.
_DECODER = json.JSONDecoder(
    parse_float=_decimal,
    parse_constant=_reject_constant,
    object_pairs_hook=_object_from_pairs,
)


def parse_json(text: str | bytes) -> JsonValue:
    """Parse JSON text into a value tree.

    Floats are decoded as ``Decimal``; duplicate object keys are rejected,
    and so are a leading byte order mark, bytes that are not UTF-8, text
    that nests deeper than the decoder's recursion allows and a number
    literal longer than the interpreter's integer digit limit
    (:func:`_decimal`).
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonParseError(f"invalid UTF-8: {exc.reason}", offset=exc.start) from None
    if text.startswith("\ufeff"):
        # json.loads rejects it too; JSONDecoder.decode would not
        raise JsonParseError("Unexpected UTF-8 BOM (decode using utf-8-sig)", offset=0)
    try:
        return _DECODER.decode(text)
    except JsonParseError:  # a repeated key or a number literal too long
        raise
    except json.JSONDecodeError as exc:
        raise JsonParseError(exc.msg, offset=exc.pos) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise JsonParseError(f"number literal cannot be decoded: {exc}") from None
    except RecursionError:
        raise JsonParseError("the text nests too deeply to decode") from None


def json_equal(a: JsonValue, b: JsonValue) -> bool:
    """Structural equality: objects order-insensitive, numbers by value.

    Booleans are never equal to numbers (``true != 1``), unlike Python's
    native ``==``.
    """
    return unique_key(a) == unique_key(b)


#: Keys of the two booleans, unequal to every other key (``True == 1``).
_TRUE_KEY = object()
_FALSE_KEY = object()


def unique_key(v: JsonValue):
    """A hashable key that is equal for two values exactly when they are
    equal as JSON: objects order-insensitive, numbers by value, booleans
    unequal to numbers.

    Numbers key as themselves: ``int``, ``float`` and ``Decimal`` compare
    and hash by exact value across the three types.  Booleans get keys of
    their own, arrays key as tuples and objects as frozensets of pairs.
    """
    if isinstance(v, bool):
        return _TRUE_KEY if v else _FALSE_KEY
    if isinstance(v, list):
        return tuple(map(unique_key, v))
    if isinstance(v, dict):
        return frozenset((k, unique_key(item)) for k, item in v.items())
    return v


def format_number(v: int | float | Decimal) -> str:
    """Canonical plain-decimal rendering: no exponent, no trailing zeros."""
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        # repr is the shortest decimal that round-trips the float
        v = Decimal(repr(v))
    if v == 0:
        return "0"
    sign, digits, exp = v.as_tuple()
    # strip trailing zeros without Decimal.normalize(), which would round
    # to the thread's context precision
    while len(digits) > 1 and digits[-1] == 0:
        digits = digits[:-1]
        exp += 1
    s = "".join(map(str, digits))
    if exp >= 0:
        out = s + "0" * exp
    elif len(s) > -exp:
        out = s[:exp] + "." + s[exp:]
    else:
        out = "0." + "0" * (-exp - len(s)) + s
    return "-" + out if sign else out


#: JSON text of a string, as ``json.dumps(s, ensure_ascii=False)`` gives it
#: but without building an encoder per call.
string_text = encode_basestring


def _canonical(v: JsonValue) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if is_number(v):
        return format_number(v)
    if isinstance(v, str):
        return string_text(v)
    if isinstance(v, list):
        return "[" + ",".join(map(_canonical, v)) + "]"
    if isinstance(v, dict):
        return (
            "{"
            + ",".join(
                string_text(key) + ":" + _canonical(v[key]) for key in sorted(v.keys())
            )
            + "}"
        )
    raise TypeError(f"not a JSON value: {v!r}")


#: Scalar types the C encoder writes exactly as :func:`_canonical` does.
_PLAIN_SCALARS = frozenset((str, int, bool, type(None)))
_STR_ONLY = frozenset((str,))


def is_plain(v: JsonValue) -> bool:
    """Whether every scalar in ``v``, or ``v`` itself if it is a scalar,
    is exactly a str, int, bool or None and every key a str.  Each
    distinct list or dict is checked once, so a container shared at many
    places costs one visit."""
    if type(v) is not dict and type(v) is not list:
        return type(v) in _PLAIN_SCALARS
    seen: set[int] = set()
    stack = [v]
    pop, push, add = stack.pop, stack.append, seen.add
    while stack:
        x = pop()
        i = id(x)
        if i in seen:
            continue
        add(i)
        if type(x) is dict:
            if not _STR_ONLY.issuperset(map(type, x)):
                return False
            x = x.values()
        for c in x:
            t = type(c)
            if t is dict or t is list:
                push(c)
            elif t not in _PLAIN_SCALARS:
                return False
    return True


class PlainDict(dict):
    """A dict whose maker knows it to be plain (:func:`is_plain`), such as
    the root of a schema's JSON form: :func:`serialize_json` writes it in
    C without scanning it.  Store no float, Decimal or non-str key below
    one; copy it into a ``dict`` to do so."""

    __slots__ = ()


#: Writes plain values (see :func:`is_plain`) in C, with the same text as
#: :func:`_canonical`: ints through ``int.__repr__``, strings through
#: :data:`string_text`, keys sorted.  A shared container is written at
#: each of its occurrences.
_PLAIN_ENCODER = json.JSONEncoder(
    ensure_ascii=False, separators=(",", ":"), sort_keys=True, check_circular=False
)


def serialize_json(v: JsonValue) -> str:
    """Canonical serialization: compact, object keys in lexicographic order.

    Deterministic by construction, so equal values always serialize to the
    same text; schema deduplication relies on this.  A plain value, one
    without floats or Decimals, goes through the C encoder, any other
    through :func:`_canonical`; a :class:`PlainDict` is taken as plain
    without a scan.  Both write a list or dict object that occurs at
    several places in ``v`` (as the JSON form of a rewrite shares
    subschemas) once per occurrence.
    """
    if type(v) is PlainDict:
        return _PLAIN_ENCODER.encode(v)
    if type(v) is not dict and type(v) is not list:
        return _canonical(v)
    if is_plain(v):
        return _PLAIN_ENCODER.encode(v)
    return _canonical(v)


def dump_json(v: JsonValue) -> str:
    """Pretty writer, two spaces per level, keeping dict insertion order.

    The open containers are kept on a stack of ``(rows left, indent of
    the rows, closing bracket, rows are key-value pairs)`` entries, not
    of frames, so any nesting depth fits.  Each row is written with the
    separator after it; a container's last separator is replaced by its
    closing line.  Scalars and empty containers are written as
    :func:`_canonical` writes them.
    """
    if not (isinstance(v, (dict, list)) and v):
        return _canonical(v)
    parts: list[str] = []
    stack: list[tuple] = []
    node = v
    while True:
        pad = "  " * (len(stack) + 1)
        if isinstance(node, dict):
            parts.append("{\n" + pad)
            stack.append((iter(node.items()), pad, "}", True))
        else:
            parts.append("[\n" + pad)
            stack.append((iter(node), pad, "]", False))
        while stack:
            rows, pad, close, pairs = stack[-1]
            for row in rows:
                if pairs:
                    key, row = row
                    parts.append(string_text(key) + ": ")
                if isinstance(row, (dict, list)) and row:
                    node = row
                    break
                parts.append(_canonical(row))
                parts.append(",\n" + pad)
            else:
                stack.pop()
                parts[-1] = "\n" + pad[2:] + close
                if stack:
                    parts.append(",\n" + stack[-1][1])
                continue
            break
        else:
            return "".join(parts)
