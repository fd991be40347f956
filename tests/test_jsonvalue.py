import copy
import json
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uneval import jsonvalue
from uneval.errors import DuplicateKeyError, JsonParseError
from uneval.jsonvalue import (
    _canonical,
    dump_json,
    format_number,
    is_number,
    json_equal,
    parse_json,
    serialize_json,
    type_of,
    unique_key,
)
from uneval.schema import serialize_schema

from randgen import gen_instance, gen_schema


def test_parse_object():
    assert parse_json('{"a":1}') == {"a": 1}


def test_parse_array_mixed():
    assert parse_json('[3,"a",3]') == [3, "a", 3]


def test_parse_duplicate_key_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_json('{"a":1,"a":2}')


def test_parse_syntax_error_has_offset():
    with pytest.raises(JsonParseError) as exc:
        parse_json('{"a": }')
    assert exc.value.offset is not None


def test_parse_invalid_utf8_has_byte_offset():
    with pytest.raises(JsonParseError) as exc:
        parse_json(b"\xff\xfe{}")
    assert exc.value.offset == 0
    with pytest.raises(JsonParseError) as exc:
        parse_json(b'{"a": "\xc3"}')
    assert exc.value.offset == 7
    assert parse_json('{"é": 1}'.encode()) == {"é": 1}


def test_parse_rejects_nan():
    with pytest.raises(JsonParseError):
        parse_json("NaN")


@pytest.mark.parametrize("text", ["\ufeff{\"a\": 1}", "\ufeff{\"a\": 1}".encode()])
def test_parse_rejects_leading_bom(text):
    with pytest.raises(JsonParseError) as exc:
        parse_json(text)
    assert exc.value.offset == 0
    assert str(exc.value).startswith("Unexpected UTF-8 BOM")


def test_parse_duplicate_key_in_nested_object_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_json('{"a": [{"b": 1, "c": {"d": 2, "d": 3}}]}')


@pytest.mark.parametrize("text", ["[NaN]", "[Infinity]", "[-Infinity]"])
def test_parse_rejects_non_finite_literals_inside_values(text):
    with pytest.raises(JsonParseError, match="non-finite"):
        parse_json(text)


def test_parse_too_deep_text_is_a_parse_error():
    with pytest.raises(JsonParseError, match="the text nests too deeply to decode"):
        parse_json("[" * 100000)


def test_parse_integer_past_the_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "1" * (limit + 1)
    for text in (digits, '{"minimum": ' + digits + "}"):
        with pytest.raises(JsonParseError, match="number literal"):
            parse_json(text)


def test_parse_holds_a_non_integer_to_the_digit_limit():
    """Digits plus the size of the exponent may reach the integer digit
    limit, not pass it; small and large exponents within it still parse."""
    assert parse_json("1e-400") == Decimal("1e-400")
    assert parse_json("2.5e300") == Decimal("2.5e300")
    assert parse_json("-0.0") == 0 and parse_json("-0.0").is_signed()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    assert parse_json(f"1e{limit - 1}") == Decimal(f"1e{limit - 1}")
    assert parse_json("0." + "1" * (limit // 2)) == Decimal("0." + "1" * (limit // 2))
    for text in (f"1e{limit}", f"1e-{limit}", "0." + "1" * (limit // 2 + 1), "[1e10000000]"):
        with pytest.raises(JsonParseError, match=f"number literal .* more than {limit} digits"):
            parse_json(text)


def test_parse_rejects_an_exponent_a_decimal_cannot_hold():
    with pytest.raises(JsonParseError, match="exponent out of range"):
        parse_json('{"minimum": 1e9999999999999999999}')


def test_numbers_parsed_exactly():
    v = parse_json("[1.0, 0.1, 100]")
    assert v[0] == Decimal("1.0")
    assert isinstance(v[1], Decimal)
    assert isinstance(v[2], int)


def test_equal_object_order_irrelevant():
    assert json_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})


def test_equal_numeric_value():
    assert json_equal(Decimal("1.0"), 1)
    assert json_equal(1.0, 1)


def test_equal_arrays_are_ordered():
    assert not json_equal([1, 2], [2, 1])


def test_bool_is_not_number():
    assert not json_equal(True, 1)
    assert not json_equal(0, False)
    assert type_of(True) == "boolean"
    assert type_of(1) == "number"


def test_serialize_sorts_keys():
    assert serialize_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_serialize_scalars():
    assert serialize_json(None) == "null"
    assert serialize_json([]) == "[]"
    assert serialize_json(Decimal("1.0")) == "1"
    assert serialize_json(Decimal("2.50")) == "2.5"


def _unshared(v):
    """A copy in which no list or dict object occurs twice."""
    if isinstance(v, list):
        return [_unshared(x) for x in v]
    if isinstance(v, dict):
        return {k: _unshared(x) for k, x in v.items()}
    return v


def test_serialize_shared_containers():
    leaf = {"b": [1, "x", None], "a": Decimal("1.50")}
    pair = [leaf, leaf]
    inner = {"p": pair, "q": leaf, "r": [pair, {"s": pair}]}
    value = {"one": inner, "two": [inner, inner, pair], "three": leaf, "four": [[leaf]]}
    expected = serialize_json(_unshared(value))
    assert serialize_json(value) == expected
    assert serialize_json(copy.deepcopy(value)) == expected
    assert serialize_json(value) == expected
    assert serialize_json([leaf, leaf]) == "[" + ",".join([serialize_json(leaf)] * 2) + "]"


def _random_shared_value(rng: random.Random):
    """A value built bottom-up from a pool, so that later containers reuse
    earlier ones at several places and depths."""
    pool = [None, True, False, 0, -3, 10**20, "", "a", "é\u2028\"\n", "\x00"]
    containers = []
    for _ in range(rng.randrange(1, 30)):
        members = [rng.choice(pool) for _ in range(rng.randrange(0, 5))]
        if rng.random() < 0.5:
            new = members
        else:
            new = {rng.choice("abcdé"): m for m in members}
        pool.append(new)
        containers.append(new)
    return [rng.choice(containers) for _ in range(rng.randrange(1, 4))]


def test_serialize_shared_containers_random():
    for seed in range(300):
        value = _random_shared_value(random.Random(seed))
        flat = _unshared(value)
        # an independent reference: the canonical form is json.dumps's
        # compact sorted form for values without floats or Decimals
        expected = json.dumps(flat, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert serialize_json(flat) == expected, seed
        assert serialize_json(value) == expected, seed
        assert serialize_json(copy.deepcopy(value)) == expected, seed
        assert serialize_json(value) == expected, seed


def test_serialize_plain_trees_as_canonical():
    """Plain trees take the C encoder, others the Python writers; all
    agree with the recursive canonical writer."""
    rng = random.Random(23)
    values = [gen_instance(rng, 4) for _ in range(300)]
    values += [gen_schema(rng, 4) for _ in range(300)]
    values += [
        {"a": 1.0, "b": [1e20, -0.5]},
        [Decimal("1.50"), Decimal("1E+3"), Decimal("-0")],
        {"t": True, "f": False, "one": 1, "zero": 0, "big": 10**30, "n": None},
        [True, 1, False, 0, [True], {"1": 1}],
        {"é": "\u2028\"\n\x00", "": [[], {}]},
        {"deep": [[[[{"x": [1, [2, [3]]]}]]]]},
    ]
    for v in values:
        assert serialize_json(v) == _canonical(v), v
    leaf = {"k": [1, "x"]}
    shared = {"p": leaf, "q": [leaf, leaf], "r": 1.0}
    assert serialize_json(shared) == _canonical(shared)
    assert serialize_json([leaf, leaf]) == _canonical([leaf, leaf])


def test_serialize_dag_paths_as_canonical(monkeypatch):
    """A plain value goes through the C encoder whether it shares
    containers or not; a value with a Decimal or a float, even one met
    only below a shared container, goes through the canonical writer.  All
    agree with the canonical writer."""
    real = jsonvalue._PLAIN_ENCODER
    encoded = []

    class Recording:
        def encode(self, o):
            encoded.append(o)
            return real.encode(o)

    monkeypatch.setattr(jsonvalue, "_PLAIN_ENCODER", Recording())
    leaf = {"k": [1, "x", None], "é": True}
    pair = [leaf, leaf]
    plain_dag = {"p": pair, "q": [pair, {"r": leaf}], "s": leaf}
    plain_tree = {"a": [{"b": 1}, {"b": 1}], "c": "\u2028"}
    pairs = [pair, pair]
    for v in (plain_dag, plain_tree, pairs):
        assert serialize_json(v) == _canonical(v), v
    assert [id(v) for v in encoded] == [id(plain_dag), id(plain_tree), id(pairs)]
    number_leaf = {"d": Decimal("2.50"), "f": 1e20}
    numbers_dag = {"p": [number_leaf, number_leaf], "q": plain_dag, "r": number_leaf}
    late = [plain_dag, plain_dag, [leaf, {"x": 0.5}]]
    for v in (numbers_dag, late, {"k": [pair, pair, Decimal("1.5")]}):
        assert serialize_json(v) == _canonical(v), v
    assert len(encoded) == 3


@pytest.mark.parametrize("value", [{1: "a"}, [{"a": {None: 1}}], {"a": {(1,): 2}}, [(1, 2)], {"a": {1.5}}])
def test_serialize_rejects_non_json(value):
    with pytest.raises(TypeError):
        serialize_json(value)


def _has_decimal(v):
    if isinstance(v, dict):
        return any(map(_has_decimal, v.values()))
    if isinstance(v, list):
        return any(map(_has_decimal, v))
    return isinstance(v, Decimal)


def test_dump_json_matches_json_dumps(rewrites):
    docs = rewrites.corpus + [d for n in range(2, 7) for d in rewrites.family[n]]
    outputs = [serialize_schema(doc) for doc in docs]
    compared = 0
    for v in outputs:
        if not _has_decimal(v):  # json.dumps cannot write a Decimal
            assert dump_json(v) == json.dumps(v, indent=2, ensure_ascii=False)
            compared += 1
    assert compared >= 75
    # a Decimal keeps its plain-decimal text
    v = {"é": [Decimal("2.50"), Decimal("1E+2"), 3], "b": {}}
    assert dump_json(v) == '{\n  "é": [\n    2.5,\n    100,\n    3\n  ],\n  "b": {}\n}'


def test_dump_json_writes_any_depth():
    depth = 5000
    v = {"k": 1}
    for _ in range(depth):
        v = [v]
    opening = "".join("[\n" + "  " * (i + 1) for i in range(depth))
    closing = "".join("\n" + "  " * i + "]" for i in reversed(range(depth)))
    inner = "  " * (depth + 1)
    pad = "  " * depth
    assert dump_json(v) == opening + "{\n" + inner + '"k": 1\n' + pad + "}" + closing


@pytest.mark.parametrize(
    "value,expected",
    [
        (Decimal("100"), "100"),
        (Decimal("0.05"), "0.05"),
        (Decimal("-0.0"), "0"),
        (Decimal("1E+2"), "100"),
        (-7, "-7"),
        (1.5, "1.5"),
    ],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.decimals(allow_nan=False, allow_infinity=False, places=4)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=150)
def test_roundtrip(v):
    assert json_equal(parse_json(serialize_json(v)), v)


@given(json_values)
@settings(max_examples=100)
def test_equal_reflexive(v):
    assert json_equal(v, v)


@given(json_values, json_values)
@settings(max_examples=100)
def test_equal_symmetric(a, b):
    assert json_equal(a, b) == json_equal(b, a)


@given(json_values, json_values, json_values)
@settings(max_examples=100)
def test_equal_transitive(a, b, c):
    if json_equal(a, b) and json_equal(b, c):
        assert json_equal(a, c)


@given(json_values, json_values)
@settings(max_examples=100)
def test_equal_agrees_with_canonical_text(a, b):
    # canonical serialization is injective up to value equality
    assert json_equal(a, b) == (serialize_json(a) == serialize_json(b))


def _reference_equal(a, b) -> bool:
    """JSON equality by structural recursion, independent of ``unique_key``:
    objects order-insensitive, numbers by value, booleans unequal to numbers."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if is_number(a) and is_number(b):
        return a == b
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_reference_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_reference_equal(a[k], b[k]) for k in a)
    return False


def test_unique_key_cases():
    assert unique_key(1) == unique_key(1.0) == unique_key(Decimal("1.0"))
    assert unique_key(True) != unique_key(1)
    assert unique_key(False) != unique_key(0)
    assert unique_key(None) != unique_key(False)
    assert unique_key({"a": 1, "b": [2]}) == unique_key({"b": [2.0], "a": 1})
    assert unique_key([1, True]) != unique_key([True, 1])
    assert unique_key(["a"]) != unique_key({"a": None})
    # a float keys by its exact binary value, as Python compares it
    assert unique_key(0.1) != unique_key(Decimal("0.1"))
    assert unique_key(0.5) == unique_key(Decimal("0.5"))


def _random_arrays():
    import random

    from randgen import gen_instance

    rng = random.Random(311)
    scalars = [1, 1.0, Decimal("1.0"), Decimal("1.5"), 1.5, 0, -0.0, True, False, None]
    for _ in range(600):
        arr = [gen_instance(rng, 3) for _ in range(rng.randrange(0, 6))]
        arr += [rng.choice(scalars) for _ in range(rng.randrange(0, 3))]
        rng.shuffle(arr)
        yield arr


def test_unique_key_agrees_with_json_equal_on_random_arrays():
    pairs = 0
    for arr in _random_arrays():
        for i, a in enumerate(arr):
            for b in arr[i + 1 :]:
                expected = _reference_equal(a, b)
                assert (unique_key(a) == unique_key(b)) == expected, (a, b)
                assert json_equal(a, b) == expected, (a, b)
                pairs += 1
    assert pairs > 1000


@given(json_values, json_values)
@settings(max_examples=100)
def test_unique_key_agrees_with_json_equal(a, b):
    expected = _reference_equal(a, b)
    assert (unique_key(a) == unique_key(b)) == expected
    assert json_equal(a, b) == expected
