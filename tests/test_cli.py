import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uneval.cli import main
from uneval.jsonvalue import serialize_json
from uneval.schema import parse_schema, serialize_schema

from test_schema import SHARED_INNER_CYCLE, SHARED_INNER_CYCLE_REPORT, UNIMPLEMENTED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SCHEMA = {
    "properties": {"a": {"type": "integer"}},
    "unevaluatedProperties": False,
}


def test_gen_family_sn(capsys):
    code, out, _ = run(capsys, "gen-family", "--kind", "sn", "--n", "3")
    assert code == 0
    schema = json.loads(out)
    assert len(schema["anyOf"]) == 3
    assert schema["unevaluatedProperties"] is False


def test_gen_family_san(capsys):
    code, out, _ = run(capsys, "gen-family", "--kind", "san", "--n", "2")
    assert code == 0
    assert "$defs" in json.loads(out)


def test_validate_exit_codes(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    good = write(tmp_path, "good.json", {"a": 1})
    bad = write(tmp_path, "bad.json", {"a": 1, "b": 2})

    code, out, _ = run(capsys, "validate", "--schema", schema, "--instance", good)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["evaluatedProperties"] == ["a"]
    assert report["evaluatedItems"] == []

    code, out, _ = run(capsys, "validate", "--schema", schema, "--instance", bad)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_eliminate_stats(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    out_file = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "eliminate", "--schema", schema, "-o", str(out_file), "--stats"
    )
    assert code == 0
    stats = json.loads(out)
    assert set(stats) >= {
        "input_bytes",
        "output_bytes",
        "size_ratio",
        "elapsed_ms",
        "enf_branches",
    }
    rewritten = json.loads(out_file.read_text())
    assert "unevaluatedProperties" not in json.dumps(rewritten)


def test_eliminate_output_unchanged_by_stats(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    code, plain, _ = run(capsys, "eliminate", "--schema", schema)
    code_stats, with_stats, _ = run(capsys, "eliminate", "--schema", schema, "--stats")
    assert code == code_stats == 0
    assert with_stats.startswith(plain)
    stats = json.loads(with_stats[len(plain):])
    doc = parse_schema(SCHEMA)
    assert stats["input_bytes"] == len(serialize_json(serialize_schema(doc)))
    assert stats["output_bytes"] == len(serialize_json(json.loads(plain)))

    files = [tmp_path / "plain.json", tmp_path / "stats.json"]
    code, out, _ = run(capsys, "eliminate", "--schema", schema, "-o", str(files[0]))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "eliminate", "--schema", schema, "-o", str(files[1]), "--stats")
    assert code == 0
    assert {k: v for k, v in json.loads(out).items() if k != "elapsed_ms"} == {
        k: v for k, v in stats.items() if k != "elapsed_ms"
    }
    assert files[0].read_text() == files[1].read_text()


def test_eliminate_stdout(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    code, out, _ = run(capsys, "eliminate", "--schema", schema)
    assert code == 0
    assert "unevaluatedProperties" not in out


def test_enf_reports_branches(tmp_path, capsys):
    schema = write(
        tmp_path,
        "s.json",
        {"anyOf": [{"properties": {"a": True}}, {"properties": {"b": True}}]},
    )
    code, out, _ = run(capsys, "enf", "--schema", schema)
    assert code == 0
    payload = json.loads(out)
    assert payload["branches"] == 3


def test_escaped_definition_names_resolve(tmp_path, capsys):
    schema = write(
        tmp_path,
        "s.json",
        {
            "$defs": {
                "a~b": {
                    "anyOf": [{"type": "object", "properties": {"a": True}}, {"type": "string"}]
                }
            },
            "$ref": "#/$defs/a~0b",
        },
    )
    code, out, _ = run(capsys, "enf", "--schema", schema, "--pointer", "/$defs/a~0b")
    assert code == 0
    assert json.loads(out)["branches"] == 2
    for instance, expected in ((1, 1), ("x", 0)):
        path = write(tmp_path, "i.json", instance)
        code, _, _ = run(capsys, "validate", "--schema", schema, "--instance", path)
        assert code == expected


@pytest.mark.parametrize(
    "pointer, selected",
    [
        ("/$defs/a~1b", {"type": "string"}),
        ("/$defs/a", {"properties": {"b": {"type": "integer"}}}),
        ("/$defs/a/b", None),
    ],
)
def test_enf_pointer_selects_one_definition(tmp_path, capsys, pointer, selected):
    # RFC 6901: an unescaped "/" ends the definition name
    schema = write(
        tmp_path,
        "s.json",
        {"$defs": {"a/b": {"type": "string"}, "a": {"properties": {"b": {"type": "integer"}}}}},
    )
    code, out, err = run(capsys, "enf", "--schema", schema, "--pointer", pointer)
    if selected is None:
        assert code == 2
        assert "unsupported pointer" in err
    else:
        assert code == 0
        assert json.loads(out)["schema"] == {"anyOf": [selected]}


def test_enf_rejects_uneval_target(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    code, _, err = run(capsys, "enf", "--schema", schema)
    assert code == 2
    assert "eliminate" in err


def test_analyze(tmp_path, capsys):
    schema = write(
        tmp_path,
        "s.json",
        {"anyOf": [{"properties": {"a": True}}, {"properties": {"b": True}}],
         "$defs": {"d": {"items": True}}},
    )
    code, out, _ = run(capsys, "analyze", "--schema", schema)
    assert code == 0
    report = json.loads(out)
    assert report["#"]["exEP"] == "undefined"
    assert report["d"]["exEI"] == {"h": "inf", "guard": True}


def test_difftest_directory(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "a.json").write_text('{"a": 1}')
    (inst_dir / "b.json").write_text('{"a": 1, "b": 2}')
    code, out, _ = run(
        capsys, "difftest", "--schema", schema, "--instances", str(inst_dir)
    )
    assert code == 0
    report = json.loads(out)
    assert report["instances_total"] == 2
    assert report["disagree"] == 0


def test_difftest_empty_directory_warns(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    code, out, err = run(
        capsys, "difftest", "--schema", schema, "--instances", str(inst_dir)
    )
    assert code == 0
    assert json.loads(out)["instances_total"] == 0
    assert "warning" in err


def test_difftest_missing_instances_directory_exits_2(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, "difftest", "--schema", schema, "--instances", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_difftest_instances_path_that_is_a_file_exits_2(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    instance = write(tmp_path, "a.json", {"a": 1})
    code, out, err = run(capsys, "difftest", "--schema", schema, "--instances", instance)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and instance in err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_schema_error_exit_code(tmp_path, capsys):
    schema = write(tmp_path, "s.json", {"exclusiveMinimum": 3})
    code, _, err = run(capsys, "validate", "--schema", schema, "--instance", schema)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name", sorted(UNIMPLEMENTED))
def test_unimplemented_keyword_exit_code(tmp_path, capsys, name):
    schema = write(tmp_path, "s.json", {name: UNIMPLEMENTED[name]})
    instance = write(tmp_path, "i.json", 2)
    code, out, err = run(capsys, "validate", "--schema", schema, "--instance", instance)
    assert code == 2
    assert out == ""
    assert f"/{name}: keyword {name!r} is not supported" in err


def test_module_run_prints_no_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "uneval.cli", "gen-family", "--kind", "sn", "--n", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout)["unevaluatedProperties"] is False


def test_unguarded_schema_rejected(tmp_path, capsys):
    schema = write(
        tmp_path, "s.json", {"$defs": {"r": {"anyOf": [{"$ref": "#/$defs/r"}]}}}
    )
    code, _, err = run(capsys, "analyze", "--schema", schema)
    assert code == 2
    assert "recursion" in err
    # a cycle that closes at an inner node two places share
    schema = write(tmp_path, "shared.json", SHARED_INNER_CYCLE)
    instance = write(tmp_path, "i.json", 1)
    code, _, err = run(capsys, "validate", "--schema", schema, "--instance", instance)
    assert code == 2
    assert err.strip() == "error: unguarded recursion through " + " -> ".join(
        SHARED_INNER_CYCLE_REPORT
    )


def test_text_nested_too_deeply_exits_2(tmp_path, capsys):
    """Schema and instance text beyond the decoder's depth is a clean
    error, not a traceback; the depths are the benchmark's deep probes."""
    depth = 1500
    deep_schema = tmp_path / "deep_schema.json"
    deep_schema.write_text(
        '{"unevaluatedProperties":false,"properties":{"a":'
        + '{"properties":{"a":' * (depth - 1)
        + '{"type":"integer"}'
        + "}}" * depth
    )
    instance = write(tmp_path, "i.json", {"a": 0})
    for argv in (
        ("validate", "--schema", str(deep_schema), "--instance", instance),
        ("eliminate", "--schema", str(deep_schema)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "nests too deeply" in err

    depth = 2000
    schema = write(
        tmp_path,
        "list.json",
        {
            "$ref": "#/$defs/list",
            "$defs": {
                "list": {
                    "anyOf": [
                        {"const": None},
                        {
                            "properties": {"head": {"type": "integer"}, "tail": {"$ref": "#/$defs/list"}},
                            "required": ["head", "tail"],
                        },
                    ]
                }
            },
        },
    )
    deep_instance = tmp_path / "deep_instance.json"
    deep_instance.write_text('{"head":1,"tail":' * depth + "null" + "}" * depth)
    code, _, err = run(capsys, "validate", "--schema", schema, "--instance", str(deep_instance))
    assert code == 2
    assert "nests too deeply" in err


def test_difftest_skips_a_file_that_is_not_utf8(tmp_path, capsys):
    schema = write(tmp_path, "s.json", SCHEMA)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "a.json").write_text('{"a": 1}')
    (inst_dir / "b.json").write_bytes(b"\xff\xfe{}")
    code, out, err = run(
        capsys, "difftest", "--schema", schema, "--instances", str(inst_dir)
    )
    assert code == 0
    assert json.loads(out)["instances_total"] == 1
    assert "skipping" in err and "b.json" in err and "UTF-8" in err


def test_unreadable_files_exit_2(tmp_path, capsys, monkeypatch):
    instance = write(tmp_path, "i.json", {"a": 1})
    code, _, err = run(capsys, "validate", "--schema", str(tmp_path), "--instance", instance)
    assert code == 2
    assert "error" in err and "Traceback" not in err

    schema = write(tmp_path, "s.json", SCHEMA)

    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    code, _, err = run(capsys, "validate", "--schema", schema, "--instance", instance)
    assert code == 2
    assert "Permission denied" in err


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """A too-long integer literal, in the schema or in the instance, is a
    parse error, not an invalid instance."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "1" * (limit + 1)
    long_schema = tmp_path / "long_schema.json"
    long_schema.write_text('{"minimum": ' + digits + "}")
    long_instance = tmp_path / "long_instance.json"
    long_instance.write_text(digits)
    schema = write(tmp_path, "s.json", {"minimum": 0})
    instance = write(tmp_path, "i.json", 1)
    for schema_path, instance_path in ((long_schema, instance), (schema, long_instance)):
        code, out, err = run(
            capsys, "validate", "--schema", str(schema_path), "--instance", str(instance_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_a_long_exponent_exits_2(tmp_path, capsys):
    """A short literal whose plain-decimal text would be long, or whose
    exponent a Decimal cannot hold, is a parse error, not a process that
    grows or a traceback."""
    instance = write(tmp_path, "i.json", 1)
    for literal in ("1e10000000", "1e9999999999999999999"):
        schema = tmp_path / "s.json"
        schema.write_text('{"properties":{"a":{"minimum":' + literal + "}}}")
        code, out, err = run(capsys, "validate", "--schema", str(schema), "--instance", instance)
        assert code == 2, literal
        assert out == ""
        assert err.startswith("error:") and "number literal" in err and "Traceback" not in err


def test_gen_family_rejects_sizes_below_1(capsys):
    for n in ("0", "-3", "x"):
        code, out, err = run(capsys, "gen-family", "--kind", "sn", "--n", n)
        assert code == 2
        assert out == ""
        assert "--n" in err


def _uneval_chain(depth, deepest):
    """``depth`` levels of ``properties`` under a root that carries
    ``unevaluatedProperties``, ending in ``deepest``."""
    return (
        '{"unevaluatedProperties":false,"properties":{"a":'
        + '{"properties":{"a":' * (depth - 1)
        + deepest
        + "}}" * depth
    )


def test_schema_too_deep_to_rewrite_exits_2(tmp_path, capsys):
    """Deep enough to stop the rewrite, shallow enough to parse: the
    ``unevaluatedProperties`` at the deepest node must be hoisted.  With
    ``unevaluated*`` at the root alone, the same depth is answered or a
    clean error."""
    depth = 300
    deep_schema = tmp_path / "deep_schema.json"
    deep_schema.write_text(
        _uneval_chain(depth, '{"type":"integer","unevaluatedProperties":false}')
    )
    code, out, err = run(capsys, "eliminate", "--schema", str(deep_schema))
    assert code == 2
    assert out == ""
    assert "nests too deeply to rewrite" in err
    root_only = tmp_path / "root_only.json"
    root_only.write_text(_uneval_chain(depth, '{"type":"integer"}'))
    code, _, err = run(capsys, "eliminate", "--schema", str(root_only))
    assert code in (0, 2)
    assert "Traceback" not in err


def test_deep_allof_chain_exits_2_from_enf_and_analyze(tmp_path, capsys):
    """Parses and passes the guard check, but is too deep to normalize or
    analyze; a shallow chain is answered."""
    for depth, expected in ((20, 0), (300, 2), (450, 2)):
        chain = tmp_path / f"chain_{depth}.json"
        chain.write_text('{"allOf":[' * depth + '{"type":"integer"}' + "]}" * depth)
        for command in ("enf", "analyze"):
            code, out, err = run(capsys, command, "--schema", str(chain))
            assert code == expected, (depth, command)
            if expected:
                assert out == ""
                assert "nests too deeply" in err and "Traceback" not in err


def test_deep_normal_form_is_printed_by_enf(tmp_path, capsys):
    """A deep properties chain is its own normal form, and the pretty
    writer prints it at any depth."""
    depth = 260
    chain = tmp_path / "chain.json"
    chain.write_text('{"properties":{"a":' * depth + "true" + "}}" * depth)
    code, out, err = run(capsys, "enf", "--schema", str(chain))
    assert code == 0, err
    printed = json.loads(out)
    assert printed["branches"] == 1
    (node,) = printed["schema"]["anyOf"]
    for _ in range(depth):
        node = node["properties"]["a"]
    assert node is True


def test_deep_normal_form_exits_2_from_enf(tmp_path, capsys):
    """A properties chain deeper than ``enf`` can follow is a clean error.
    The conversion to JSON takes one frame per level, so the depth sits
    past the parser's ceiling."""
    depth = 600
    chain = tmp_path / "chain.json"
    chain.write_text('{"properties":{"a":' * depth + "true" + "}}" * depth)
    code, out, err = run(capsys, "enf", "--schema", str(chain))
    assert code == 2
    assert out == ""
    assert "nests too deeply" in err and "Traceback" not in err


_CLI_CEILING_PROBE = """
import contextlib, io, json, os, sys, tempfile
from uneval.cli import main

def answers(command, kind, depth, folder):
    text = "{}"
    for _ in range(depth):
        text = ('{"allOf":[' + text + "]}") if kind == "allOf" else ('{"properties":{"a":' + text + "}}")
    if command == "eliminate":
        text = '{"allOf":[' + text + '],"unevaluatedProperties":false}'
    path = os.path.join(folder, f"{command}-{kind}-{depth}.json")
    with open(path, "w") as f:
        f.write(text)
    argv = [command, "--schema", path]
    if command == "validate":
        argv += ["--instance", os.path.join(folder, "instance.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return True
    assert code == 2 and out.getvalue() == "", (command, kind, depth, code)
    assert "nests too deeply" in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return False

found = []
with tempfile.TemporaryDirectory() as folder:
    with open(os.path.join(folder, "instance.json"), "w") as f:
        f.write("{}")
    for command, kind, depth in json.loads(sys.argv[1]):
        while answers(command, kind, depth, folder):
            depth += 1
        found.append(depth - 1)
print(json.dumps(found))
"""

#: Per command and chain of ``properties`` or ``allOf`` wrappers around
#: ``{}``: the deepest chain the command answered with exit 0 at the
#: default recursion limit, measured at 0eb1d8e, and for the ``properties``
#: chains of ``eliminate`` and ``enf`` since the JSON writer takes one
#: frame per level.  For ``eliminate`` the chain sits under
#: ``{"allOf": [chain], "unevaluatedProperties": false}``, and ``validate``
#: checks the instance ``{}``, measured at 08ad0f4.
CLI_DEPTH_CEILINGS = [
    ("eliminate", "properties", 493),
    ("eliminate", "allOf", 245),
    ("enf", "properties", 494),
    ("enf", "allOf", 247),
    ("analyze", "properties", 494),
    ("analyze", "allOf", 248),
    ("validate", "properties", 330),
    ("validate", "allOf", 164),
]


def test_the_rewrite_commands_depth_ceilings_do_not_fall():
    """In a fresh interpreter, each command answers a chain 5 levels short
    of its ceiling, and the first chain too deep to answer exits 2 with
    "nests too deeply" and no traceback."""
    import uneval

    pinned = [(command, kind, ceiling - 5) for command, kind, ceiling in CLI_DEPTH_CEILINGS]
    done = subprocess.run(
        [sys.executable, "-c", _CLI_CEILING_PROBE, json.dumps(pinned)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(uneval.__file__).parent.parent)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    for (command, kind, floor), deepest in zip(pinned, found):
        assert deepest >= floor, (command, kind, deepest)


def _reference_chain(n, **root):
    """``n`` definitions, each an ``allOf`` of a reference to the next."""
    defs = {f"D{i}": {"allOf": [{"$ref": f"#/$defs/D{i + 1}"}]} for i in range(n - 1)}
    defs[f"D{n - 1}"] = {"type": "object"}
    return {"$ref": "#/$defs/D0", **root, "$defs": defs}


def test_long_reference_chain_is_answered_or_a_clean_error(tmp_path, capsys):
    """The guard check follows a chain of any length; what cannot follow
    it reports the depth."""
    instance = write(tmp_path, "i.json", {"a": 1})
    for closed in (False, True):
        root = {"unevaluatedProperties": False} if closed else {}
        schema = write(tmp_path, f"chain_{closed}.json", _reference_chain(1000, **root))
        for command in ("validate", "eliminate", "enf", "analyze", "difftest"):
            extra = ("--instance", instance) if command == "validate" else ()
            code, _, err = run(capsys, command, "--schema", schema, *extra)
            assert code in (0, 2), (closed, command, err)
            assert "Traceback" not in err


def test_schema_too_deep_to_parse_exits_2(tmp_path, capsys):
    depth = 600
    deep_schema = tmp_path / "deep_items.json"
    deep_schema.write_text('{"items":' * depth + "true" + "}" * depth)
    instance = write(tmp_path, "i.json", [[[]]])
    for argv in (
        ("validate", "--schema", str(deep_schema), "--instance", instance),
        ("eliminate", "--schema", str(deep_schema)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "nests too deeply to parse" in err and "Traceback" not in err
