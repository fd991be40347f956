"""How the measuring tools in ``tools/`` name the checkouts they compare,
and how they stop."""

import ast
import importlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """``tools/`` importable as the scripts import each other."""
    monkeypatch.setattr(sys, "path", [str(REPO / "tools"), *sys.path])
    for name in ("bench_pairs", "ab_rewrite", "ab_validate", "mutants"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib


def _copy_src(root: Path) -> Path:
    shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root.resolve()


def test_a_copy_outside_git_is_named_by_its_sources(tools, tmp_path):
    identify = tools.import_module("bench_pairs").identify
    first, second = _copy_src(tmp_path / "first"), _copy_src(tmp_path / "second")
    name = identify(first)
    assert list(name) == ["src_sha256"]
    assert re.fullmatch("[0-9a-f]{64}", name["src_sha256"])
    assert identify(second) == name
    module = second / "src" / "uneval" / "errors.py"
    module.write_text(module.read_text() + "\n")
    assert identify(second) != name


def test_a_directory_inside_a_repository_is_not_named_by_its_commit(tools):
    name = tools.import_module("bench_pairs").identify((REPO / "tests").resolve())
    assert list(name) == ["src_sha256"]


def test_the_ab_tools_name_checkouts_as_bench_pairs_does(tools):
    identify = tools.import_module("bench_pairs").identify
    for tool in ("ab_rewrite", "ab_validate"):
        module = tools.import_module(tool)
        assert module.identify is identify
        assert not hasattr(module, "head")


_SLEEPING_BENCH = """\
import os, sys, time
from pathlib import Path
Path({pid_file!r}).write_text(str(os.getpid()))
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_bench_pairs_stops_its_running_child_on_sigterm(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "bench").mkdir(parents=True)
    pid_file = checkout / "bench" / "pid"
    (checkout / "bench" / "run.py").write_text(_SLEEPING_BENCH.format(pid_file=str(pid_file)))
    (checkout / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "w"}], "end_to_end": []})
    )
    tool = subprocess.Popen(
        [sys.executable, str(REPO / "tools" / "bench_pairs.py"), "--parent", str(checkout),
         "--change", str(checkout), "--seeds", "1", "--log", str(tmp_path / "log"),
         "--out", str(tmp_path / "out.json")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    child = None
    try:
        deadline = time.monotonic() + 10
        while not pid_file.exists() or not pid_file.read_text():
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        child = int(pid_file.read_text())
        tool.send_signal(signal.SIGTERM)
        code = tool.wait(10)
        assert not _alive(child)
        assert code == 128 + signal.SIGTERM
    finally:
        tool.kill()
        tool.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)


def test_bench_pairs_runs_both_sides_from_one_directory(tools, tmp_path, monkeypatch):
    """Every run starts in the same directory, which holds a fresh copy of
    that side's tree without ``.git`` or byte-code caches; the directory
    is gone after the series."""
    bench_pairs = tools.import_module("bench_pairs")
    checkouts = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        for part in ("src/__pycache__", ".git"):
            (root / part).mkdir(parents=True)
        (root / "src" / "side.txt").write_text(side)
        (root / "src" / "__pycache__" / "m.pyc").write_bytes(b"")
        checkouts[side] = root.resolve()
    (checkouts["parent"] / "src" / "parent_only.txt").write_text("")
    runs = []

    def run_child(args, checkout, env=None):
        files = sorted(p.relative_to(checkout).as_posix() for p in checkout.rglob("*"))
        runs.append((checkout, (checkout / "src" / "side.txt").read_text(), files))
        return 0, json.dumps({"metrics": {}})

    monkeypatch.setattr(bench_pairs, "run_child", run_child)
    args = SimpleNamespace(**checkouts, seeds=[1, 2], log=tmp_path / "log")
    bench_pairs.collect(args, {"workloads": [{"name": "w"}]})
    log = [json.loads(line) for line in args.log.read_text().splitlines()]
    assert [r["side"] for r in log] == ["parent", "change", "change", "parent"]
    assert [side for _, side, _ in runs] == [r["side"] for r in log]
    (run_dir,) = {checkout for checkout, _, _ in runs}
    assert run_dir not in checkouts.values() and not run_dir.exists()
    for _, side, files in runs:
        expected = ["src", "src/side.txt"] + (["src/parent_only.txt"] if side == "parent" else [])
        assert files == sorted(expected)


_MUTABLE = """\
def f(a, b):
    if a < b <= 3 and (a is None or b in (1, 2)):
        return True
    return a != b
"""


@pytest.mark.parametrize(
    "module, own",
    [("validator.py", "tests/test_validator.py"), ("eliminate.py", "tests/test_eliminator.py")],
)
def test_mutants_runs_the_module_own_tests_first(tools, module, own):
    """A mutant meets its module's own tests first, so that a fast test
    there ends a mutant that would hang a test in another file."""
    command = tools.import_module("mutants").tier1_command(REPO, module)
    files = command[command.index("--continue-on-collection-errors") + 1 :]
    assert files[0] == own
    every = sorted(p.relative_to(REPO).as_posix() for p in REPO.glob("tests/test_*.py"))
    assert sorted(files) == every


def test_mutants_flips_one_point_at_a_time(tools):
    mutants = tools.import_module("mutants")
    cases = mutants.mutants("m.py", _MUTABLE)
    assert [(i, d) for i, d, _ in cases] == [
        ("m.py:f", "a < b <= 3 and (a is None or b in (1, 2)): and -> or"),
        ("m.py:f", "a < b: < -> >="),
        ("m.py:f", "b <= 3: <= -> >"),
        ("m.py:f", "a is None or b in (1, 2): or -> and"),
        ("m.py:f", "a is None: is -> is not"),
        ("m.py:f", "b in (1, 2): in -> not in"),
        ("m.py:f", "True -> False"),
        ("m.py:f", "a != b: != -> =="),
    ]
    untouched = list(ast.walk(ast.parse(_MUTABLE)))
    for _, _, text in cases:
        mutated = list(ast.walk(ast.parse(text)))
        assert len(mutated) == len(untouched)
        changed = [
            (a, b) for a, b in zip(untouched, mutated)
            if type(a) is not type(b) or isinstance(a, ast.Constant) and a.value != b.value
        ]
        assert len(changed) == 1, text


_SCOPED = """\
LIMIT = 3 > 2


class C:
    flag = True
    other = True

    def m(self, x):
        def inner(y):
            return y == 1
        return x == 1 or inner(x)
"""


def test_mutant_ids_name_the_scope_not_the_line(tools):
    """A mutant's id is its module and innermost def or class, numbered
    among the points of that scope with the same description, so an edit
    elsewhere in the module leaves every id as it was."""
    mutants = tools.import_module("mutants")
    ids = [(i, d) for i, d, _ in mutants.mutants("m.py", _SCOPED)]
    assert ids == [
        ("m.py:<module>", "3 > 2: > -> <="),
        ("m.py:C", "True -> False"),
        ("m.py:C#2", "True -> False"),
        ("m.py:C.m.inner", "y == 1: == -> !="),
        ("m.py:C.m", "x == 1 or inner(x): or -> and"),
        ("m.py:C.m", "x == 1: == -> !="),
    ]
    moved = "import os\n\n\n" + _SCOPED.replace("flag = True", "flag = True  # moved\n    size = 1")
    assert [(i, d) for i, d, _ in mutants.mutants("m.py", moved)] == ids


_TABLES = """\
TABLE = {"a": 1, (1, 2): f, **OTHER}
NOTED: dict = {"b": x == 1}
A = B = {"c": 2}


def f():
    inner = {"d": 3}
"""


def test_mutants_drop_one_table_entry_at_a_time(tools):
    """Each entry of a module-level dict display assigned to one name is
    dropped alone, under an id naming the table and the key; a ``**``
    splat, a display assigned to two names and one inside a function are
    not tables."""
    mutants = tools.import_module("mutants")
    cases = mutants.mutants("m.py", _TABLES)
    assert [(i, d) for i, d, _ in cases] == [
        ("m.py:TABLE['a']", "entry dropped: 1"),
        ("m.py:TABLE[(1,2)]", "entry dropped: f"),
        ("m.py:NOTED['b']", "entry dropped: x == 1"),
        ("m.py:<module>", "x == 1: == -> !="),
    ]
    texts = [text for _, _, text in cases]
    assert 'TABLE = {(1, 2): f, **OTHER}' in texts[0]
    assert "TABLE = {'a': 1, **OTHER}" in texts[1]
    assert "NOTED: dict = {}" in texts[2]
    for text in texts:
        assert "A = B = {'c': 2}" in text and "inner = {'d': 3}" in text


_SPLATS = """\
NAMES = ("p", "q")
KINDS = {**dict.fromkeys(NAMES, 0), **dict.fromkeys(["r"], 1), "s": 2, **dict.fromkeys(names(), 3)}
"""


def test_mutants_drop_one_key_of_a_fromkeys_splat_at_a_time(tools):
    """A ``dict.fromkeys`` splat in a table gives one entry per key, whether
    its keys are a display or a name bound to one; the key is dropped from
    that splat only, and keys that are computed give no entries."""
    mutants = tools.import_module("mutants")
    cases = mutants.mutants("m.py", _SPLATS)
    assert [(i, d) for i, d, _ in cases] == [
        ("m.py:KINDS['p']", "entry dropped: 0"),
        ("m.py:KINDS['q']", "entry dropped: 0"),
        ("m.py:KINDS['r']", "entry dropped: 1"),
        ("m.py:KINDS['s']", "entry dropped: 2"),
    ]
    texts = [text for _, _, text in cases]
    assert "**dict.fromkeys(('q',), 0), **dict.fromkeys(['r'], 1)" in texts[0]
    assert "**dict.fromkeys(('p',), 0), **dict.fromkeys(['r'], 1)" in texts[1]
    assert "**dict.fromkeys(NAMES, 0), **dict.fromkeys((), 1)" in texts[2]
    for text in texts:
        assert "NAMES = ('p', 'q')" in text and "**dict.fromkeys(names(), 3)" in text


_SIGNALLED_MUTANTS = """\
import os, signal, sys, time
sys.path.insert(0, sys.argv[1])
import mutants

def run_suite(work, command, timeout):
    print(work, flush=True)
    os.kill(os.getpid(), int(sys.argv[2]))
    time.sleep(60)

mutants.run_suite = run_suite
sys.exit(mutants.main(["errors.py"]))
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
def test_mutants_removes_its_copy_when_signalled(tmp_path, signum):
    """A signal during a suite run ends the tool with 128 plus its number,
    and the temporary copy of the repository is gone; the suite itself is
    replaced by one that signals the tool."""
    script = tmp_path / "signalled.py"
    script.write_text(_SIGNALLED_MUTANTS)
    done = subprocess.run(
        [sys.executable, str(script), str(REPO / "tools"), str(int(signum))],
        capture_output=True, text=True, timeout=60,
    )
    work = Path(done.stdout.strip())
    assert work.name.startswith("mutants-"), done.stderr
    assert done.returncode == 128 + signum
    assert not work.exists()


def test_the_oracle_rows_sample_as_the_benchmark_does(tools, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    bench_sample = tools.import_module("workloads").systematic_sample
    ours = tools.import_module("ab_validate").systematic_sample
    for n, k in ((0, 4), (3, 4), (4, 4), (10, 4), (1001, 400)):
        seed = f"{n}:{k}"
        assert ours(n, k, random.Random(seed)) == bench_sample(n, k, random.Random(seed))


def test_ab_rewrite_reports_what_a_pass_leaves_allocated(tools):
    """``retained_bytes`` counts what outlives a pass of the ops, and not
    what the ops build and drop."""
    retained_bytes = tools.import_module("ab_rewrite").retained_bytes
    kept = []
    assert retained_bytes([lambda: bytearray(1 << 20)]) < 1 << 16
    assert retained_bytes([lambda: kept.append(bytearray(1 << 20))]) >= 1 << 20


def test_ab_rewrite_reports_the_peak_of_one_op(tools):
    """``peak_bytes`` counts what an op holds at its peak, also when the
    op drops it before returning, and not what was allocated before it."""
    peak_bytes = tools.import_module("ab_rewrite").peak_bytes
    before = bytearray(1 << 20)
    assert peak_bytes(lambda: None) < 1 << 16
    assert peak_bytes(lambda: len(bytearray(1 << 20))) >= 1 << 20
    assert peak_bytes(lambda: before.count(0)) < 1 << 16


def test_the_family_rows_time_both_rewrites_of_each_member(tools, monkeypatch):
    """Every member gets each of the family times, on both sides; the
    runs check the rewrites' verdicts against the original's."""
    import uneval

    ab_validate = tools.import_module("ab_validate")
    monkeypatch.setattr(ab_validate, "FAMILY_INSTANCES", 20)
    summary = ab_validate.family_summary({"a": uneval, "b": uneval}, ns=(2, 4), rounds=2)
    labels = [
        f"{kind}{n}_{time}"
        for n in (2, 4)
        for kind in ("sn", "san")
        for time in ab_validate.FAMILY_TIMES
    ]
    for side in ("a", "b"):
        assert list(summary[side]) == labels
        assert all(value > 0 for value in summary[side].values())
