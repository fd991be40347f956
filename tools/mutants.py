"""Mutation testing of one module of the package against the tier-1 suite.

Run from anywhere::

    python3 tools/mutants.py validator.py

A *mutation point* is one comparison operator (``==``/``!=``, ``<``/``>=``,
``>``/``<=``, ``is``/``is not``, ``in``/``not in``), one ``and``/``or``,
one boolean constant or one entry of a module-level dict display (a table
such as ``NAME = {key: value, ...}``) of the named module in
``src/uneval``.  A ``**dict.fromkeys(keys, value)`` splat in a table gives
one entry per key when ``keys`` is a tuple or list display, or a name that
the module binds to one at its top level; other ``**`` splats are not
entries.  Each mutant flips one point, or drops one entry, and nothing
else.  The module is re-written from its syntax
tree (``ast.unparse``), so a mutant differs from the untouched re-written
module only at its point.

Every run happens in a temporary directory that holds a copy of
``src/``, ``tests/``, ``tools/``, ``bench/`` (which the tests read) and
``pyproject.toml``; nothing is written into the checkout.  The untouched
re-written module is run first and must pass.  Then each mutant runs the
tier-1 suite with ``-x``, the module's own test file
(``tests/test_<module>.py``, or the one ``OWN_TESTS`` names) first, under
a per-mutant timeout of ``TIMEOUT_S`` seconds.
A mutant is *killed* when the suite fails, *hangs* when the timeout ends
it, and *survives* otherwise.  Survivors listed in
``tools/equivalent_mutants.txt`` are reported as equivalent; each line
there reads ``module:scope[#n] description -- reason``, with the id and
description as this tool prints them.  The scope is the dotted name of
the innermost ``def`` or ``class`` around the point (``<module>`` at the
top level), and ``#n`` numbers the second and later points of one scope
with one description, so an entry stays valid while edits elsewhere in
the module move its line.  A dropped entry's id names the table and the
key instead, as ``module:TABLE[key]`` with the key's source text
without blanks; a splat's key is dropped from the ``keys`` it is listed
in, which becomes a tuple display of the others.  The exit code is 1
when a survivor or a hang is not on that list.  SIGTERM and SIGINT stop the running suite
and remove the temporary directory; the exit code is then 128 plus the
signal's number.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import exit_on_signal

REPO = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.txt")
COPIED = ("src", "tests", "tools", "bench")
TIMEOUT_S = 120
#: The modules whose own test file is not ``tests/test_<module>.py``.
OWN_TESTS = {"eliminate": "eliminator"}

FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
OP_TEXT = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


def _scopes(tree: ast.AST) -> dict[int, str]:
    """The dotted name of the innermost ``def`` or ``class`` around each
    node, by the node's id; ``<module>`` at the top level."""
    scopes = {}
    todo = [(tree, "<module>", "")]
    while todo:
        node, scope, prefix = todo.pop()
        scopes[id(node)] = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = prefix = prefix + node.name
            prefix += "."
        todo.extend((child, scope, prefix) for child in ast.iter_child_nodes(node))
    return scopes


def _top_bindings(tree: ast.Module) -> dict[str, ast.AST]:
    """The value bound to each name assigned alone at the top level of the
    module, by the name."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        if isinstance(target, ast.Name):
            bound[target.id] = stmt.value
    return bound


def _tables(tree: ast.Module) -> dict[int, str]:
    """The name of each dict display assigned to one name at the top level
    of the module, by the display's id."""
    return {id(v): name for name, v in _top_bindings(tree).items() if isinstance(v, ast.Dict)}


def _splat_keys(value: ast.AST, bound: dict[str, ast.AST]) -> list[ast.AST]:
    """The keys of a ``dict.fromkeys(keys, value)`` splat, when ``keys`` is
    a tuple or list display or a top-level name bound to one; else none."""
    if not (
        isinstance(value, ast.Call)
        and ast.unparse(value.func) == "dict.fromkeys"
        and len(value.args) == 2
    ):
        return []
    keys = value.args[0]
    if isinstance(keys, ast.Name):
        keys = bound.get(keys.id)
    return keys.elts if isinstance(keys, (ast.Tuple, ast.List)) else []


def mutation_points(tree: ast.Module) -> list[tuple[ast.AST, object]]:
    """``(node, k)`` per mutation point, in source order: ``k`` is the
    operator's index in a comparison chain, ``(entry index, key index)``
    in a table (the key index is None for an entry that is not a splat),
    0 otherwise."""
    found = []
    bound = _top_bindings(tree)
    tables = _tables(tree)
    for order, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            slots = range(len(node.ops))
        elif id(node) in tables:
            slots = [
                (k, j)
                for k, (key, value) in enumerate(zip(node.keys, node.values))
                for j in ([None] if key is not None else range(len(_splat_keys(value, bound))))
            ]
        elif isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.Constant) and type(node.value) is bool
        ):
            slots = (0,)
        else:
            continue
        found.extend(((node.lineno, node.col_offset, order, k), node, k) for k in slots)
    found.sort(key=lambda point: point[0])
    return [(node, k) for _, node, k in found]


def _short(text: str, width: int = 60) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."


def flip(node: ast.AST, k, bound: dict[str, ast.AST]) -> str:
    """Flip the point, or drop the table entry, in place and describe the
    change."""
    if isinstance(node, ast.Dict):
        k, j = k
        if j is None:
            node.keys.pop(k)
            value = node.values.pop(k)
            return f"entry dropped: {_short(ast.unparse(value))}"
        splat = node.values[k]
        keys = _splat_keys(splat, bound)
        splat.args[0] = ast.Tuple([key for i, key in enumerate(keys) if i != j], ast.Load())
        return f"entry dropped: {_short(ast.unparse(splat.args[1]))}"
    if isinstance(node, ast.Compare):
        old = type(node.ops[k])
        node.ops[k] = FLIPS[old]()
        left = node.left if k == 0 else node.comparators[k - 1]
        right = node.comparators[k]
        text = f"{ast.unparse(left)} {OP_TEXT[old]} {ast.unparse(right)}"
        return f"{_short(text)}: {OP_TEXT[old]} -> {OP_TEXT[FLIPS[old]]}"
    if isinstance(node, ast.BoolOp):
        old = "and" if isinstance(node.op, ast.And) else "or"
        text = ast.unparse(node)
        node.op = ast.Or() if old == "and" else ast.And()
        return f"{_short(text)}: {old} -> {'or' if old == 'and' else 'and'}"
    node.value = not node.value
    return f"{not node.value} -> {node.value}"


def mutants(module: str, source: str) -> list[tuple[str, str, str]]:
    """``(id, description, mutated source)`` for every mutation point."""
    count = len(mutation_points(ast.parse(source)))
    out = []
    seen: dict[tuple[str, str], int] = {}
    for i in range(count):
        tree = ast.parse(source)
        node, k = mutation_points(tree)[i]
        bound = _top_bindings(tree)
        if isinstance(node, ast.Dict):
            entry, j = k
            key = node.keys[entry] if j is None else _splat_keys(node.values[entry], bound)[j]
            scope = f"{_tables(tree)[id(node)]}[{''.join(ast.unparse(key).split())}]"
        else:
            scope = _scopes(tree)[id(node)]
        description = flip(node, k, bound)
        n = seen[scope, description] = seen.get((scope, description), 0) + 1
        mutant_id = f"{module}:{scope}" + (f"#{n}" if n > 1 else "")
        out.append((mutant_id, description, ast.unparse(tree)))
    return out


def read_equivalent(path: Path) -> dict[tuple[str, str], str]:
    """``(id, description) -> reason`` from the list of equivalent
    mutants; blank lines and ``#`` comments are skipped."""
    listed = {}
    if not path.exists():
        return listed
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        head, _, reason = line.partition(" -- ")
        mutant_id, _, description = head.partition(" ")
        listed[(mutant_id, description.strip())] = reason.strip()
    return listed


def tier1_command(work: Path, module: str) -> list[str]:
    """Tier-1 with ``-x``, every test file listed, the module's own first."""
    stem = Path(module).stem
    files = sorted(p.relative_to(work).as_posix() for p in (work / "tests").glob("test_*.py"))
    own = f"tests/test_{OWN_TESTS.get(stem, stem)}.py"
    if own in files:
        files.remove(own)
        files.insert(0, own)
    return [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", *files,
    ]


def run_suite(work: Path, command: list[str], timeout: float) -> tuple[str, float]:
    """``("killed" | "survived" | "hung", seconds)`` of one suite run."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung", time.monotonic() - t0
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return ("survived" if code == 0 else "killed"), time.monotonic() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/uneval, such as validator.py")
    args = parser.parse_args(argv)
    module = Path(args.module).name
    target = REPO / "src" / "uneval" / module
    if not target.is_file():
        raise SystemExit(f"no module {target}")
    source = target.read_text()
    cases = mutants(module, source)
    listed = read_equivalent(EQUIVALENT)

    counts = {"killed": 0, "survived": 0, "hung": 0}
    unexplained = 0
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, exit_on_signal)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            skip = shutil.ignore_patterns("__pycache__", "out")
            shutil.copytree(REPO / name, work / name, ignore=skip)
        shutil.copy2(REPO / "pyproject.toml", work / "pyproject.toml")
        copy = work / "src" / "uneval" / module
        command = tier1_command(work, module)
        copy.write_text(ast.unparse(ast.parse(source)))
        status, seconds = run_suite(work, command, TIMEOUT_S)
        if status != "survived":
            raise SystemExit(f"the untouched re-written {module} does not pass tier-1 ({status})")
        print(f"{module}: {len(cases)} mutants; the untouched module passed in {seconds:.1f} s")
        for mutant_id, description, text in cases:
            copy.write_text(text)
            status, _ = run_suite(work, command, TIMEOUT_S)
            counts[status] += 1
            if status != "killed":
                reason = listed.get((mutant_id, description))
                unexplained += reason is None
                note = f"  (equivalent: {reason})" if reason else ""
                print(f"{status:8} {mutant_id} {description}{note}", flush=True)

    seen = {(i, d) for i, d, _ in cases}
    stale = sorted(f"{i} {d}" for i, d in listed if i.startswith(module + ":") and (i, d) not in seen)
    print(
        f"{module}: {len(cases)} mutants, {counts['killed']} killed, "
        f"{counts['survived']} survived, {counts['hung']} hung; "
        f"{unexplained} not on the equivalent list"
    )
    for line in stale:
        print(f"stale entry in {EQUIVALENT.name}: {line}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
