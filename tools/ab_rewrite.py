"""In-process A/B timing of the rewrite for two checkouts of the package.

Run from anywhere, with two checkouts of the repository::

    python3 tools/ab_rewrite.py --a PARENT_DIR --b CHANGE_DIR [--json OUT]

Each checkout's ``src/uneval`` is imported into this one process under its
own package name (``uneval_a``, ``uneval_b``).  An op is the user-facing
rewrite of one input: for a corpus fixture, bytes are parsed, checked for
guardedness, rewritten and serialized, as ``bench/run.py`` times them for
``rewrite_ms_*``; for a family member (``sn``/``san``), a generated document
is rewritten and serialized, as for ``family_rewrite_s``.  Every round runs
all ops in a fresh seeded order, each op once under A and once under B, the
side that goes first alternating per op and round, so both packages see the
same heap and cache state.  There are ``ROUNDS`` rounds, ordered from a
fixed ``SEED``, and the families run n = 2..``FAMILY_MAX_N``.  Outputs of A
and B must be byte-identical, and their ENF branch counts
(``elim_document_with_stats``' stats) equal.

The report gives, per op, the median time of each side and their relative
difference; then the corpus p50/p90 over per-fixture medians (the shape of
``rewrite_ms_p50``/``_p90``) and the family total of medians (the shape of
``family_rewrite_s``).  Times are raw ``perf_counter_ns`` readings, not
scaled to a reference machine as the benchmark's are.  After the timed
rounds, each side runs every family op once more, untimed, under
``tracemalloc``; the report gives the bytes that pass leaves allocated
once its outputs are dropped and ``gc.collect()`` has run
(``family_retained_bytes``), so that a memo outliving its rewrite shows
up here before a benchmark run.  Then each side runs one sn and one san
op at n = ``PEAK_N``, each alone under ``tracemalloc``; the report gives
the peak of each (``family_peak_bytes``), which shows memory per branch
at a size the timed rounds do not reach.  Each checkout is named as
``tools/bench_pairs.py`` names it (``identify``).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from bench_pairs import identify

SIDES = ("a", "b")
ROUNDS = 40
SEED = 7
FAMILY_MAX_N = 10
PEAK_N = 13


def load_package(name: str, checkout: Path):
    """Import ``checkout/src/uneval`` as the top-level package ``name``."""
    init = checkout / "src" / "uneval" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def corpus_op(pkg, schema_bytes: bytes):
    def op() -> tuple[str, dict]:
        doc = pkg.parse_schema(pkg.parse_json(schema_bytes))
        if pkg.find_unguarded_cycle(doc) is not None:
            raise SystemExit("corpus schema reported as unguarded")
        out, stats = pkg.elim_document_with_stats(doc)
        return pkg.serialize_json(pkg.serialize_schema(out)), stats

    return op


def family_op(pkg, kind: str, n: int):
    doc = (pkg.gen_family_sn if kind == "sn" else pkg.gen_family_san)(n)

    def op() -> tuple[str, dict]:
        out, stats = pkg.elim_document_with_stats(doc)
        return pkg.serialize_json(pkg.serialize_schema(out)), stats

    return op


def build_ops(pkgs: dict, corpus_dir: Path) -> list[tuple[str, str, dict]]:
    """(group, name, {side: op}) for every non-adversarial fixture and
    every family member ``sn``/``san`` with n = 2..FAMILY_MAX_N."""
    ops = []
    for path in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        if path.name.startswith("adv_"):
            continue
        data = (path / "schema.json").read_bytes()
        ops.append(("corpus", path.name, {s: corpus_op(pkgs[s], data) for s in SIDES}))
    for n in range(2, FAMILY_MAX_N + 1):
        for kind in ("sn", "san"):
            ops.append(("family", f"{kind}_{n}", {s: family_op(pkgs[s], kind, n) for s in SIDES}))
    return ops


def retained_bytes(ops: list) -> int:
    """Bytes still allocated after one untimed run of every op in ``ops``,
    its outputs dropped and the cyclic collector run."""
    gc.collect()
    tracemalloc.start()
    try:
        for op in ops:
            op()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def peak_bytes(op) -> int:
    """The ``tracemalloc`` peak of one untimed run of ``op``: the most
    bytes it held allocated at once."""
    gc.collect()
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rel(a: float, b: float) -> float:
    return round((b - a) / a, 4) if a else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A (the parent)")
    parser.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    pkgs = {s: load_package(f"uneval_{s}", getattr(args, s).resolve()) for s in SIDES}
    ops = build_ops(pkgs, args.b / "tests" / "corpus")

    for _, name, by_side in ops:  # warm-up, and the outputs must agree
        (text_a, stats_a), (text_b, stats_b) = by_side["a"](), by_side["b"]()
        if text_a != text_b:
            raise SystemExit(f"{name}: A and B rewrite to different texts")
        if stats_a != stats_b:
            raise SystemExit(f"{name}: A and B report different ENF branch counts")

    times = {name: {s: [] for s in SIDES} for _, name, _ in ops}
    rng = random.Random(SEED)
    for r in range(ROUNDS):
        order = list(range(len(ops)))
        rng.shuffle(order)
        for k, i in enumerate(order):
            _, name, by_side = ops[i]
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                t0 = time.perf_counter_ns()
                by_side[side]()
                times[name][side].append(time.perf_counter_ns() - t0)

    per_op = {}
    for group, name, _ in ops:
        med = {s: statistics.median(times[name][s]) / 1e6 for s in SIDES}
        per_op[name] = {"group": group, "a_ms": med["a"], "b_ms": med["b"], "delta": rel(med["a"], med["b"])}
        print(f"{group:6} {name:45} A {med['a']:9.3f} ms  B {med['b']:9.3f} ms  {100 * per_op[name]['delta']:+7.1f}%")

    summary = {}
    corpus = [v for v in per_op.values() if v["group"] == "corpus"]
    family = [v for v in per_op.values() if v["group"] == "family"]
    if corpus:
        for label, q in (("corpus_p50_ms", 0.5), ("corpus_p90_ms", 0.9)):
            a, b = (percentile([v[f"{s}_ms"] for v in corpus], q) for s in SIDES)
            summary[label] = {"a": a, "b": b, "delta": rel(a, b)}
        a, b = (sum(v[f"{s}_ms"] for v in corpus) for s in SIDES)
        summary["corpus_total_ms"] = {"a": a, "b": b, "delta": rel(a, b)}
    if family:
        a, b = (sum(v[f"{s}_ms"] for v in family) for s in SIDES)
        summary["family_total_ms"] = {"a": a, "b": b, "delta": rel(a, b)}
    for label, row in summary.items():
        print(f"{label:20} A {row['a']:9.3f}  B {row['b']:9.3f}  {100 * row['delta']:+7.1f}%")
    family_ops = [by_side for group, _, by_side in ops if group == "family"]
    if family_ops:
        a, b = (retained_bytes([by_side[s] for by_side in family_ops]) for s in SIDES)
        summary["family_retained_bytes"] = {"a": a, "b": b, "delta": rel(a, b)}
        print(f"{'family_retained_bytes':20} A {a:9d}  B {b:9d}")
    peaks = {}
    for kind in ("sn", "san"):
        a, b = (peak_bytes(family_op(pkgs[s], kind, PEAK_N)) for s in SIDES)
        peaks[kind] = {"a": a, "b": b, "delta": rel(a, b)}
        print(f"{'family_peak_bytes':20} {kind}_{PEAK_N:<3} A {a:9d}  B {b:9d}  {100 * rel(a, b):+7.1f}%")
    summary["family_peak_bytes"] = peaks
    if args.json:
        report = {
            "python": platform.python_version(),
            "rounds": ROUNDS,
            "seed": SEED,
            "checkouts": {s: identify(getattr(args, s).resolve()) for s in SIDES},
            "summary": summary,
            "per_op": per_op,
        }
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
