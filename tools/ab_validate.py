"""In-process A/B timing of witness validation for two checkouts of the package.

Run from anywhere, with two checkouts of the repository::

    python3 tools/ab_validate.py --a PARENT_DIR --b CHANGE_DIR [--json OUT]

Each checkout's ``src/uneval`` is imported into this one process under its
own package name, as ``tools/ab_rewrite.py`` does.  The ops have the shape
of ``bench/run.py``'s witness slots for ``witness_validate_us_*``: per
non-adversarial corpus fixture, a freshly parsed original and a freshly
re-parsed rewrite each validate the fixture's curated witnesses in turn,
and every (witness, document) pair is one slot.  The first witness against
a document is a *cold* validation, which compiles the document; the others
are *warm*.  Every round parses both documents anew from their bytes
(untimed), visits the fixtures in a fresh seeded order and runs each
fixture under A and under B, the side that goes first alternating per
fixture and round.  There are ``ROUNDS`` rounds, ordered from a fixed
``SEED``.  Both sides must rewrite each fixture to the same text, and
every verdict must equal the witness's label on both sides.

The report gives each side's p50 and p99 over per-slot medians (the shape
of ``witness_validate_us_p50``/``_p99``), and the medians of the cold and
of the warm slots.  The warm median is also given for the originals (slots
``2j``) and the rewrites (slots ``2j + 1``) apart: an original that carries
``unevaluated*`` runs in annotation mode, a rewrite in bool mode.  Times
are raw ``perf_counter_ns`` readings, not scaled to a reference machine as
the benchmark's are.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from ab_rewrite import SIDES, load_package, percentile, rel
from bench_pairs import identify

ROUNDS = 40
SEED = 11


class FixtureOps:
    """One fixture's inputs, as each side's package reads them."""

    def __init__(self, pkgs: dict, path: Path):
        self.name = path.name
        self.schema_bytes = (path / "schema.json").read_bytes()
        self.texts = {}
        self.witnesses = {}
        for side, pkg in pkgs.items():
            doc = pkg.parse_schema(pkg.parse_json(self.schema_bytes))
            out, _ = pkg.elim_document_with_stats(doc)
            self.texts[side] = pkg.serialize_json(pkg.serialize_schema(out))
            self.witnesses[side] = [
                (pkg.parse_json(w.read_bytes()), expected)
                for label, expected in (("valid", True), ("invalid", False))
                for w in sorted((path / label).glob("*.json"))
            ]
        if self.texts["a"] != self.texts["b"]:
            raise SystemExit(f"{self.name}: A and B rewrite to different texts")

    def run(self, pkg, side: str, slots: list) -> None:
        """Validate every witness against fresh documents; slot ``2j + k``
        is witness ``j`` against the original (k = 0) or the rewrite."""
        docs = (
            pkg.parse_schema(pkg.parse_json(self.schema_bytes)),
            pkg.parse_schema(pkg.parse_json(self.texts[side])),
        )
        for j, (instance, expected) in enumerate(self.witnesses[side]):
            for k, d in enumerate(docs):
                t0 = time.perf_counter_ns()
                verdict = pkg.validate(d, d.root, instance).valid
                slots[2 * j + k].append(time.perf_counter_ns() - t0)
                if verdict != expected:
                    raise SystemExit(f"{self.name}: side {side} judged witness {j} {verdict}")


def pooled(per_fixture: list[list[float]], part: slice) -> list[float]:
    """The slot medians in ``part`` of every fixture's slots."""
    return [m for medians in per_fixture for m in medians[part]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A (the parent)")
    parser.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    pkgs = {s: load_package(f"uneval_{s}", getattr(args, s).resolve()) for s in SIDES}
    corpus = args.b / "tests" / "corpus"
    fixtures = [
        FixtureOps(pkgs, path)
        for path in sorted(p for p in corpus.iterdir() if p.is_dir())
        if not path.name.startswith("adv_")
    ]

    times = {
        s: [[[] for _ in range(2 * len(fx.witnesses[s]))] for fx in fixtures] for s in SIDES
    }
    rng = random.Random(SEED)
    for r in range(ROUNDS):
        order = list(range(len(fixtures)))
        rng.shuffle(order)
        for k, i in enumerate(order):
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                fixtures[i].run(pkgs[side], side, times[side][i])

    summary = {}
    for s in SIDES:
        per_fixture = [[statistics.median(slot) / 1e3 for slot in slots] for slots in times[s]]
        medians = pooled(per_fixture, slice(None))
        summary[s] = {
            "slot_p50_us": percentile(medians, 0.5),
            "slot_p99_us": percentile(medians, 0.99),
            "cold_p50_us": statistics.median(pooled(per_fixture, slice(2))),
            "warm_p50_us": statistics.median(pooled(per_fixture, slice(2, None))),
            "warm_original_p50_us": statistics.median(pooled(per_fixture, slice(2, None, 2))),
            "warm_rewrite_p50_us": statistics.median(pooled(per_fixture, slice(3, None, 2))),
        }
    rows = {
        label: {"a": summary["a"][label], "b": summary["b"][label]} for label in summary["a"]
    }
    for label, row in rows.items():
        row["delta"] = rel(row["a"], row["b"])
        print(f"{label:20} A {row['a']:9.2f} us  B {row['b']:9.2f} us  {100 * row['delta']:+7.1f}%")
    if args.json:
        report = {
            "python": platform.python_version(),
            "rounds": ROUNDS,
            "seed": SEED,
            "slots": len(medians),
            "checkouts": {s: identify(getattr(args, s).resolve()) for s in SIDES},
            "summary": rows,
        }
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
