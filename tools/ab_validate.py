"""In-process A/B timing of witness and oracle validation for two checkouts.

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
``unevaluated*`` runs in annotation mode, a rewrite in bool mode.

The oracle rows have the shape of ``bench/run.py``'s ``oracle_sweep``.
For every corpus fixture, a seeded systematic sample of at most
``ORACLE_PER_FIXTURE`` instances of its ``enumerate_instances`` universe
is drawn as ``OraclePhase`` draws it, and each side parses the original
and rewrites it once.  After one untimed warm-up pass, each of
``ORACLE_ROUNDS`` rounds visits the pairs in a fresh seeded order and
validates each sampled instance warm under the original and then under
the rewrite, on A and on B, the side that goes first alternating per pair
and round.  The two verdicts must agree on both sides, and both sides
must rewrite each fixture to the same text.  The rows give each side's
p50 and p99 over per-pair medians (the shape of
``validate_original_us_*``/``validate_rewritten_us_*``) and the sum of
the per-pair medians.

The family rows time the rewrites of sn/san n = 4..12, which no benchmark
workload validates.  Per member, ``FAMILY_INSTANCES`` instances of the
original's universe are sampled as the oracle rows sample them.  Each of
``FAMILY_ROUNDS`` rounds runs the member on A and on B, the side that goes
first alternating per round.  A run builds the rewrite in memory and
parses the rewrite's text anew (``parse_ms``, from the decoded JSON
value).  It then times the first validation of each (``*_first_ms``, the
compile) and the warm validation of every sampled instance
(``*_warm_us``, per instance).  The garbage of the run before is
collected first, untimed.  Each row is the median over the rounds.  Both
sides must rewrite the member to the same text, and both rewrites must
judge every instance as the original does.  Times are raw
``perf_counter_ns`` readings, not scaled to a reference machine as the
benchmark's are.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import sys
import time
from array import array
from pathlib import Path

from ab_rewrite import SIDES, load_package, percentile, rel
from bench_pairs import identify

ROUNDS = 40
SEED = 11
#: ``oracle_per_fixture`` of the benchmark's full-size runs.
ORACLE_PER_FIXTURE = 400
ORACLE_ROUNDS = 15
FAMILY_NS = range(4, 13)
FAMILY_INSTANCES = 300
FAMILY_ROUNDS = 7
#: what one family run measures, in the order it returns them
FAMILY_TIMES = (
    "parse_ms", "memory_first_ms", "reparsed_first_ms", "memory_warm_us", "reparsed_warm_us"
)


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


def systematic_sample(n: int, k: int, rng: random.Random) -> list[int]:
    """``k`` indices spread evenly over ``range(n)`` from a seeded start, or
    all of them if ``n <= k``, as ``bench/workloads.py`` samples them."""
    if n <= k:
        return list(range(n))
    step = n / k
    start = rng.random() * step
    return [int(start + j * step) for j in range(k)]


class OracleOps:
    """The sampled instances of every fixture's universe, and each side's
    original and rewritten document for each of them."""

    def __init__(self, pkgs: dict, paths: list[Path]):
        rng = random.Random(f"{SEED}:oracle_sweep")
        pairs = []
        for path in paths:
            schema_bytes = (path / "schema.json").read_bytes()
            docs = {}
            texts = set()
            for side, pkg in pkgs.items():
                doc = pkg.parse_schema(pkg.parse_json(schema_bytes))
                rewritten = pkg.elim_document(doc)
                texts.add(pkg.serialize_json(pkg.serialize_schema(rewritten)))
                docs[side] = (doc, rewritten)
            if len(texts) != 1:
                raise SystemExit(f"{path.name}: A and B rewrite to different texts")
            universe = list(pkgs["b"].enumerate_instances(docs["b"][0]))
            picked = systematic_sample(len(universe), ORACLE_PER_FIXTURE, rng)
            pairs.extend((path.name, docs, universe[i]) for i in picked)
        rng.shuffle(pairs)
        self.pairs = pairs

    def run(self, pkg, side: str, i: int) -> tuple[int, int]:
        """Validate pair ``i`` under the original and the rewrite; return
        the two times."""
        name, docs, instance = self.pairs[i]
        doc, rewritten = docs[side]
        t0 = time.perf_counter_ns()
        before = pkg.validate(doc, doc.root, instance).valid
        t1 = time.perf_counter_ns()
        after = pkg.validate(rewritten, rewritten.root, instance).valid
        t2 = time.perf_counter_ns()
        if before != after:
            raise SystemExit(f"{name}: side {side} judged {instance!r} {before}, rewritten {after}")
        return t1 - t0, t2 - t1


def oracle_summary(oracle: OracleOps, pkgs: dict) -> dict:
    """Per side, the p50/p99 of the per-pair medians and their sums."""
    n = len(oracle.pairs)
    times = {s: tuple(array("q", bytes(8 * n * ORACLE_ROUNDS)) for _ in range(2)) for s in SIDES}
    for i in range(n):  # warm-up: compile every document
        for side in SIDES:
            oracle.run(pkgs[side], side, i)
    rng = random.Random(SEED)
    for r in range(ORACLE_ROUNDS):
        order = list(range(n))
        rng.shuffle(order)
        for k, i in enumerate(order):
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                original, rewritten = times[side]
                original[r * n + i], rewritten[r * n + i] = oracle.run(pkgs[side], side, i)
    summary = {s: {} for s in SIDES}
    for s in SIDES:
        for kind, samples in zip(("original", "rewrite"), times[s]):
            medians = [statistics.median(samples[i::n]) / 1e3 for i in range(n)]
            summary[s][f"oracle_{kind}_p50_us"] = percentile(medians, 0.5)
            summary[s][f"oracle_{kind}_p99_us"] = percentile(medians, 0.99)
            summary[s][f"oracle_{kind}_sum_ms"] = sum(medians) / 1e3
    return summary


class FamilyOps:
    """One family member: its sampled instances, their verdicts under the
    original, and its rewrite's text decoded by each side's package."""

    def __init__(self, pkgs: dict, kind: str, n: int, rng: random.Random):
        self.name, self.kind, self.n = f"{kind}{n}", kind, n
        texts = {
            side: pkg.serialize_json(pkg.serialize_schema(pkg.elim_document(self.original(pkg))))
            for side, pkg in pkgs.items()
        }
        if texts["a"] != texts["b"]:
            raise SystemExit(f"{self.name}: A and B rewrite to different texts")
        self.values = {side: pkg.parse_json(texts[side]) for side, pkg in pkgs.items()}
        original = self.original(pkgs["b"])
        universe = list(pkgs["b"].enumerate_instances(original))
        picked = systematic_sample(len(universe), FAMILY_INSTANCES, rng)
        self.instances = [universe[i] for i in picked]
        self.verdicts = [pkgs["b"].validate(original, original.root, x).valid for x in self.instances]

    def original(self, pkg):
        return getattr(pkg, f"gen_family_{self.kind}")(self.n)

    def run(self, pkg, side: str) -> tuple[float, ...]:
        """One run on one side, its times in :data:`FAMILY_TIMES`' order.
        The garbage of the run before is collected first, untimed."""
        gc.collect()
        memory = pkg.elim_document(self.original(pkg))
        t0 = time.perf_counter_ns()
        reparsed = pkg.parse_schema(self.values[side])
        times = [(time.perf_counter_ns() - t0) / 1e6]
        for doc in (memory, reparsed):
            t0 = time.perf_counter_ns()
            pkg.validate(doc, doc.root, self.instances[0])
            times.append((time.perf_counter_ns() - t0) / 1e6)
        for doc in (memory, reparsed):
            t0 = time.perf_counter_ns()
            verdicts = [pkg.validate(doc, doc.root, x).valid for x in self.instances]
            times.append((time.perf_counter_ns() - t0) / 1e3 / len(self.instances))
            if verdicts != self.verdicts:
                raise SystemExit(f"{self.name}: side {side}'s rewrite judges unlike the original")
        return tuple(times)


def family_summary(pkgs: dict, ns=FAMILY_NS, rounds: int = FAMILY_ROUNDS) -> dict:
    """Per side, the median of each of :data:`FAMILY_TIMES` over the
    rounds, for sn and san at each of ``ns``."""
    rng = random.Random(f"{SEED}:families")
    summary = {s: {} for s in SIDES}
    for n in ns:
        for kind in ("sn", "san"):
            ops = FamilyOps(pkgs, kind, n, rng)
            times = {s: [] for s in SIDES}
            for r in range(rounds):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    times[side].append(ops.run(pkgs[side], side))
            for s in SIDES:
                for label, samples in zip(FAMILY_TIMES, zip(*times[s])):
                    summary[s][f"{ops.name}_{label}"] = statistics.median(samples)
    return summary


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
    paths = sorted(p for p in corpus.iterdir() if p.is_dir())
    fixtures = [FixtureOps(pkgs, path) for path in paths if not path.name.startswith("adv_")]
    oracle = OracleOps(pkgs, paths)

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
    for part in (oracle_summary(oracle, pkgs), family_summary(pkgs)):
        for s, rows in part.items():
            summary[s].update(rows)
    rows = {
        label: {"a": summary["a"][label], "b": summary["b"][label]} for label in summary["a"]
    }
    for label, row in rows.items():
        row["delta"] = rel(row["a"], row["b"])
        print(f"{label:24} A {row['a']:9.2f}  B {row['b']:9.2f}  {100 * row['delta']:+7.1f}%")
    if args.json:
        report = {
            "python": platform.python_version(),
            "rounds": ROUNDS,
            "seed": SEED,
            "slots": len(medians),
            "oracle_rounds": ORACLE_ROUNDS,
            "oracle_pairs": len(oracle.pairs),
            "family_rounds": FAMILY_ROUNDS,
            "family_instances": FAMILY_INSTANCES,
            "checkouts": {s: identify(getattr(args, s).resolve()) for s in SIDES},
            "summary": rows,
        }
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
