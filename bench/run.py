"""Benchmark of the uneval package: what a rewrite costs, and what
validating the original versus the rewritten schema costs.

Run from the repository root::

    python3 bench/run.py --workload corpus_rewrite --seed 1 --seconds 10 --trace 0

Workloads: ``corpus_rewrite``, ``family_blowup``, ``oracle_sweep`` (see
``workloads.py`` and ``README.md``).  The named workload runs closed-loop
for ``--seconds``; the other two are interleaved with it at a fixed share
of the time, so that every run reports every end-to-end metric listed in
``BENCHMARK.json``.  With ``--trace 1`` the named workload instead runs a
fixed amount of work twice, untraced and then with every traced function
of ``src/uneval/`` wrapped, and the per-layer metrics are reported; the
fixed amount makes every count repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
ends the run with exit code 1 and no result line; a checkout without the
package or its corpus ends it with exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns as now

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = BENCH_DIR / "out"

WORKLOADS = ("corpus_rewrite", "family_blowup", "oracle_sweep")


class MissingCheckout(Exception):
    """The package sources or the corpus are not where the benchmark expects."""


def import_package():
    """Import ``uneval`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "uneval" / "__init__.py").is_file():
        raise MissingCheckout(f"no package sources under {SRC}")
    if not CORPUS.is_dir():
        raise MissingCheckout(f"no corpus under {CORPUS}")
    sys.path.insert(0, str(SRC))
    import uneval

    if not Path(uneval.__file__).resolve().is_relative_to(SRC):
        raise MissingCheckout(f"uneval was imported from {uneval.__file__}, not {SRC}")
    return uneval


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


class Companion:
    """Cursor over the ops of a phase that is not the named workload."""

    def __init__(self, phase):
        self.phase = phase
        self.done = 0
        self.busy_ns = 0

    def step(self, tracer) -> None:
        self.phase.gauge.tick()
        t0 = now()
        self.phase.run_op(self.done % self.phase.n_ops, tracer)
        self.done += 1
        self.busy_ns += now() - t0


def measured_run(workload: str, seed: int, seconds: float, sizes):
    from tracing import NullTracer
    from workloads import (
        COMPANION_SHARE,
        CorpusPhase,
        FamilyPhase,
        OraclePhase,
        SpeedGauge,
        load_corpus,
        median,
    )

    tracer = NullTracer()
    gauge = SpeedGauge()
    setup_ns = []
    for _ in range(sizes.setup_repeats):
        phases = None  # let the previous set-up go before building the next
        gc.collect()
        for _ in range(gauge.WINDOW):
            gauge.calibrate()
        t0 = now()
        fixtures = load_corpus(CORPUS)
        phases = {
            "corpus_rewrite": CorpusPhase(fixtures, seed, gauge),
            "family_blowup": FamilyPhase(seed, sizes.family_max_n, gauge),
            "oracle_sweep": OraclePhase(fixtures, seed, sizes.oracle_per_fixture, gauge, tracer),
        }
        setup_ns.append((now() - t0) * gauge.factor)
    # The named workload runs closed-loop for the whole window.  After each
    # of its ops, each other phase runs ops until it has had its share of
    # the elapsed time, so that the repetitions of every op are spread over
    # the whole window and a slow spell of the shared machine does not land
    # on one phase only.  Each other phase completes at least
    # ``sizes.min_passes`` passes, the last ones after the window if needed.
    focal = phases[workload]
    others = [Companion(phases[n]) for n in phases if n != workload]
    gc.collect()
    done = 0
    start = now()
    deadline = start + seconds * 1e9
    while True:
        gauge.tick()
        focal.run_op(done % focal.n_ops, tracer)
        done += 1
        t = now()
        if t >= deadline and done >= focal.n_ops:
            break
        for c in others:
            while c.busy_ns < COMPANION_SHARE * (t - start):
                c.step(tracer)
    for c in others:
        while c.done < sizes.min_passes * c.phase.n_ops:
            c.step(tracer)

    metrics = {
        "setup_s": median(setup_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "setup repeats": len(setup_ns),
        "run s": (now() - start) / 1e9,
        "last speed factor": gauge.factor,
    }
    for name, phase in phases.items():
        metrics.update(phase.metrics())
        info.update({f"{name}: {k}": v for k, v in phase.samples().items()})
    info.update({f"probe {k}": v for k, v in phases["corpus_rewrite"].probe_outcomes.items()})
    attempted = sum(phase.ops for phase in phases.values())
    return metrics, attempted, info


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_work(workload: str, seed: int, sizes, fixtures, tracer):
    from workloads import CorpusPhase, FamilyPhase, OraclePhase, SpeedGauge

    gauge = SpeedGauge()  # never calibrated: traced times stay raw
    if workload == "corpus_rewrite":
        phase = CorpusPhase(fixtures, seed, gauge)
        # a RecursionError can unwind through a wrapper before its span is
        # recorded, so the over-deep probes stay out of the traced run
        phase.probes = []
        passes = sizes.trace_corpus_passes
    elif workload == "family_blowup":
        phase = FamilyPhase(seed, sizes.family_max_n, gauge)
        passes = 1
    else:
        phase = OraclePhase(fixtures, seed, sizes.trace_oracle_per_fixture, gauge, tracer)
        passes = 1
    for i in range(passes * phase.n_ops):
        phase.run_op(i % phase.n_ops, tracer)
    return phase


def traced_run(workload: str, seed: int, sizes, metric_names):
    from tracing import BENCH_SPANS, LAYERS, TRACED, NullTracer, Tracer
    from workloads import load_corpus

    fixtures = load_corpus(CORPUS)
    gc.collect()
    t0 = now()
    traced_work(workload, seed, sizes, fixtures, NullTracer())
    untraced_ns = now() - t0

    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        t0 = now()
        phase = traced_work(workload, seed, sizes, fixtures, tracer)
        traced_ns = now() - t0
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    known = {f"{layer}.{q}" for layer, qs in TRACED.items() for q in qs} | set(BENCH_SPANS)

    def stat(name: str, key: str) -> int:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer_self_ns = {
        layer: sum(v["self_ns"] for k, v in summary.items() if k.startswith(layer + "."))
        for layer in LAYERS
    }
    instances = stat("validator.validate", "outer_calls")
    counters = tracer.counters
    derived = {
        "analysis.Analyzer.covers.true_ratio": ratio(
            counters["analysis.Analyzer.covers.true"], stat("analysis.Analyzer.covers", "calls")
        ),
        "enf.BranchList.dedup_hit_ratio": ratio(
            stat("enf.BranchList.add", "calls") - counters["enf.BranchList.kept"],
            stat("enf.BranchList.add", "calls"),
        ),
        "validator.validate.calls_per_instance": ratio(
            stat("validator.validate", "calls"), instances
        ),
        "validator.validate.self_us_per_instance": ratio(
            layer_self_ns["validator"] / 1e3, instances
        ),
        "trace.overhead_s": (traced_ns - untraced_ns) / 1e9,
        "trace.overhead_ratio": traced_ns / untraced_ns,
    }

    metrics = {}
    for name in metric_names:
        base, _, kind = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif kind == "self_ms" and base in LAYERS:
            metrics[name] = layer_self_ns[base] / 1e6
        elif kind in ("ms", "calls"):
            if base not in known:
                raise ValueError(f"per-layer metric {name} names no traced function")
            metrics[name] = stat(base, "ns") / 1e6 if kind == "ms" else stat(base, "calls")
        else:
            metrics[name] = counters[name]

    info = {f"absent {k}": v for k, v in sorted(tracer.absent.items())}
    info["spans"] = len(tracer.span_name)
    info["untraced s"] = untraced_ns / 1e9
    info["traced s"] = traced_ns / 1e9
    path = TRACE_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(path)
    info["span file"] = str(path.relative_to(ROOT))
    return metrics, phase.ops, info


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        spec = json.loads(SPEC.read_text())
    except (MissingCheckout, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    from workloads import Sizes, WrongAnswer

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    try:
        if args.trace:
            metrics, attempted, info = traced_run(args.workload, args.seed, Sizes(), list(units))
        else:
            metrics, attempted, info = measured_run(
                args.workload, args.seed, args.seconds, Sizes()
            )
    except WrongAnswer as exc:
        print(f"bench: wrong answer: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(
            f"bench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 2

    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, unit in units.items():
        print(f"{name:48} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
