"""Alternating parent/change runs of ``bench/run.py`` and their summary.

Run from anywhere, with two checkouts of the repository::

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --seeds 501-510 --log runs.jsonl --out BENCH_topic.json

For each workload of ``BENCHMARK.json`` and each seed, the parent and the
change run ``python3 bench/run.py --workload W --seed S --seconds 20
--trace 0``, the parent first on even pairs and the change first on odd
ones.  Before each run, that side's tree (without ``.git`` and byte-code
caches) is copied into one run directory, the same for both sides and
every run, and the run starts there; so whatever the directory a run
starts from does to its timings lands on both sides.  Every run's result
line is appended to the log, and runs already in the log are not
repeated, so an interrupted series resumes; the log keeps each run's
``# key: value`` lines as ``info``.  The summary gives, per workload and
end-to-end metric, each side's median and quartiles, the pairs the
change won and lost, and whether the change stays within the metric's
bound.  Each run's ``peak_rss_mb`` is listed beside the oracle's
repetitions per op, which set the size of its sample arrays.  The tier-1
suite is timed once per checkout.  Each checkout is named by its commit
or, outside a git repository, by a sha256 over its ``src/`` files
(:func:`identify`).  Stopped with SIGTERM
or SIGINT, the tool stops its running child first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SECONDS = 20
BENCH = ["bench/run.py", "--seconds", str(SECONDS), "--trace", "0"]
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
#: Seconds a child stopped with SIGTERM gets before it is killed.
GRACE_S = 2.0


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median, Q3 by linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        i = int(pos)
        j = min(i + 1, len(ordered) - 1)
        return ordered[i] + (ordered[j] - ordered[i]) * (pos - i)

    return at(0.25), at(0.5), at(0.75)


def run_child(args: list[str], checkout: Path, env=None) -> tuple[int, str]:
    """Exit code and standard output of ``python args`` run in ``checkout``.
    If the tool stops first, the child is terminated, and killed after
    ``GRACE_S``."""
    child = subprocess.Popen(
        [sys.executable, *args],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(GRACE_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    return child.returncode, stdout


def exit_on_signal(signum, frame) -> None:
    sys.exit(128 + signum)


def stage(checkout: Path, run_dir: Path) -> Path:
    """Make ``run_dir`` a fresh copy of ``checkout``'s tree, without its
    ``.git`` and byte-code caches, and return it."""
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(checkout, run_dir, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    return run_dir


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    t0 = time.time()
    code, stdout = run_child([*BENCH, "--workload", workload, "--seed", str(seed)], checkout)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if code == 0 and lines else None
    # the run's "# key: value" lines, such as the oracle's validated pairs
    info = dict(line[2:].rpartition(": ")[::2] for line in lines if line.startswith("# "))
    return {"exit": code, "wall_s": time.time() - t0, "result": result, "info": info}


def time_tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.time()
    _, stdout = run_child(TIER1, checkout, env)
    return {
        "wall_s": round(time.time() - t0, 1),
        "summary": stdout.strip().splitlines()[-1] if stdout.strip() else "",
    }


def collect(args, spec: dict) -> None:
    done = set()
    if args.log.exists():
        for line in args.log.read_text().splitlines():
            r = json.loads(line)
            done.add((r["workload"], r["seed"], r["side"]))
    checkouts = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        run_dir = Path(tmp) / "checkout"
        for workload in [w["name"] for w in spec["workloads"]]:
            for k, seed in enumerate(args.seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    if (workload, seed, side) in done:
                        continue
                    r = run_bench(stage(checkouts[side], run_dir), workload, seed)
                    r.update(workload=workload, seed=seed, side=side, pair=k, first=order[0])
                    with args.log.open("a") as log:
                        log.write(json.dumps(r) + "\n")
                    print(f"{workload} seed {seed} {side}: exit {r['exit']}, {r['wall_s']:.0f} s", flush=True)


def summarize(args, spec: dict) -> dict:
    runs = [json.loads(line) for line in args.log.read_text().splitlines()]
    metrics = spec["end_to_end"]
    workloads = {}
    for w in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == w and r["seed"] in args.seeds]
        by_side = {
            side: {r["seed"]: r for r in mine if r["side"] == side} for side in ("parent", "change")
        }
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        rows = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"

            def values(side):
                return [by_side[side][s]["result"]["metrics"][name]["value"] for s in seeds]

            parent, change = values("parent"), values("change")
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
            pq, cq = quartiles(parent), quartiles(change)
            rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse = rel if lower else -rel
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2], "runs": parent},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2], "runs": change},
                "median_change": round(rel, 4),
                "pairs_won": wins,
                "pairs_lost": losses,
                "gain_rule_met": wins >= 0.9 * len(seeds)
                and abs(cq[1] - pq[1]) > (pq[2] - pq[0]),
                "within_bound": worse <= m["bound"],
            }
        workloads[w] = {
            "pairs": len(seeds),
            "failed_runs": sum(r["exit"] != 0 for r in mine),
            "metrics": rows,
        }
    return workloads


def rss_beside_repetitions(args) -> dict:
    """Per workload and side, each run's ``peak_rss_mb`` beside the oracle's
    repetitions per op (validated pairs over sampled instances, from the
    run's info lines), in the order of the repetitions."""
    out: dict = {}
    for line in args.log.read_text().splitlines():
        r = json.loads(line)
        if r["seed"] not in args.seeds or r["result"] is None:
            continue
        pairs = int(r["info"]["oracle_sweep: validated pairs"])
        sampled = int(r["info"]["oracle_sweep: sampled instances"])
        out.setdefault(r["workload"], {}).setdefault(r["side"], []).append(
            {
                "seed": r["seed"],
                "validated_pairs": pairs,
                "reps_per_oracle_op": round(pairs / sampled, 1),
                "peak_rss_mb": round(r["result"]["metrics"]["peak_rss_mb"]["value"], 2),
            }
        )
    for sides in out.values():
        for rows in sides.values():
            rows.sort(key=lambda row: row["validated_pairs"])
    return out


def identify(checkout: Path) -> dict[str, str]:
    """``{"commit": short sha}`` of a checkout that is the top of a git
    repository and whose ``src/`` matches that commit, else, as for a
    ``git archive`` copy, ``{"src_sha256": ...}`` over its ``src/`` files
    (each relative path, a NUL, its bytes, in path order; ``__pycache__``
    and ``*.egg-info`` left out)."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    done = git("rev-parse", "--show-toplevel", "--short", "HEAD")
    lines = done.stdout.split()
    if (
        done.returncode == 0
        and len(lines) == 2
        and Path(lines[0]).resolve() == checkout
        and not git("status", "--porcelain", "--untracked-files=all", "--", "src").stdout
    ):
        return {"commit": lines[1]}
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if path.is_file() and not any(
            part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts
        ):
            digest.update(rel.as_posix().encode() + b"\0" + path.read_bytes())
    return {"src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    parser.add_argument("--log", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, exit_on_signal)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    collect(args, spec)

    report = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "checkouts": {"parent": identify(args.parent), "change": identify(args.change)},
        "seeds": args.seeds,
        "command": "python3 " + " ".join(BENCH) + " --workload W --seed S  (from one run directory, a fresh copy of the side's tree)",
        "order": "pair k runs the parent first when k is even, the change first when k is odd",
        "gain_rule": "change wins >= 9/10 of pairs and |median difference| > parent Q3 - Q1",
        "workloads": summarize(args, spec),
        "peak_rss_vs_oracle_repetitions": rss_beside_repetitions(args),
        "tier1": {
            "command": "PYTHONPATH=src python3 " + " ".join(TIER1),
            "parent": time_tier1(args.parent),
            "change": time_tier1(args.change),
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
