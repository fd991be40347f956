"""Checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

from workloads import TINY, deep_probes, load_corpus  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
#: Counts and ratios of counts; only the tracing overhead is a timing.
COUNTED = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")
]
DETERMINISTIC_END_TO_END = (
    "clean_ops_ratio",
    "size_ratio_median_uneval",
    "size_ratio_median_all",
    "family_output_bytes",
)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_numbers_repeat(workload):
    """Same seed, tiny size, twice: sizes, branch and call counts repeat."""
    first, second = (run.measured_run(workload, 3, 0.01, TINY)[0] for _ in range(2))
    for name in DETERMINISTIC_END_TO_END:
        assert first[name] == second[name], name
    (first, _, info), (second, _, _) = (
        run.traced_run(workload, 3, TINY, PER_LAYER) for _ in range(2)
    )
    assert not [key for key in info if key.startswith("absent ")]
    for name in COUNTED:
        assert first[name] == second[name], name
    if workload == "family_blowup":
        # 2^n - 1 branches per member, sn and san each for n = 2..5
        assert first["enf.branches"] == 2 * sum(2**n - 1 for n in range(2, TINY.family_max_n + 1))


def test_deep_probes_are_well_formed():
    """The over-deep inputs must fail for their depth, not for bad syntax."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        for probe in deep_probes(load_corpus(run.CORPUS)):
            json.loads(probe.schema_bytes)
            json.loads(probe.instance_bytes)
    finally:
        sys.setrecursionlimit(limit)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_rewrite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
