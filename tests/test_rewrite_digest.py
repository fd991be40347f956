"""Byte identity of the rewrites, pinned by ``tools/rewrite_digest.py``.

A change that means to alter the rewrites, their ENF branch counts, the
pretty text of the inputs and outputs or the static bounds of both updates
these digests and says so in CHANGES.md.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

REWRITE = "b15bee43bf91b4567d3a3c07545159e012dfbd8fd40d45599dc58fa530333b52"
ENF_STATS = "1d9f08b300825d7e2f1c44175faa08eb96db41f8ac1909e52f6a21f43b383085"
PRETTY = "68cd8d9bdcf3fb25e33a4a265e2cf85350c7331291e21c38273b9bd5216509b9"
BOUNDS = "f02b166200097287f0d460a6924dc8d6c0a6077de9d474edb068060ca97b1062"


def load_tool():
    spec = importlib.util.spec_from_file_location("rewrite_digest", REPO / "tools" / "rewrite_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rewrites_are_byte_identical_to_the_pinned_digests(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    rewrite, enf_stats, pretty, bounds = load_tool().digests(REPO)
    assert rewrite == REWRITE
    assert enf_stats == ENF_STATS
    assert pretty == PRETTY
    assert bounds == BOUNDS
