"""How the measuring tools in ``tools/`` name the checkouts they compare."""

import importlib
import re
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """``tools/`` importable as the scripts import each other."""
    monkeypatch.setattr(sys, "path", [str(REPO / "tools"), *sys.path])
    for name in ("bench_pairs", "ab_rewrite", "ab_validate"):
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
