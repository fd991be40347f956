"""Span tracing installed from outside the package.

Each traced function of ``src/uneval/`` is replaced by a wrapper at every
module attribute (or class attribute, for methods) that binds it, so that
calls through ``from .schema import canonical_text`` style imports are seen
too.  Spans live in flat arrays in memory: name, parent span, start, end and
whether the span is the outermost activation of its function.  Self time is
computed after the run; spans are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: Functions wrapped per module (module = layer): those a per-layer metric
#: names, plus those whose span moves time between layers
#: (``build_document``, ``gen_family_*``).  Everything else, leaf helpers
#: called once per keyword or per node (``type_of``, ``schema_to_json``,
#: ``validate_keyword``, ...) included, is charged to the calling layer,
#: which keeps the tracing overhead bounded.
TRACED = {
    "jsonvalue": ("parse_json", "serialize_json", "json_equal"),
    "schema": (
        "parse_schema",
        "build_document",
        "find_unguarded_cycle",
        "serialize_schema",
        "canonical_text",
        "deref",
        "pattern_matches",
    ),
    "analysis": (
        "Analyzer.covers",
        "Analyzer.ex_ep",
        "Analyzer.ex_ei",
        "Analyzer.is_characterized",
    ),
    "enf": (
        "EnfBuilder.enf",
        "and_combine",
        "or_combine",
        "close",
        "conjoin",
        "BranchList.add",
    ),
    "eliminate": (
        "elim_document_with_stats",
        "unnest",
        "push_uneval_props",
        "push_uneval_items",
    ),
    "validator": ("validate", "validate_keyword_list"),
    "families": ("gen_family_sn", "gen_family_san"),
}

#: Layers whose self time is reported as ``<layer>.self_ms``; the
#: instances layer has only the benchmark's own span below.
LAYERS = (*TRACED, "instances")

#: Spans the benchmark opens itself around calls it cannot wrap: the
#: instance enumerator is a generator, so its span covers full consumption.
BENCH_SPANS = ("instances.enumerate_instances",)

_MISSING = object()


def _count_true(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if result:
        tracer.counters[name + ".true"] += 1
    return result


def _count_kept(tracer, name, fn, args, kwargs):
    before = len(args[0])
    result = fn(*args, **kwargs)
    if len(args[0]) > before:
        tracer.counters[name.rsplit(".", 1)[0] + ".kept"] += 1
    return result


def _count_branches(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counters["enf.branches"] += sum(result[1].values())
    return result


def _count_hoisted(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counters[name + ".hoisted"] += len(result.defs) - len(args[0].defs)
    return result


#: Counters read from arguments or results of particular calls.
HOOKS = {
    "analysis.Analyzer.covers": _count_true,
    "enf.BranchList.add": _count_kept,
    "eliminate.elim_document_with_stats": _count_branches,
    "eliminate.unnest": _count_hoisted,
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outer = bytearray()
        self._stack: list[int] = []
        self._active: list[int] = []
        self.counters: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    # -- spans

    def enter(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(sid)
        self.span_end.append(0)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def exit(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._active[self.span_name[sid]] -= 1

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- wrapping

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        enter, exit_ = self.enter, self.exit

        if hook is None:

            def wrapper(*args, **kwargs):
                sid = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(sid)

        else:

            def wrapper(*args, **kwargs):
                sid = enter(nid)
                try:
                    return hook(self, name, fn, args, kwargs)
                finally:
                    exit_(sid)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each binding in ``uneval``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "uneval" or key.startswith("uneval."))
        ]
        for layer, qualnames in TRACED.items():
            module = sys.modules.get(f"uneval.{layer}")
            for qualname in qualnames:
                name = f"{layer}.{qualname}"
                if module is None:
                    self.absent[name] = f"module uneval.{layer} not found"
                    continue
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, _MISSING)
                    fn = vars(owner).get(attr, _MISSING) if owner is not _MISSING else _MISSING
                    if fn is _MISSING or not callable(fn):
                        self.absent[name] = f"{qualname} not defined in uneval.{layer}"
                        continue
                    self._set(owner, attr, self._wrap(name, fn))
                    continue
                fn = getattr(module, attr, _MISSING)
                if fn is _MISSING or not callable(fn):
                    self.absent[name] = f"{attr} not defined in uneval.{layer}"
                    continue
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- analysis

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, outermost calls, inclusive and self ns."""
        n_names = len(self.names)
        calls = [0] * n_names
        outer_calls = [0] * n_names
        incl = [0] * n_names
        self_ns = [0] * n_names
        child = [0] * len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        for sid in range(len(names)):
            dur = ends[sid] - starts[sid]
            p = parents[sid]
            if p >= 0:
                child[p] += dur
        for sid in range(len(names)):
            nid = names[sid]
            dur = ends[sid] - starts[sid]
            calls[nid] += 1
            self_ns[nid] += dur - child[sid]
            if outer[sid]:
                outer_calls[nid] += 1
                incl[nid] += dur
        return {
            name: {
                "calls": calls[i],
                "outer_calls": outer_calls[i],
                "ns": incl[i],
                "self_ns": self_ns[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans, gzipped: a JSON header line (name table, absent
        names), then one tab-separated line per span.  Spans of one
        benchmark operation share the root of their parent chain."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            rows = zip(
                range(len(self.span_name)),
                self.span_parent,
                self.span_name,
                self.span_start,
                self.span_end,
            )
            out.writelines(f"{s}\t{p}\t{n}\t{a}\t{b}\n" for s, p, n, a, b in rows)


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.sid)
        return False


class NullTracer:
    """Stand-in used for untraced runs: spans cost one method call."""

    def __init__(self):
        self.counters: Counter = Counter()

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
