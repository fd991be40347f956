"""The benchmark's three phases, their correctness checks and metrics.

Every phase drives the package through its public functions only, one
operation at a time (closed loop, one client, one thread):

* ``corpus_rewrite``: per non-adversarial corpus fixture, schema bytes ->
  ``parse_json`` -> ``parse_schema`` -> ``find_unguarded_cycle`` ->
  ``elim_document_with_stats`` -> ``serialize_schema``/``serialize_json``;
  then the fixture's curated witnesses are validated against the freshly
  parsed original and the re-parsed rewrite.  A fixed handful of over-deep
  probes rides along each pass, outside the latency samples.
* ``family_blowup``: rewrite plus serialization of ``gen_family_sn(n)`` and
  ``gen_family_san(n)`` for n = 2..10.
* ``oracle_sweep``: a seeded per-fixture sample of every fixture's
  ``enumerate_instances`` universe, validated under the original and the
  warm rewrite; the two verdicts must agree.

Every repetition of an operation is timed, scaled to a reference machine
speed by :class:`SpeedGauge`, and each operation reports the median of its
repetitions; percentiles are then taken across operations.

Any wrong answer raises :class:`WrongAnswer`, which aborts the run.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns as now

import uneval


class WrongAnswer(Exception):
    """An operation's output disagrees with its reference."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes and amounts of work of one run."""

    family_max_n: int = 10
    oracle_per_fixture: int = 400
    setup_repeats: int = 7
    #: passes each phase other than the named workload completes at least
    min_passes: int = 4
    #: passes of the traced run over the corpus fixtures
    trace_corpus_passes: int = 3
    trace_oracle_per_fixture: int = 40


#: Work small enough for the determinism test.
TINY = Sizes(
    family_max_n=5,
    oracle_per_fixture=4,
    setup_repeats=1,
    min_passes=1,
    trace_corpus_passes=1,
    trace_oracle_per_fixture=2,
)

#: Share of the window each phase other than the named workload gets.
COMPANION_SHARE = 0.25

#: Over-deep inputs; the roadmap's contract for each is "an answer or a
#: clean UnevalError".  Depths are fixed and must not be reduced.
DEEP_SCHEMA_DEPTHS = (200, 1500)
DEEP_INSTANCE_DEPTHS = (500, 2000)
#: Guarded recursive fixture used as the schema of the deep instances.
DEEP_INSTANCE_FIXTURE = "guarded_recursion_list"
#: Probe outcomes that keep the contract.
CLEAN = ("answer", "UnevalError")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ---------------------------------------------------------------------------
# machine speed


def _speed_text(depth: int = 4) -> str:
    """A fixed JSON text for the speed kernel."""
    if depth == 0:
        return "1"
    inner = _speed_text(depth - 1)
    return "{" + ",".join(f'"k{i}":[{inner},"s{i}",{i}]' for i in range(3)) + "}"


_SPEED_TEXT = _speed_text()


class _Node:
    __slots__ = ("kind", "items")

    def __init__(self, kind: str, items):
        self.kind = kind
        self.items = items


def _speed_parse(text: str, i: int = 0) -> tuple[_Node, int]:
    """Parse the kernel's text (objects, arrays, bare scalars) from ``i``."""
    if text[i] == "{":
        i += 1
        members = []
        while text[i] != "}":
            j = text.index('"', i + 1)
            key = text[i + 1 : j]
            value, i = _speed_parse(text, j + 2)
            members.append((key, value))
            if text[i] == ",":
                i += 1
        return _Node("object", members), i + 1
    if text[i] == "[":
        i += 1
        elements = []
        while text[i] != "]":
            value, i = _speed_parse(text, i)
            elements.append(value)
            if text[i] == ",":
                i += 1
        return _Node("array", elements), i + 1
    j = i
    while text[j] not in ",]}":
        j += 1
    return _Node("scalar", text[i:j]), j


def _speed_rewrite(node: _Node, depth: int = 0) -> _Node:
    """A new tree: keys renamed on odd levels, arrays reversed."""
    if node.kind == "object":
        return _Node(
            "object",
            [(k.upper() if depth % 2 else k, _speed_rewrite(v, depth + 1)) for k, v in node.items],
        )
    if node.kind == "array":
        return _Node("array", [_speed_rewrite(v, depth + 1) for v in reversed(node.items)])
    return node


def _speed_canonical(node: _Node) -> str:
    if node.kind == "object":
        members = sorted(node.items, key=lambda kv: kv[0])
        return "{" + ",".join(f'"{k}":{_speed_canonical(v)}' for k, v in members) + "}"
    if node.kind == "array":
        return "[" + ",".join(_speed_canonical(v) for v in node.items) + "]"
    return node.items


def speed_kernel() -> int:
    """Parse, rewrite and serialize the fixed text; no uneval code."""
    tree, _ = _speed_parse(_SPEED_TEXT)
    return len(_speed_canonical(_speed_rewrite(tree)))


class SpeedGauge:
    """Scales measured times to a reference machine speed.

    A shared 2-vCPU machine, whose CPUs other tenants use too, ran up to 1.9x
    slower for spells of seconds to tens of seconds, which moved raw
    run-to-run figures by 10-30%.  Every ``INTERVAL_NS`` the gauge times
    :func:`speed_kernel`, a small pure-Python parse, tree rewrite and
    serialization that contains no uneval code, so a change to the package
    cannot move it.  It sets ``factor`` to ``REFERENCE_NS`` over the median
    of the last ``WINDOW`` kernel times, about one second's worth; the
    median keeps the kernel's own jitter out of the factor.  Each recorded
    op time is multiplied by the factor in force when it ran.  Until
    ``tick`` or ``calibrate`` is called the factor is 1 and times are raw,
    as in the traced run.

    The kernel mimics the package's mix of work (string scanning, small
    objects, recursion, string building): in slow spells its slowdown was
    closer to that of the rewrite and the validator than a plain walk over
    a dict tree's, which slowed down more and over-corrected.
    """

    #: the kernel's time on the shared 2-vCPU x86-64 machine the benchmark
    #: was defined on (Python 3.11.7), outside its slow spells
    REFERENCE_NS = 630_000
    INTERVAL_NS = 50_000_000
    WINDOW = 21

    def __init__(self):
        self.factor = 1.0
        self._last = None
        self._recent: list[int] = []

    def calibrate(self) -> None:
        t0 = now()
        speed_kernel()
        self._recent = self._recent[1 - self.WINDOW :] + [now() - t0]
        self.factor = self.REFERENCE_NS / median(self._recent)
        self._last = now()

    def tick(self) -> None:
        if self._last is None or now() - self._last >= self.INTERVAL_NS:
            self.calibrate()

    def record(self, samples: list, i: int, ns: int) -> None:
        """Record one scaled repetition of op ``i``."""
        samples[i].append(ns * self.factor)


def new_samples(n: int) -> list:
    return [array("d") for _ in range(n)]


def per_op(samples: list) -> list[float]:
    """Each op's median repetition."""
    return [median(s) for s in samples]


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Fixture:
    name: str
    schema_bytes: bytes
    witnesses: list[tuple[object, bool]]  # (instance, expected verdict)
    canonical_bytes: int  # length of the original's canonical serialization
    carries_uneval: bool

    @property
    def adversarial(self) -> bool:
        return self.name.startswith("adv_")


def load_corpus(corpus_dir: Path) -> list[Fixture]:
    """Every fixture directory, witnesses parsed with exact decimals."""
    fixtures = []
    for path in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        witnesses = []
        for label, expected in (("valid", True), ("invalid", False)):
            for w in sorted((path / label).glob("*.json")):
                witnesses.append((uneval.parse_json(w.read_bytes()), expected))
        schema_bytes = (path / "schema.json").read_bytes()
        doc = uneval.parse_schema(uneval.parse_json(schema_bytes))
        fixtures.append(
            Fixture(
                path.name,
                schema_bytes,
                witnesses,
                len(uneval.serialize_json(uneval.serialize_schema(doc))),
                uneval.count_uneval_keywords(doc) > 0,
            )
        )
    return fixtures


@dataclass
class Probe:
    name: str
    schema_bytes: bytes
    instance_bytes: bytes  # valid by construction


def deep_probes(fixtures: list[Fixture]) -> list[Probe]:
    probes = []
    for depth in DEEP_SCHEMA_DEPTHS:
        # depth schemas chained through properties, unevaluatedProperties
        # at the root; the instance follows the chain down to an integer
        schema = (
            '{"unevaluatedProperties":false,"properties":{"a":'
            + '{"properties":{"a":' * (depth - 1)
            + '{"type":"integer"}'
            + "}}" * depth
        )
        instance = '{"a":' * depth + "0" + "}" * depth
        probes.append(Probe(f"schema_depth_{depth}", schema.encode(), instance.encode()))
    (recursive,) = [f for f in fixtures if f.name == DEEP_INSTANCE_FIXTURE]
    for depth in DEEP_INSTANCE_DEPTHS:
        instance = '{"head":1,"tail":' * depth + "null" + "}" * depth
        probes.append(
            Probe(f"instance_depth_{depth}", recursive.schema_bytes, instance.encode())
        )
    return probes


# ---------------------------------------------------------------------------
# corpus_rewrite


def rewrite_from_bytes(schema_bytes: bytes):
    """The user-facing rewrite: bytes in, original document and text out."""
    doc = uneval.parse_schema(uneval.parse_json(schema_bytes))
    if uneval.find_unguarded_cycle(doc) is not None:
        raise WrongAnswer("corpus schema reported as unguarded")
    out, _ = uneval.elim_document_with_stats(doc)
    return doc, uneval.serialize_json(uneval.serialize_schema(out))


def reparse_rewrite(text: str):
    """A fresh document from the rewrite's text, checked annotation-free."""
    rewritten = uneval.parse_schema(uneval.parse_json(text))
    if uneval.count_uneval_keywords(rewritten) != 0:
        raise WrongAnswer("rewrite still carries unevaluated* keywords")
    return rewritten


class CorpusPhase:
    """Ops ``0..F-1`` rewrite one fixture each, in seeded order; the last
    ops of a pass are the over-deep probes."""

    def __init__(self, fixtures: list[Fixture], seed: int, gauge: SpeedGauge):
        self.gauge = gauge
        self.fixtures = [f for f in fixtures if not f.adversarial]
        random.Random(f"{seed}:corpus_rewrite").shuffle(self.fixtures)
        self.probes = deep_probes(fixtures)
        self.rewrite_ns = new_samples(len(self.fixtures))
        self.witness_ns = [new_samples(2 * len(f.witnesses)) for f in self.fixtures]
        self.ops = 0
        #: worst outcome per probe: the first that was not clean, if any
        self.probe_outcomes: dict[str, str] = {}
        self.out_bytes: dict[str, int] = {}

    @property
    def n_ops(self) -> int:
        return len(self.fixtures) + len(self.probes)

    def run_op(self, i: int, tracer) -> None:
        if i < len(self.fixtures):
            with tracer.span("bench.corpus_op"):
                self._op(i)
            return
        probe = self.probes[i - len(self.fixtures)]
        with tracer.span("bench.probe_op"):
            outcome = self._probe(probe)
        if self.probe_outcomes.get(probe.name, "answer") in CLEAN:
            self.probe_outcomes[probe.name] = outcome

    def _op(self, i: int) -> None:
        fx = self.fixtures[i]
        t0 = now()
        doc, text = rewrite_from_bytes(fx.schema_bytes)
        self.gauge.record(self.rewrite_ns, i, now() - t0)
        self.ops += 1
        if self.out_bytes.setdefault(fx.name, len(text)) != len(text):
            raise WrongAnswer(f"{fx.name}: rewrite output changed between passes")
        rewritten = reparse_rewrite(text)
        slots = self.witness_ns[i]
        for j, (instance, expected) in enumerate(fx.witnesses):
            for k, d in enumerate((doc, rewritten)):
                t0 = now()
                verdict = uneval.validate(d, d.root, instance).valid
                self.gauge.record(slots, 2 * j + k, now() - t0)
                if verdict != expected:
                    kind = "original" if d is doc else "rewrite"
                    raise WrongAnswer(
                        f"{fx.name}: witness {instance!r} judged {verdict} under the {kind}"
                    )

    @staticmethod
    def _probe(probe: Probe) -> str:
        """'answer', 'UnevalError', or the name of the escaping exception."""
        try:
            doc, text = rewrite_from_bytes(probe.schema_bytes)
            rewritten = reparse_rewrite(text)
            instance = uneval.parse_json(probe.instance_bytes)
            for d in (doc, rewritten):
                if not uneval.validate(d, d.root, instance).valid:
                    raise WrongAnswer(f"{probe.name}: valid instance rejected")
        except WrongAnswer:
            raise
        except uneval.UnevalError:
            return "UnevalError"
        except Exception as exc:  # counted as a failed op, never hidden
            return type(exc).__name__
        return "answer"

    def metrics(self) -> dict[str, float]:
        clean = sum(outcome in CLEAN for outcome in self.probe_outcomes.values())
        witness_ns = [ns for slots in self.witness_ns for ns in per_op(slots)]
        rewrite_ns = per_op(self.rewrite_ns)
        ratios_all = [self.out_bytes[f.name] / f.canonical_bytes for f in self.fixtures]
        ratios_uneval = [r for r, f in zip(ratios_all, self.fixtures) if f.carries_uneval]
        return {
            "rewrite_ms_p50": percentile(rewrite_ns, 0.5) / 1e6,
            "rewrite_ms_p90": percentile(rewrite_ns, 0.9) / 1e6,
            "witness_validate_us_p50": percentile(witness_ns, 0.5) / 1e3,
            "witness_validate_us_p99": percentile(witness_ns, 0.99) / 1e3,
            "size_ratio_median_uneval": median(ratios_uneval),
            "size_ratio_median_all": median(ratios_all),
            # over one pass: every fixture op succeeded, or the run aborted
            "clean_ops_ratio": (len(self.fixtures) + clean) / self.n_ops,
        }

    def samples(self) -> dict[str, int]:
        return {
            "rewrite ops": self.ops,
            "fixtures": len(self.fixtures),
            "fixtures carrying unevaluated*": sum(f.carries_uneval for f in self.fixtures),
            "witness validations per pass": sum(map(len, self.witness_ns)),
        }


# ---------------------------------------------------------------------------
# family_blowup


class FamilyPhase:
    """Op ``i`` rewrites and serializes one family member (seeded order)."""

    def __init__(self, seed: int, max_n: int, gauge: SpeedGauge):
        self.gauge = gauge
        self.members = [
            (f"{gen.__name__[len('gen_family_'):]}_{n}", n, gen(n))
            for n in range(2, max_n + 1)
            for gen in (uneval.gen_family_sn, uneval.gen_family_san)
        ]
        random.Random(f"{seed}:family_blowup").shuffle(self.members)
        self.member_ns = new_samples(len(self.members))
        self.ops = 0
        self.out_bytes: dict[str, int] = {}

    @property
    def n_ops(self) -> int:
        return len(self.members)

    def run_op(self, i: int, tracer) -> None:
        name, n, doc = self.members[i]
        with tracer.span("bench.family_op"):
            t0 = now()
            out, stats = uneval.elim_document_with_stats(doc)
            text = uneval.serialize_json(uneval.serialize_schema(out))
            self.gauge.record(self.member_ns, i, now() - t0)
        self.ops += 1
        branches = sum(stats.values())
        if branches != 2**n - 1:
            raise WrongAnswer(f"{name}: {branches} ENF branches, lower bound is {2**n - 1}")
        if uneval.count_uneval_keywords(out) != 0:
            raise WrongAnswer(f"{name}: rewrite still carries unevaluated* keywords")
        if self.out_bytes.setdefault(name, len(text)) != len(text):
            raise WrongAnswer(f"{name}: rewrite output changed between passes")

    def metrics(self) -> dict[str, float]:
        return {
            "family_rewrite_s": sum(per_op(self.member_ns)) / 1e9,
            "family_output_bytes": sum(self.out_bytes.values()),
        }

    def samples(self) -> dict[str, int]:
        return {"member rewrites": self.ops, "members": len(self.members)}


# ---------------------------------------------------------------------------
# oracle_sweep


def systematic_sample(n: int, k: int, rng: random.Random) -> list[int]:
    """``k`` indices spread evenly over ``range(n)`` from a seeded start, or
    all of them if ``n <= k``.  The make-up of such a sample varies less
    between seeds than that of a simple random sample, which steadies the
    p99s."""
    if n <= k:
        return list(range(n))
    step = n / k
    start = rng.random() * step
    return [int(start + j * step) for j in range(k)]


class OraclePhase:
    """Op ``i`` validates one sampled instance under the original and under
    the warm rewrite.  Enumeration, sampling and rewriting are set-up."""

    def __init__(
        self, fixtures: list[Fixture], seed: int, per_fixture: int, gauge: SpeedGauge, tracer
    ):
        self.gauge = gauge
        rng = random.Random(f"{seed}:oracle_sweep")
        self.pairs = []
        for fx in fixtures:
            doc = uneval.parse_schema(uneval.parse_json(fx.schema_bytes))
            with tracer.span("instances.enumerate_instances"):
                universe = list(uneval.enumerate_instances(doc))
            tracer.counters["instances.universe_size"] += len(universe)
            picked = systematic_sample(len(universe), per_fixture, rng)
            rewritten = uneval.elim_document(doc)
            if uneval.count_uneval_keywords(rewritten) != 0:
                raise WrongAnswer(f"{fx.name}: rewrite still carries unevaluated* keywords")
            self.pairs.extend((fx.name, doc, rewritten, universe[i]) for i in picked)
        rng.shuffle(self.pairs)
        self.original_ns = new_samples(len(self.pairs))
        self.rewritten_ns = new_samples(len(self.pairs))
        self.ops = 0

    @property
    def n_ops(self) -> int:
        return len(self.pairs)

    def run_op(self, i: int, tracer) -> None:
        name, doc, rewritten, instance = self.pairs[i]
        with tracer.span("bench.oracle_pair"):
            t0 = now()
            before = uneval.validate(doc, doc.root, instance).valid
            t1 = now()
            after = uneval.validate(rewritten, rewritten.root, instance).valid
            t2 = now()
        self.gauge.record(self.original_ns, i, t1 - t0)
        self.gauge.record(self.rewritten_ns, i, t2 - t1)
        self.ops += 1
        if before != after:
            raise WrongAnswer(
                f"{name}: {instance!r} is {before} under the original, {after} under the rewrite"
            )

    def metrics(self) -> dict[str, float]:
        original_ns = per_op(self.original_ns)
        rewritten_ns = per_op(self.rewritten_ns)
        pair_ns = sum(original_ns) + sum(rewritten_ns)
        return {
            "validate_original_us_p50": percentile(original_ns, 0.5) / 1e3,
            "validate_original_us_p99": percentile(original_ns, 0.99) / 1e3,
            "validate_rewritten_us_p50": percentile(rewritten_ns, 0.5) / 1e3,
            "validate_rewritten_us_p99": percentile(rewritten_ns, 0.99) / 1e3,
            "oracle_pairs_per_s": len(self.pairs) / (pair_ns / 1e9),
        }

    def samples(self) -> dict[str, int]:
        return {"sampled instances": len(self.pairs), "validated pairs": self.ops}
