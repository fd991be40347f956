"""Command-line front end.

Exit codes: 0 success / instance valid / no disagreement; 1 instance
invalid or differential disagreement; 2 usage or schema errors, input
that nests too deeply among them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .analysis import Analyzer, EvalPair
from .difftest import difftest
from .eliminate import elim_document_with_stats, is_uneval_schema
from .enf import enf
from .errors import GuardednessError, UnevalError
from .families import gen_family_san, gen_family_sn
from .jsonvalue import dump_json, parse_json, serialize_json
from .schema import (
    INF,
    SchemaDocument,
    deref,
    find_unguarded_cycle,
    parse_schema,
    schema_to_json,
    serialize_schema,
)
from .validator import validate


def _load_document(path: str) -> SchemaDocument:
    doc = parse_schema(parse_json(Path(path).read_bytes()))
    cycle = find_unguarded_cycle(doc)
    if cycle is not None:
        raise GuardednessError(cycle)
    return doc


def _print_json(value) -> None:
    print(dump_json(value))


def _cmd_validate(args) -> int:
    doc = _load_document(args.schema)
    instance = parse_json(Path(args.instance).read_bytes())
    outcome = validate(doc, doc.root, instance)
    _print_json(outcome.to_json())
    return 0 if outcome.valid else 1


def _cmd_eliminate(args) -> int:
    doc = _load_document(args.schema)
    started = time.perf_counter()
    rewritten, branch_counts = elim_document_with_stats(doc)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    out_json = serialize_schema(rewritten)
    if args.output:
        Path(args.output).write_text(dump_json(out_json) + "\n", encoding="utf-8")
    else:
        _print_json(out_json)
    if args.stats:
        input_bytes = len(serialize_json(serialize_schema(doc)))
        output_bytes = len(serialize_json(out_json))
        stats = {
            "input_bytes": input_bytes,
            "output_bytes": output_bytes,
            "size_ratio": round(output_bytes / input_bytes, 4) if input_bytes else 0.0,
            "elapsed_ms": round(elapsed_ms, 3),
            "enf_branches": {k or "#": v for k, v in sorted(branch_counts.items())},
        }
        print(serialize_json(stats))
    return 0


def _cmd_enf(args) -> int:
    doc = _load_document(args.schema)
    target = doc.root
    if args.pointer:
        pointer = args.pointer
        if not pointer.startswith("/$defs/"):
            raise UnevalError(f"unsupported pointer {pointer!r}; use /$defs/<name>")
        target = deref(doc, "#" + pointer)
    if is_uneval_schema(target):
        raise UnevalError(
            "the selected schema carries unevaluated* keywords; run 'eliminate'"
        )
    normalized = enf(doc, target)
    branches = normalized.single_keyword("anyOf")
    _print_json(
        {
            "schema": schema_to_json(normalized),
            "branches": len(branches.value) if branches else 0,
        }
    )
    return 0


def _pair_json(pair: EvalPair):
    return {
        "h": "inf" if pair.h == INF else pair.h,
        "guard": schema_to_json(pair.guard),
    }


def _cmd_analyze(args) -> int:
    doc = _load_document(args.schema)
    analyzer = Analyzer(doc)
    report = {}
    for name, schema in doc.named_schemas():
        ex_p = analyzer.ex_ep(schema)
        ex_i = analyzer.ex_ei(schema)
        report[name or "#"] = {
            "minEP": sorted(analyzer.min_ep(schema)),
            "maxEP": sorted(analyzer.max_ep(schema)),
            "minEI": _pair_json(analyzer.min_ei(schema)),
            "maxEI": _pair_json(analyzer.max_ei(schema)),
            "exEP": sorted(ex_p) if ex_p is not None else "undefined",
            "exEI": _pair_json(ex_i) if ex_i is not None else "undefined",
        }
    _print_json(report)
    return 0


def _cmd_difftest(args) -> int:
    doc = _load_document(args.schema)
    instances = None
    if args.instances:
        directory = Path(args.instances)
        if not directory.is_dir():
            raise NotADirectoryError(f"--instances {directory} is not a directory")
        files = sorted(directory.glob("*.json"))
        loaded = []
        for f in files:
            try:
                loaded.append(parse_json(f.read_bytes()))
            except UnevalError as exc:
                print(f"skipping {f}: {exc}", file=sys.stderr)
        instances = loaded
    report = difftest(doc, instances, schema_id=args.schema)
    _print_json(report.to_json())
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    return 1 if report.disagree else 0


def _cmd_gen_family(args) -> int:
    doc = gen_family_sn(args.n) if args.kind == "sn" else gen_family_san(args.n)
    _print_json(serialize_schema(doc))
    return 0


def _family_size(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uneval",
        description=(
            "Validate JSON against annotation-aware schemas and rewrite "
            "unevaluatedProperties/unevaluatedItems into classical keywords."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance against a schema")
    p.add_argument("--schema", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eliminate", help="rewrite unevaluated* keywords away")
    p.add_argument("--schema", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("enf", help="normalize a schema into a single anyOf")
    p.add_argument("--schema", required=True)
    p.add_argument("--pointer", help="select a named schema, e.g. /$defs/item")
    p.set_defaults(func=_cmd_enf)

    p = sub.add_parser("analyze", help="print evaluation bounds per named schema")
    p.add_argument("--schema", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("difftest", help="compare original vs rewritten schema")
    p.add_argument("--schema", required=True)
    p.add_argument("--instances", help="directory of *.json instances")
    p.set_defaults(func=_cmd_difftest)

    p = sub.add_parser("gen-family", help="emit an adversarial family schema")
    p.add_argument("--kind", choices=("sn", "san"), required=True)
    p.add_argument("--n", type=_family_size, required=True)
    p.set_defaults(func=_cmd_gen_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UnevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input nests too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
