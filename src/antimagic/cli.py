"""Command-line front end.

Subcommands: label, verify, sweep, oracle, export-dot.  Exit codes are part
of the interface:

    0  success
    1  malformed input, or a file that cannot be read or written
    2  property failure (verification failed, sweep found a failure)
    3  internal bug sentinel (a constructed labeling failed verification)
    4  completed search proved no labeling exists
    5  search budget exhausted
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from functools import cache
from pathlib import Path

from . import fileio
from .driver import strongly_antimagic_label
from .labeling import EdgeLabeling, first_duplicate, vertex_sums
from .oracle import SearchBudget, find_antimagic, find_strongly_antimagic
from .spiders import canonicalize, materialize_tree
from .sweep import format_report, run_sweep

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PROPERTY_FAIL = 2
EXIT_INTERNAL_BUG = 3
EXIT_PROVEN_NONE = 4
EXIT_BUDGET_EXHAUSTED = 5


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise fileio.FormatError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise fileio.FormatError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str | None) -> None:
    """Raise the error _write would give for path, before anything is written."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise fileio.FormatError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def cmd_label(args: argparse.Namespace) -> int:
    spec = fileio.parse_instance(_read(args.spec))
    trace: list[str] | None = [] if args.trace else None
    try:
        lt = strongly_antimagic_label(spec, trace=trace)
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_BUG
    # all or nothing: every output is rendered and its path checked first
    outputs = [(args.out, fileio.format_labeling(lt.labeling))]
    if args.dot:
        outputs.append((args.dot, fileio.export_dot(lt.spider, lt.labeling)))
    if args.trace:
        outputs.append((args.trace, "\n".join(trace) + "\n"))
    for path, _ in outputs:
        _check_writable(path)
    for path, text in outputs:
        _write(path, text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spider = materialize_tree(canonicalize(fileio.parse_instance(_read(args.spec))))
    labeling = fileio.parse_labeling(_read(args.labeling), spider.params)
    report = vertex_sums(spider, labeling)
    if not report.bijection_ok:
        print("fail: labels are not a bijection onto 1..m")
        return EXIT_PROPERTY_FAIL
    if args.strong:
        if not report.strong_ok:
            print(f"fail: {report.violation.describe()}")
            return EXIT_PROPERTY_FAIL
        print("ok: labeling is strongly antimagic")
        return EXIT_OK
    if not report.antimagic_ok:
        print(f"fail: {first_duplicate(report).describe()}")
        return EXIT_PROPERTY_FAIL
    print("ok: labeling is antimagic")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_edges < 5:
        print("error: --max-edges must be at least 5", file=sys.stderr)
        return EXIT_BAD_INPUT
    _check_writable(args.report)
    start = time.perf_counter()
    report = run_sweep(args.max_edges, oracle_max=args.oracle_max, workers=args.workers)
    elapsed = time.perf_counter() - start
    if args.report:
        _write(args.report, format_report(report))
    print(f"instances = {report.total}")
    print(f"failures = {len(report.failures)}")
    for rec in report.failures:
        print(f"FAIL {rec.instance.text}: {rec.detail}")
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if report.all_ok else EXIT_PROPERTY_FAIL


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = fileio.parse_instance(_read(args.spec))
    m = spec.total_edges
    if m > args.max_edges:
        print(f"budget exhausted: instance has {m} edges, over the {args.max_edges}-edge budget")
        return EXIT_BUDGET_EXHAUSTED
    spider = materialize_tree(canonicalize(spec))
    budget = SearchBudget(max_edges=args.max_edges, node_limit=args.node_limit,
                          time_limit=args.timeout_seconds)
    search = find_strongly_antimagic if args.strong else find_antimagic
    result = search(spider.tree, budget)
    if result.status == "exhausted":
        print(f"budget exhausted after {result.nodes_explored} nodes")
        return EXIT_BUDGET_EXHAUSTED
    if result.status == "none":
        print(f"none: completed search ({result.nodes_explored} nodes) found no labeling")
        return EXIT_PROVEN_NONE
    print(f"found after {result.nodes_explored} nodes")
    labels = [result.labels[e] for e in spider.edges]
    sys.stdout.write(fileio.format_labeling(EdgeLabeling.flat(spider.params, labels)))
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    spider = materialize_tree(canonicalize(fileio.parse_instance(_read(args.spec))))
    labeling = None
    if args.labeling:
        labeling = fileio.parse_labeling(_read(args.labeling), spider.params)
    _write(args.out, fileio.export_dot(spider, labeling))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Construct and verify strongly antimagic labelings of double spiders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="construct a strongly antimagic labeling")
    p.add_argument("--spec", required=True, help="instance file")
    p.add_argument("--out", help="labeling output file (default: stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--trace", help="write the step trace here")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="verify a labeling file against an instance")
    p.add_argument("--spec", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--strong", action="store_true", help="check the strong property too")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="label and certify every instance up to an edge budget")
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--oracle-max", type=int, help="cross-check instances up to this size")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--report", help="write the per-instance report here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive search for a labeling")
    p.add_argument("--spec", required=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--timeout-seconds", type=float)
    p.add_argument("--node-limit", type=int)
    p.add_argument("--max-edges", type=int, default=10)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-dot", help="write the instance (optionally labeled) as DOT")
    p.add_argument("--spec", required=True)
    p.add_argument("--labeling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.FormatError as exc:
        # malformed or unreadable input, or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
