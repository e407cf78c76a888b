"""``python -m repro bench compare|report`` — the perf-trajectory CLI.

``compare`` gates a new record set against an old one (exit 1 on
regression, 2 on infrastructure failures); ``report`` renders the same
comparison as a markdown trend table without gating.  The records come
from the benchmark suite (``benchmarks/``) and ``python -m repro
worldgen --bench-out``; the pipeline's own speed is measured by the
end-to-end benchmark under ``bench/``.
"""

from __future__ import annotations

import argparse
import sys

from .compare import (
    DEFAULT_TOLERANCE_PCT,
    RecordSetError,
    compare_sets,
    load_record_set,
    render_markdown,
    render_text,
)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``compare``/``report`` sub-subcommands."""
    sub = parser.add_subparsers(dest="bench_command", required=True)

    compare = sub.add_parser(
        "compare", help="gate a new record set against an old one"
    )
    _add_compare_arguments(compare)
    compare.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (bootstrap runs)",
    )
    compare.add_argument(
        "--verbose", action="store_true", help="also list in-band metrics"
    )
    compare.set_defaults(bench_func=cmd_compare)

    report = sub.add_parser(
        "report", help="render a markdown trend report (never gates)"
    )
    _add_compare_arguments(report)
    report.add_argument(
        "--out", default=None, metavar="PATH", help="also write the markdown here"
    )
    report.set_defaults(bench_func=cmd_report)


def _add_compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("old", help="old record set (directory or file)")
    parser.add_argument("new", help="new record set (directory or file)")
    parser.add_argument(
        "--default-tolerance",
        type=float,
        default=DEFAULT_TOLERANCE_PCT,
        metavar="PCT",
        help="noise band for metrics that do not declare their own "
        f"(default {DEFAULT_TOLERANCE_PCT:g}%%)",
    )


def run_bench(args: argparse.Namespace) -> int:
    """Dispatch target registered on the ``bench`` subparser."""
    return int(args.bench_func(args))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _load_both(args: argparse.Namespace):
    old = load_record_set(args.old)
    new = load_record_set(args.new)
    if not new:
        raise RecordSetError(f"new record set {args.new!r} is empty")
    return old, new


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        old, new = _load_both(args)
        report = compare_sets(
            old, new, default_tolerance_pct=args.default_tolerance
        )
    except RecordSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_text(report, verbose=args.verbose))
    if report.ok:
        return 0
    if args.warn_only:
        print("warn-only: regressions reported but not gating", file=sys.stderr)
        return 0
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    try:
        old, new = _load_both(args)
        report = compare_sets(
            old, new, default_tolerance_pct=args.default_tolerance
        )
    except RecordSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    markdown = render_markdown(report)
    print(markdown)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
    return 0
