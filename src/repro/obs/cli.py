"""The ``tango-trace`` command-line tool.

Inspects and converts traces written by instrumented runs (the
``--trace`` flag on ``tango-probe probe``/``schedule`` and on the
traced examples).

Usage::

    tango-trace summary run.trace.jsonl        # span/event statistics
    tango-trace chrome run.trace.jsonl -o run.chrome.json
    python -m repro.obs.cli summary run.trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.export import read_jsonl, summarize_events, write_chrome_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-trace",
        description="Inspect and convert Tango telemetry traces (JSONL).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="span/event statistics for a trace")
    summary.add_argument("trace", help="JSONL trace file (from --trace)")

    chrome = sub.add_parser(
        "chrome",
        help="convert a JSONL trace to Chrome trace_event JSON "
        "(chrome://tracing, Perfetto)",
    )
    chrome.add_argument("trace", help="JSONL trace file (from --trace)")
    chrome.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <trace>.chrome.json)",
    )
    return parser


def _print_summary(summary: dict, out) -> None:
    print(f"events         : {summary['events']}", file=out)
    if summary["spans"]:
        print("spans          :", file=out)
        width = max(len(name) for name in summary["spans"])
        for name, stats in summary["spans"].items():
            print(
                f"  {name:<{width}}  x{stats['count']:<6} "
                f"total {stats['total_ms']:10.2f} ms  "
                f"max {stats['max_ms']:8.2f} ms",
                file=out,
            )
    if summary["instants"]:
        print("instant events :", file=out)
        for name, count in summary["instants"].items():
            print(f"  {name}: {count}", file=out)
    if summary["patterns"]:
        print("pattern choices:", file=out)
        for name, count in summary["patterns"].items():
            print(f"  {name}: {count}", file=out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        events = read_jsonl(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read {args.trace}: {error}", file=sys.stderr)
        return 1

    if args.command == "summary":
        _print_summary(summarize_events(events), out)
        return 0

    output = args.output
    if output is None:
        trace = Path(args.trace)
        base = trace.name[: -len(".jsonl")] if trace.name.endswith(".jsonl") else trace.name
        output = str(trace.with_name(base + ".chrome.json"))
    count = write_chrome_trace(events, output)
    print(f"chrome trace written: {output} ({count} events)", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
