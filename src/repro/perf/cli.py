"""The ``tango-bench`` command-line tool.

Runs the hot-path micro-benchmark suite (:mod:`repro.perf.harness`),
prints a speedup table, writes ``BENCH_scheduler.json``, and exits 1 on
an op-count regression against ``benchmarks/perf_baseline.json`` or on
any optimized-vs-reference result mismatch.

Usage::

    tango-bench                      # full sizes (1k / 5k / 20k)
    tango-bench --quick              # CI smoke: 1k only
    tango-bench --update-baseline    # refresh the checked-in op counts
    python -m repro.perf.cli --quick --output BENCH_scheduler.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.harness import (
    CASE_NAMES,
    baseline_from_records,
    collect_fleet_scaling,
    compare_to_baseline,
    records_to_report,
    run_suite,
)

DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"
DEFAULT_OUTPUT = "BENCH_scheduler.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-bench",
        description="Micro-benchmark the scheduler/TCAM hot paths.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke sizes only (n=1000); what the CI perf-smoke job runs",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="explicit request/rule counts (overrides --quick)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"trajectory JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="op-count baseline JSON; gate is skipped when missing",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's op counts to the baseline and exit 0",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the slow pre-optimization reference arms",
    )
    parser.add_argument(
        "--cases",
        nargs="+",
        default=None,
        choices=sorted(CASE_NAMES),
        metavar="CASE",
        help=f"run only these cases (default: all of {sorted(CASE_NAMES)})",
    )
    parser.add_argument(
        "--fleet-scaling",
        default=None,
        metavar="PATH",
        help=(
            "also run the ungated sharded-fleet wall-clock scaling block "
            "(1024 members over worker processes by default) and write it "
            "to PATH, e.g. BENCH_fleet_scaling.json"
        ),
    )
    parser.add_argument(
        "--fleet-scaling-members",
        type=int,
        default=1024,
        metavar="N",
        help="fleet size of the --fleet-scaling run (default: 1024)",
    )
    parser.add_argument(
        "--fleet-scaling-shards",
        type=int,
        nargs="+",
        default=(1, 2, 4),
        metavar="S",
        help="shard counts of the --fleet-scaling run (default: 1 2 4)",
    )
    return parser


def _fmt_speedup(value) -> str:
    return f"{value:8.1f}x" if value is not None else "       --"


def _print_table(records, out) -> None:
    header = (
        f"{'case':<20} {'n':>6} {'wall_ms':>10} {'ops':>12} "
        f"{'ref_wall':>10} {'ref_ops':>12} {'x_wall':>9} {'x_ops':>9}  same"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for r in records:
        ref_wall = f"{r.ref_wall_ms:10.1f}" if r.ref_wall_ms is not None else "        --"
        ref_ops = f"{r.ref_ops:12d}" if r.ref_ops is not None else "          --"
        same = {True: "yes", False: "NO", None: "--"}[r.identical]
        print(
            f"{r.case:<20} {r.n:>6} {r.wall_ms:10.1f} {r.ops:>12} "
            f"{ref_wall} {ref_ops} {_fmt_speedup(r.speedup_wall)} "
            f"{_fmt_speedup(r.speedup_ops)}  {same}",
            file=out,
        )


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    records = run_suite(
        sizes=args.sizes,
        quick=args.quick,
        with_reference=not args.no_reference,
        cases=args.cases,
    )

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline_from_records(records), indent=2, sort_keys=True)
            + "\n"
        )
        _print_table(records, out)
        print(f"baseline updated: {baseline_path}", file=out)
        return 0

    baseline = {}
    gated = baseline_path.is_file()
    if gated:
        baseline = json.loads(baseline_path.read_text())
    regressions = compare_to_baseline(records, baseline)
    report = records_to_report(
        records,
        regressions,
        quick=bool(args.quick and not args.sizes),
        baseline_path=str(baseline_path) if gated else None,
    )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    if args.fleet_scaling:
        scaling = collect_fleet_scaling(
            members=args.fleet_scaling_members,
            shard_counts=tuple(args.fleet_scaling_shards),
        )
        Path(args.fleet_scaling).write_text(json.dumps(scaling, indent=2) + "\n")
        print(f"fleet scaling written: {args.fleet_scaling}", file=out)
        fastest = max(
            scaling["runs"], key=lambda run: run["speedup_wall_vs_1shard"] or 0.0
        )
        print(
            f"fleet scaling: {scaling['members']} members, best "
            f"{fastest['speedup_wall_vs_1shard']}x at {fastest['shards']} shards "
            f"(cpu_count={scaling['cpu_count']}, ungated)",
            file=out,
        )
        if not scaling["summaries_identical"]:
            print(
                "MISMATCH fleet_scaling: shard counts produced different "
                "summaries",
                file=out,
            )
            return 1

    _print_table(records, out)
    print(f"\ntrajectory written: {args.output}", file=out)
    if not gated:
        print(f"baseline {baseline_path} missing; regression gate skipped", file=out)
    for regression in regressions:
        ratio = regression["ratio"]
        detail = f"{ratio}x > threshold" if ratio is not None else "baseline is 0 ops"
        print(
            f"REGRESSION {regression['key']}: {regression['ops']} ops vs "
            f"baseline {regression['baseline_ops']} ({detail})",
            file=out,
        )
    mismatched = [r.key for r in records if r.identical is False]
    for key in mismatched:
        print(f"MISMATCH {key}: reference arm produced different results", file=out)
    if regressions or mismatched:
        return 1
    print("perf gate ok", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
