"""The ``tango-telemetry`` command-line tool.

Inspects telemetry streams written by collector-attached runs (the
``--telemetry`` flag on ``tango-probe faults`` writes
``<prefix>.telemetry.jsonl`` and ``<prefix>.alerts.jsonl``).

Usage::

    tango-telemetry summary run.telemetry.jsonl
    tango-telemetry timeseries run.telemetry.jsonl executor.install_ms
    tango-telemetry timeseries run.telemetry.jsonl switch.occupancy --source s1
    tango-telemetry alerts run.alerts.jsonl --json
    python -m repro.obs.telemetry_cli summary run.telemetry.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.slo import read_alerts_jsonl
from repro.obs.telemetry import read_telemetry_jsonl, summarize_telemetry, timeseries


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-telemetry",
        description="Inspect continuous-telemetry streams (JSONL).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="per-series statistics for a telemetry stream"
    )
    summary.add_argument("stream", help="telemetry JSONL file (from --telemetry)")
    summary.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    series = sub.add_parser(
        "timeseries", help="chronological (t_ms, value) points for one series"
    )
    series.add_argument("stream", help="telemetry JSONL file (from --telemetry)")
    series.add_argument("series", help="series name, e.g. executor.install_ms")
    series.add_argument(
        "--source", default=None, help="restrict to one source (switch/component)"
    )
    series.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    alerts = sub.add_parser("alerts", help="list SLO burn-rate and drift alerts")
    alerts.add_argument("stream", help="alerts JSONL file (from --telemetry)")
    alerts.add_argument(
        "--kind", default=None, choices=("burn_rate", "drift"), help="filter by kind"
    )
    alerts.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    return parser


def _print_summary(summary: dict, out) -> None:
    print(f"samples : {summary['samples']}", file=out)
    print(f"span    : {summary['span_ms']:.2f} ms", file=out)
    if summary["series"]:
        width = max(len(name) for name in summary["series"])
        print("series  :", file=out)
        for name, stats in summary["series"].items():
            print(
                f"  {name:<{width}}  x{stats['count']:<6} "
                f"sources {stats['sources']:<4} "
                f"min {stats['min']:10.3f}  mean {stats['mean']:10.3f}  "
                f"max {stats['max']:10.3f}  last {stats['last']:10.3f}",
                file=out,
            )


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.command == "alerts":
        try:
            alerts = read_alerts_jsonl(args.stream)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot read {args.stream}: {error}", file=sys.stderr)
            return 1
        if args.kind is not None:
            alerts = [alert for alert in alerts if alert.kind == args.kind]
        if args.json:
            print(
                json.dumps([alert.to_dict() for alert in alerts], sort_keys=True),
                file=out,
            )
            return 0
        print(f"alerts : {len(alerts)}", file=out)
        for alert in alerts:
            print(
                f"  [{alert.severity:>6}] t={alert.t_ms:10.2f} ms  "
                f"{alert.name} ({alert.kind}) on {alert.series}"
                f"{f'[{alert.source}]' if alert.source else ''}: "
                f"value {alert.value:.3f} vs threshold {alert.threshold:.3f}",
                file=out,
            )
        return 0

    try:
        samples = read_telemetry_jsonl(args.stream)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read {args.stream}: {error}", file=sys.stderr)
        return 1

    if args.command == "summary":
        summary = summarize_telemetry(samples)
        if args.json:
            print(json.dumps(summary, sort_keys=True), file=out)
        else:
            _print_summary(summary, out)
        return 0

    points = timeseries(samples, args.series, source=args.source)
    if args.json:
        print(json.dumps(points), file=out)
        return 0
    if not points:
        names = sorted({sample.series for sample in samples})
        print(f"no samples for series {args.series!r}", file=out)
        print(f"available series: {', '.join(names)}", file=out)
        return 1
    for t_ms, value in points:
        print(f"{t_ms:12.3f} {value:.6g}", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
