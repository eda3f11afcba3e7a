"""``tango-report``: the one reader and renderer of a run's artifacts.

Every summary payload a run produces has exactly one ``render_*``
function here, returning markdown lines.  The benchmark report, the
reader subcommands below, and the CLIs that produce a payload
(``tango-probe``, ``tango-serve``) all print through it::

    pytest benchmarks/ --benchmark-only --benchmark-json=run.json
    tango-report bench run.json > report.md          # experiment report
    tango-report trace run.jsonl                     # span/event statistics
    tango-report chrome run.jsonl -o run.chrome.json # Perfetto, chrome://tracing
    tango-report telemetry run.telemetry.jsonl --json
    tango-report timeseries run.telemetry.jsonl switch.occupancy --source s1
    tango-report alerts run.alerts.jsonl --kind burn_rate

Exit codes: 0 success; 1 an unreadable or malformed input (``error:
cannot read PATH: ...``) or a series with no samples; 2 a usage error or
an unwritable output (``error: cannot write PATH: ...``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: What reading and rendering a malformed artifact can raise.
_UNREADABLE = (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError)


def _format_value(value: Any, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, inner in value.items():
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}- **{key}**:")
                lines.extend(_format_value(inner, indent + 1))
            else:
                lines.append(f"{pad}- **{key}**: {inner}")
        return lines
    if isinstance(value, list):
        return [f"{pad}- {item}" for item in value]
    return [f"{pad}- {value}"]


def render_diagnostics(diagnostics: List[Any], heading: str = "### Diagnostics") -> List[str]:
    """Markdown lines for a list of static-analysis diagnostics.

    Accepts :class:`~repro.analysis.Diagnostic` objects or their
    ``to_dict()`` payloads (the form benchmarks store in
    ``extra_info["diagnostics"]``).
    """
    lines = [heading, ""]
    for item in diagnostics:
        lines.append(_diagnostic_line(item.to_dict() if hasattr(item, "to_dict") else dict(item)))
    lines.append("")
    return lines


def _diagnostic_line(payload: Dict[str, Any]) -> str:
    location = f" `{payload['location']}`" if payload.get("location") else ""
    hint = f" — {payload['hint']}" if payload.get("hint") else ""
    return (
        f"- **{payload.get('code', '?')}** "
        f"({payload.get('severity', '?')}){location}: "
        f"{payload.get('message', '')}{hint}"
    )


def render_races(summary: Dict[str, Any], heading: str = "### Race check") -> List[str]:
    """Markdown lines for a race-check summary.

    Accepts the payload produced by
    :meth:`repro.analysis.racecheck.RaceCheckResult.summary` (the form
    benchmarks and the race-smoke CI job store in
    ``extra_info["races"]``).  Each TNG040 finding is rendered with its
    full ``(time, sequence)`` access trace.
    """
    lines = [heading, ""]
    lines.append(
        f"- accesses: {summary.get('accesses', 0)} over "
        f"{summary.get('events', 0)} events "
        f"({summary.get('locations', 0)} locations)"
    )
    findings = summary.get("findings", 0)
    lines.append(f"- findings: {findings}")
    for payload in summary.get("diagnostics") or ():
        lines.append(_diagnostic_line(payload))
        for entry in payload.get("trace") or ():
            lines.append(f"  - `{entry}`")
    lines.append("")
    return lines


def render_telemetry(summary: Dict[str, Any], heading: str = "### Telemetry") -> List[str]:
    """Markdown lines for a trace summary.

    Accepts the payload produced by
    :func:`repro.obs.export.summarize_events` (the form benchmarks store
    in ``extra_info["telemetry"]``).
    """
    lines = [heading, ""]
    lines.append(f"- events: {summary.get('events', 0)}")
    spans = summary.get("spans") or {}
    for key in sorted(spans):
        stats = spans[key]
        lines.append(
            f"- span `{key}`: x{stats.get('count', 0)}, "
            f"total {stats.get('total_ms', 0.0):.2f} ms, "
            f"max {stats.get('max_ms', 0.0):.2f} ms"
        )
    instants = summary.get("instants") or {}
    for key in sorted(instants):
        lines.append(f"- event `{key}`: x{instants[key]}")
    patterns = summary.get("patterns") or {}
    if patterns:
        chosen = ", ".join(f"{name} x{count}" for name, count in sorted(patterns.items()))
        lines.append(f"- pattern choices: {chosen}")
    lines.append("")
    return lines


def render_flow_telemetry(
    summary: Dict[str, Any], heading: str = "### Flow telemetry"
) -> List[str]:
    """Markdown lines for a continuous-telemetry summary.

    Accepts the payload produced by
    :func:`repro.obs.telemetry.summarize_telemetry` (the form
    benchmarks and the CLI store in ``extra_info["flow_telemetry"]``),
    optionally carrying an ``alerts`` list of
    :meth:`~repro.obs.slo.TelemetryAlert.to_dict` payloads.
    """
    lines = [heading, ""]
    lines.append(
        f"- samples: {summary.get('samples', 0)} over "
        f"{summary.get('span_ms', 0.0):.2f} ms of virtual time"
    )
    series = summary.get("series") or {}
    for key in sorted(series):
        stats = series[key]
        lines.append(
            f"- series `{key}`: x{stats.get('count', 0)} "
            f"({stats.get('sources', 0)} sources), "
            f"min {stats.get('min', 0.0):.3f}, "
            f"mean {stats.get('mean', 0.0):.3f}, "
            f"max {stats.get('max', 0.0):.3f}, "
            f"last {stats.get('last', 0.0):.3f}"
        )
    alerts = summary.get("alerts") or ()
    if alerts:
        lines.extend(render_alerts(alerts))
    lines.append("")
    return lines


def render_alerts(alerts: Sequence[Dict[str, Any]]) -> List[str]:
    """Markdown lines for a list of SLO burn-rate and drift alerts.

    Accepts :meth:`~repro.obs.slo.TelemetryAlert.to_dict` payloads: a
    count line, then one nested line per alert.
    """
    lines = [f"- alerts: {len(alerts)}"]
    for payload in alerts:
        source = f"[{payload['source']}]" if payload.get("source") else ""
        lines.append(
            f"  - **{payload.get('name', '?')}** "
            f"({payload.get('kind', '?')}, {payload.get('severity', '?')}) "
            f"at t={payload.get('t_ms', 0.0):.2f} ms on "
            f"`{payload.get('series', '?')}`{source}: "
            f"value {payload.get('value', 0.0):.3f} vs "
            f"threshold {payload.get('threshold', 0.0):.3f}"
        )
    return lines


def render_collector(
    stats: Dict[str, Any], alerts: Optional[Sequence[Dict[str, Any]]] = None
) -> List[str]:
    """Markdown lines for a live collector's roll-up.

    Accepts :meth:`repro.obs.telemetry.TelemetryCollector.stats` (the
    ``telemetry`` block of ``tango-serve --json``).  With ``alerts``
    (``to_dict`` payloads) each alert is listed, else only their count.
    """
    lines = ["### Telemetry collector", ""]
    lines.append(
        f"- samples: {stats.get('samples', 0)} over {stats.get('ticks', 0)} ticks "
        f"({len(stats.get('series') or ())} series)"
    )
    if alerts is None:
        lines.append(f"- alerts: {stats.get('alerts', 0)}")
    else:
        lines.extend(render_alerts(alerts))
    lines.append("")
    return lines


def render_serve(
    summary: Dict[str, Any], heading: str = "### Sustained serving"
) -> List[str]:
    """Markdown lines for a serving-run summary.

    Accepts the payload produced by
    :meth:`repro.serve.loop.ServeResult.to_dict` (the form the
    ``serve_churn`` bench stores in ``extra_info["serve"]``); it is also
    ``tango-serve``'s text output and ``--report`` body.
    """
    lines = [heading, ""]
    lines.append(
        f"- arrivals: {summary.get('arrivals', 0)} over "
        f"{summary.get('duration_ms', 0.0):.1f} ms of virtual time "
        f"({summary.get('requests_per_sec', 0.0):.1f} req/s sustained)"
    )
    p50 = summary.get("install_p50_ms")
    p99 = summary.get("install_p99_ms")
    if p50 is not None or p99 is not None:
        lines.append(f"- install latency: p50 {p50} ms, p99 {p99} ms")
    cache = summary.get("cache") or {}
    if cache:
        lines.append(
            f"- cache: {cache.get('hits', 0)}/{cache.get('lookups', 0)} hits "
            f"({100.0 * cache.get('hit_rate', 0.0):.1f}%), "
            f"{cache.get('wildcard_hits', 0)} via wildcards, "
            f"{cache.get('punts', 0)} punts"
        )
        lines.append(
            f"- churn: {cache.get('installs', 0)} installs, "
            f"{cache.get('evictions', 0)} evictions, "
            f"{cache.get('expirations', 0)} expirations, "
            f"{cache.get('aggregations', 0)} aggregations "
            f"({cache.get('aggregated_rules', 0)} rules folded)"
        )
        if "coalesced" in cache:
            lines.append(
                f"- admission: {cache['coalesced']} coalesced, "
                f"{cache.get('rejected', 0)} rejected"
            )
    occupancy = summary.get("occupancy") or {}
    layers = occupancy.get("layers") or ()
    if layers:
        rendered = ", ".join(
            f"`{layer.get('name', '?')}` {layer.get('entries', 0)}"
            + (
                f" ({100.0 * layer['ratio']:.0f}%)"
                if layer.get("ratio") is not None
                else ""
            )
            for layer in layers
        )
        lines.append(
            f"- final occupancy: {occupancy.get('total', 0)} rules — {rendered}"
        )
    if "batches" in summary:
        lines.append(
            f"- batches: {summary['batches']} ({summary.get('rounds', 0)} scheduler "
            f"rounds, {summary.get('maintenance_ticks', 0)} maintenance ticks)"
        )
    lines.append("")
    return lines


def render_shards(
    summary: Dict[str, Any], heading: str = "### Sharded fleet"
) -> List[str]:
    """Markdown lines for a sharded-fleet run's shard statistics.

    Accepts the payload :attr:`repro.core.shard.ShardedFleetEngine.shard_stats`
    produces (the form the ``sharded_fleet`` bench stores in
    ``extra_info["shards"]``): shard geometry, the cross-shard
    single-flight coalesce count, the merge protocol's deterministic
    cost (events interleaved, records applied), and each shard's
    member count, probe totals, and virtual makespan.
    """
    lines = [heading, ""]
    lines.append(
        f"- geometry: {summary.get('shards', 0)} shards / "
        f"{summary.get('workers', 0)} workers "
        f"({summary.get('partition', '?')} partition, "
        f"{summary.get('backend', '?')} backend) over "
        f"{summary.get('members', 0)} members"
    )
    lines.append(
        f"- cross-shard coalesced: {summary.get('cross_shard_coalesced', 0)} "
        f"duplicate probes dropped at merge "
        f"({summary.get('wasted_probe_ops', 0)} wasted probe ops)"
    )
    lines.append(
        f"- merge cost: {summary.get('merge_events', 0)} events interleaved, "
        f"{summary.get('merge_records', 0)} records applied"
    )
    per_shard = summary.get("per_shard") or ()
    for shard in per_shard:
        lines.append(
            f"- shard {shard.get('shard', '?')}: "
            f"{shard.get('members', 0)} members, "
            f"{shard.get('full_probes', 0)} full probes, "
            f"{shard.get('cache_hits', 0)} cache hits, "
            f"makespan {shard.get('makespan_ms', 0.0):.1f} ms"
        )
    lines.append("")
    return lines


#: ``extra_info`` keys with a renderer, in report order.
_SECTIONS = (
    ("diagnostics", render_diagnostics),
    ("races", render_races),
    ("serve", render_serve),
    ("shards", render_shards),
    ("telemetry", render_telemetry),
    ("flow_telemetry", render_flow_telemetry),
)


def render_report(data: Dict[str, Any]) -> str:
    """Markdown report from a pytest-benchmark JSON payload."""
    lines = ["# Tango reproduction — benchmark report", ""]
    machine = data.get("machine_info", {})
    if machine:
        lines.append(
            f"_Host: {machine.get('node', '?')} / "
            f"Python {machine.get('python_version', '?')}_"
        )
        lines.append("")

    benches = sorted(data.get("benchmarks", []), key=lambda b: b.get("name", ""))
    for bench in benches:
        name = bench.get("name", "?")
        stats = bench.get("stats", {})
        lines.append(f"## {name}")
        lines.append("")
        mean = stats.get("mean")
        if mean is not None:
            lines.append(f"Harness wall time: {mean:.2f} s")
            lines.append("")
        extra = dict(bench.get("extra_info") or {})
        sections = [(render, extra.pop(key, None)) for key, render in _SECTIONS]
        if extra:
            lines.append("Reported results:")
            lines.extend(_format_value(extra))
        elif all(payload is None for _, payload in sections):
            lines.append("(no extra_info recorded)")
        for render, payload in sections:
            if payload:
                lines.append("")
                lines.extend(render(payload))
        lines.append("")
    return "\n".join(lines)


def non_negative_int(text: str) -> int:
    """The ``type=`` of the CLIs' seed and flow/request-count options.

    A negative value is a usage error (exit 2, ``argument --seed: must
    be non-negative, got -1``) instead of an RNG traceback.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def cannot_write(error: OSError) -> int:
    """Report an unwritable output file on stderr; the exit status (2)."""
    print(f"error: cannot write {error.filename}: {error.strerror}", file=sys.stderr)
    return 2


def _bench(args) -> Tuple[int, str]:
    with open(args.path, encoding="utf-8") as handle:
        return 0, render_report(json.load(handle))


def _trace(args) -> Tuple[int, str]:
    from repro.obs.export import read_jsonl, summarize_events

    summary = summarize_events(read_jsonl(args.path))
    return 0, "\n".join(render_telemetry(summary, heading="### Trace"))


def _chrome(args) -> Tuple[int, str]:
    from repro.obs.export import read_jsonl, write_chrome_trace

    events = read_jsonl(args.path)
    trace = Path(args.path)
    output = args.output or str(trace.with_name(trace.name.removesuffix(".jsonl") + ".chrome.json"))
    try:
        count = write_chrome_trace(events, output)
    except OSError as error:
        return cannot_write(error), ""
    return 0, f"chrome trace written: {output} ({count} events)"


def _telemetry(args) -> Tuple[int, str]:
    from repro.obs.telemetry import read_telemetry_jsonl, summarize_telemetry

    summary = summarize_telemetry(read_telemetry_jsonl(args.path))
    if args.json:
        return 0, json.dumps(summary, sort_keys=True)
    return 0, "\n".join(render_flow_telemetry(summary))


def _timeseries(args) -> Tuple[int, str]:
    from repro.obs.telemetry import read_telemetry_jsonl, timeseries

    samples = read_telemetry_jsonl(args.path)
    points = timeseries(samples, args.series, source=args.source)
    if args.json:
        return 0, json.dumps(points)
    if not points:
        names = sorted({sample.series for sample in samples})
        return 1, (
            f"no samples for series {args.series!r}\n"
            f"available series: {', '.join(names)}"
        )
    return 0, "\n".join(f"{t_ms:12.3f} {value:.6g}" for t_ms, value in points)


def _alerts(args) -> Tuple[int, str]:
    from repro.obs.slo import read_alerts_jsonl

    alerts = [alert.to_dict() for alert in read_alerts_jsonl(args.path)]
    if args.kind is not None:
        alerts = [alert for alert in alerts if alert["kind"] == args.kind]
    if args.json:
        return 0, json.dumps(alerts, sort_keys=True)
    return 0, "\n".join(render_alerts(alerts))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-report",
        description="Read a run's artifacts and render them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, path_help, **kwargs):
        subparser = sub.add_parser(name, **kwargs)
        subparser.add_argument("path", help=path_help)
        subparser.set_defaults(run=run)
        return subparser

    trace_help = "JSONL trace file (from --trace)"
    stream_help = "telemetry JSONL file (from --telemetry)"
    command(
        "bench", _bench, "path to the --benchmark-json output",
        help="render a pytest-benchmark JSON file as a markdown report",
    )
    command("trace", _trace, trace_help, help="span/event statistics for a trace")
    chrome = command(
        "chrome", _chrome, trace_help,
        help="convert a JSONL trace to Chrome trace_event JSON "
        "(chrome://tracing, Perfetto)",
    )
    chrome.add_argument(
        "-o", "--output", default=None,
        help="output path (default: <trace>.chrome.json)",
    )
    telemetry = command(
        "telemetry", _telemetry, stream_help,
        help="per-series statistics for a telemetry stream",
    )
    series = command(
        "timeseries", _timeseries, stream_help,
        help="chronological (t_ms, value) points for one series",
    )
    series.add_argument("series", help="series name, e.g. executor.install_ms")
    series.add_argument(
        "--source", default=None, help="restrict to one source (switch/component)"
    )
    alerts = command(
        "alerts", _alerts, "alerts JSONL file (from --telemetry)",
        help="list SLO burn-rate and drift alerts",
    )
    alerts.add_argument(
        "--kind", default=None, choices=("burn_rate", "drift"), help="filter by kind"
    )
    for subparser in (telemetry, series, alerts):
        subparser.add_argument("--json", action="store_true", help="machine-readable JSON output")
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        status, text = args.run(args)
    except _UNREADABLE as error:
        print(f"error: cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    if text:
        print(text, file=out)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
