"""Tests for ``tango-report``: the renderers, ``bench``, and a reader fuzz."""

import io
import json
from contextlib import redirect_stderr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tools.report import main, render_report


@pytest.fixture
def payload():
    return {
        "machine_info": {"node": "testhost", "python_version": "3.11"},
        "benchmarks": [
            {
                "name": "bench_fig10_testbed",
                "stats": {"mean": 1.234},
                "extra_info": {
                    "seconds": {"LF": {"Dionysus": 3.6, "Tango": 1.26}},
                    "gain": 0.65,
                },
            },
            {
                "name": "bench_table2_classbench",
                "stats": {"mean": 0.5},
                "extra_info": {"rows": [["Classbench1", 829, 64, 829]]},
            },
        ],
    }


def test_render_contains_bench_sections(payload):
    report = render_report(payload)
    assert "# Tango reproduction" in report
    assert "## bench_fig10_testbed" in report
    assert "## bench_table2_classbench" in report
    assert "testhost" in report


def test_render_includes_extra_info(payload):
    report = render_report(payload)
    assert "gain" in report
    assert "0.65" in report
    assert "Dionysus" in report


def test_render_handles_missing_extra_info():
    report = render_report({"benchmarks": [{"name": "x", "stats": {}}]})
    assert "(no extra_info recorded)" in report


def test_main_reads_file(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    assert main(["bench", str(path)], out=out) == 0
    assert "bench_fig10_testbed" in out.getvalue()


def test_main_reports_unreadable_file(tmp_path):
    assert main(["bench", str(tmp_path / "missing.json")], out=io.StringIO()) == 1


def test_main_reports_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["bench", str(path)], out=io.StringIO()) == 1


# -- races section ------------------------------------------------------------
def test_render_races_section_with_trace():
    from repro.tools.report import render_races

    summary = {
        "accesses": 4,
        "events": 4,
        "locations": 2,
        "findings": 1,
        "diagnostics": [
            {
                "code": "TNG040",
                "severity": "error",
                "message": "tie-break race on db:__fleet__/model_cache",
                "location": "db:__fleet__/model_cache @ t=5.000ms",
                "trace": [
                    "t=5.000ms seq=0 owner=a write cache.store db:...",
                    "t=5.000ms seq=1 owner=b read cache.lookup db:...",
                ],
            }
        ],
    }
    lines = render_races(summary)
    text = "\n".join(lines)
    assert "### Race check" in text
    assert "- accesses: 4 over 4 events (2 locations)" in text
    assert "**TNG040**" in text
    assert "seq=0 owner=a" in text and "seq=1 owner=b" in text


def test_render_report_includes_races_from_extra_info():
    data = {
        "benchmarks": [
            {
                "name": "fleet_sanitized",
                "stats": {},
                "extra_info": {
                    "races": {
                        "accesses": 10,
                        "events": 3,
                        "locations": 2,
                        "findings": 0,
                        "diagnostics": [],
                    }
                },
            }
        ]
    }
    report = render_report(data)
    assert "### Race check" in report
    assert "- findings: 0" in report
    assert "(no extra_info recorded)" not in report


def test_render_diagnostics_section():
    from repro.analysis import DiagnosticReport, Severity

    report = DiagnosticReport()
    report.add("TNG020", Severity.ERROR, "batch over capacity", location="s1",
               hint="shrink the batch")
    payload = {
        "benchmarks": [
            {
                "name": "bench_capacity_guard",
                "stats": {"mean": 0.5},
                "extra_info": {"diagnostics": report.to_dicts()},
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Diagnostics" in rendered
    assert "**TNG020** (error) `s1`: batch over capacity" in rendered
    assert "shrink the batch" in rendered


def test_render_diagnostics_accepts_diagnostic_objects():
    from repro.analysis import DiagnosticReport, Severity
    from repro.tools.report import render_diagnostics

    report = DiagnosticReport()
    report.add("TNG010", Severity.ERROR, "cycle")
    lines = render_diagnostics(list(report))
    assert any("TNG010" in line for line in lines)


def test_render_flow_telemetry_section():
    from repro.obs.slo import SloPolicy, SloTarget
    from repro.obs.telemetry import TelemetryCollector, summarize_telemetry

    collector = TelemetryCollector(interval_ms=10.0)
    collector.add_policy(
        SloPolicy(
            [SloTarget(name="lat", series="executor.install_ms", threshold=1.0)],
            min_samples=2,
        )
    )
    for t in range(0, 100, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 50.0)
    collector.finish(150.0)
    summary = summarize_telemetry(collector.samples)
    summary["alerts"] = [alert.to_dict() for alert in collector.alerts]
    payload = {
        "benchmarks": [
            {
                "name": "bench_flows",
                "stats": {"mean": 0.5},
                "extra_info": {"flow_telemetry": summary},
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Flow telemetry" in rendered
    assert "series `executor.install_ms`" in rendered
    assert "**lat** (burn_rate, page)" in rendered


def test_render_serve_section():
    from repro.tools.report import render_serve

    summary = {
        "arrivals": 5000,
        "duration_ms": 2500.0,
        "requests_per_sec": 2000.0,
        "install_p50_ms": 0.8,
        "install_p99_ms": 2.4,
        "cache": {
            "lookups": 5000,
            "hits": 3000,
            "hit_rate": 0.6,
            "wildcard_hits": 120,
            "punts": 400,
            "installs": 900,
            "evictions": 250,
            "expirations": 30,
            "aggregations": 12,
            "aggregated_rules": 70,
        },
        "occupancy": {
            "total": 96,
            "layers": [{"name": "tcam", "entries": 96, "ratio": 1.0}],
        },
    }
    lines = render_serve(summary)
    text = "\n".join(lines)
    assert lines[0] == "### Sustained serving"
    assert "5000 arrivals" not in text  # arrivals folded into the rate line
    assert "2000.0 req/s sustained" in text
    assert "p50 0.8 ms, p99 2.4 ms" in text
    assert "3000/5000 hits (60.0%)" in text
    assert "250 evictions" in text
    assert "12 aggregations (70 rules folded)" in text
    assert "96 rules" in text and "`tcam` 96 (100%)" in text


def test_render_report_includes_serve_extra_info():
    payload = {
        "benchmarks": [
            {
                "name": "bench_serve_churn",
                "stats": {"mean": 0.4},
                "extra_info": {
                    "serve": {
                        "arrivals": 100,
                        "duration_ms": 50.0,
                        "requests_per_sec": 2000.0,
                        "cache": {"lookups": 100, "hits": 40, "hit_rate": 0.4},
                    }
                },
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Sustained serving" in rendered
    assert "2000.0 req/s sustained" in rendered


def test_render_shards_section():
    from repro.tools.report import render_shards

    summary = {
        "shards": 4,
        "workers": 4,
        "partition": "tier",
        "backend": "process",
        "members": 64,
        "cross_shard_coalesced": 5,
        "wasted_probe_ops": 420,
        "merge_events": 320,
        "merge_records": 640,
        "cpu_count": 4,
        "per_shard": [
            {
                "shard": 0,
                "members": 16,
                "full_probes": 16,
                "cache_hits": 0,
                "makespan_ms": 954.1,
                "events": 80,
                "records": 160,
            },
            {
                "shard": 1,
                "members": 16,
                "full_probes": 14,
                "cache_hits": 2,
                "makespan_ms": 900.0,
                "events": 72,
                "records": 150,
            },
        ],
    }
    lines = render_shards(summary)
    text = "\n".join(lines)
    assert lines[0] == "### Sharded fleet"
    assert lines[-1] == ""
    assert "4 shards / 4 workers (tier partition, process backend)" in text
    assert "64 members" in text
    assert "5 duplicate probes dropped at merge (420 wasted probe ops)" in text
    assert "320 events interleaved, 640 records applied" in text
    assert "shard 0: 16 members, 16 full probes, 0 cache hits" in text
    assert "makespan 954.1 ms" in text
    assert "shard 1: 16 members, 14 full probes, 2 cache hits" in text


def test_render_report_includes_shards_extra_info():
    payload = {
        "benchmarks": [
            {
                "name": "bench_sharded_fleet",
                "stats": {"mean": 1.5},
                "extra_info": {
                    "shards": {
                        "shards": 2,
                        "workers": 2,
                        "partition": "round_robin",
                        "backend": "inline",
                        "members": 8,
                        "cross_shard_coalesced": 0,
                        "wasted_probe_ops": 0,
                        "merge_events": 40,
                        "merge_records": 80,
                        "per_shard": [],
                    }
                },
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Sharded fleet" in rendered
    assert "2 shards / 2 workers (round_robin partition, inline backend)" in rendered
    assert "(no extra_info recorded)" not in rendered


# -- argv fuzz ------------------------------------------------------------------
#: The field names the readers and renderers look up, so fuzzed records
#: reach past the first missing-key check.
_FIELDS = [
    # trace events, telemetry samples, alerts
    "id", "name", "cat", "ts_ms", "end_ms", "parent", "attrs", "pattern",
    "t_ms", "series", "source", "value", "labels", "kind", "severity",
    "threshold", "detail",
    # benchmark JSON and the extra_info payloads
    "benchmarks", "machine_info", "node", "python_version", "stats", "mean",
    "extra_info", "diagnostics", "telemetry", "flow_telemetry", "races",
    "serve", "shards", "code", "message", "location", "hint", "trace",
    "events", "spans", "instants", "patterns", "count", "total_ms", "max_ms",
    "samples", "span_ms", "sources", "last", "alerts", "accesses",
    "locations", "findings", "arrivals", "duration_ms", "requests_per_sec",
    "install_p50_ms", "install_p99_ms", "cache", "hits", "lookups",
    "hit_rate", "coalesced", "occupancy", "layers", "entries", "ratio",
    "total", "batches", "per_shard", "shard", "makespan_ms",
]
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_RECORD = st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=8)
_FILES = st.one_of(
    st.binary(max_size=200),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.lists(_RECORD, min_size=1, max_size=4).map(
        lambda records: "\n".join(json.dumps(r) for r in records).encode()
    ),
)
_COMMANDS = st.sampled_from(
    [
        ["bench"],
        ["trace"],
        ["chrome", "-o", "{out}"],
        ["telemetry"],
        ["telemetry", "--json"],
        ["timeseries", "value"],
        ["timeseries", "executor.install_ms", "--source", "s1", "--json"],
        ["alerts"],
        ["alerts", "--kind", "burn_rate", "--json"],
    ]
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=_COMMANDS, content=_FILES)
def test_fuzzed_artifacts_never_escape_as_tracebacks(tmp_path, command, content):
    path = tmp_path / "artifact"
    path.write_bytes(content)
    argv = [command[0], str(path)] + [
        arg.format(out=tmp_path / "out.json") for arg in command[1:]
    ]
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            status = main(argv, out=io.StringIO())
        except SystemExit as exit:
            assert exit.code == 2, argv  # argparse usage error
        else:
            assert status in (0, 1), argv
    assert "Traceback" not in err.getvalue()
