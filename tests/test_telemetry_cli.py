"""Tests for the telemetry readers of ``tango-report`` (``telemetry``,
``timeseries``, ``alerts``)."""

import io
import json

from repro.obs.slo import SloPolicy, SloTarget, write_alerts_jsonl
from repro.obs.telemetry import TelemetryCollector, write_telemetry_jsonl
from repro.tools.report import main


def _write_stream(tmp_path):
    collector = TelemetryCollector(interval_ms=10.0)
    for t in range(0, 60, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 2.0)
        collector.observe_probe("s2", "mod", float(t), 0.5)
    collector.finish(60.0)
    path = str(tmp_path / "run.telemetry.jsonl")
    write_telemetry_jsonl(collector.samples, path)
    return path


def _write_alerts(tmp_path):
    policy = SloPolicy(
        [SloTarget(name="lat", series="executor.install_ms", threshold=1.0, budget=0.05)],
        min_samples=2,
    )
    collector = TelemetryCollector(interval_ms=10.0)
    collector.add_policy(policy)
    for t in range(0, 100, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 50.0)
    collector.finish(150.0)
    path = str(tmp_path / "run.alerts.jsonl")
    write_alerts_jsonl(collector.alerts, path)
    return path, len(collector.alerts)


def test_summary_human_readable(tmp_path):
    out = io.StringIO()
    assert main(["telemetry", _write_stream(tmp_path)], out=out) == 0
    text = out.getvalue()
    assert "- samples: " in text
    assert "executor.install_ms" in text
    assert "probe.rtt_ms" in text


def test_summary_json(tmp_path):
    out = io.StringIO()
    assert main(["telemetry", _write_stream(tmp_path), "--json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["samples"] > 0
    assert "executor.install_ms" in payload["series"]


def test_timeseries_points_and_source_filter(tmp_path):
    path = _write_stream(tmp_path)
    out = io.StringIO()
    assert main(["timeseries", path, "executor.install_ms", "--json"], out=out) == 0
    points = json.loads(out.getvalue())
    assert points and all(len(point) == 2 for point in points)
    assert points == sorted(points)
    out = io.StringIO()
    assert (
        main(
            ["timeseries", path, "probe.rtt_ms", "--source", "nope", "--json"],
            out=out,
        )
        == 0
    )
    assert json.loads(out.getvalue()) == []


def test_timeseries_unknown_series_lists_available(tmp_path):
    out = io.StringIO()
    assert main(["timeseries", _write_stream(tmp_path), "nope.series"], out=out) == 1
    text = out.getvalue()
    assert "no samples for series 'nope.series'" in text
    assert "available series:" in text


def test_alerts_listing_and_kind_filter(tmp_path):
    path, count = _write_alerts(tmp_path)
    assert count >= 1
    out = io.StringIO()
    assert main(["alerts", path], out=out) == 0
    assert f"- alerts: {count}" in out.getvalue()
    out = io.StringIO()
    assert main(["alerts", path, "--kind", "burn_rate", "--json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert len(payload) == count
    assert all(alert["kind"] == "burn_rate" for alert in payload)
    out = io.StringIO()
    assert main(["alerts", path, "--kind", "drift", "--json"], out=out) == 0
    assert json.loads(out.getvalue()) == []


def test_missing_file_returns_error(tmp_path):
    assert main(["telemetry", str(tmp_path / "missing.jsonl")], out=io.StringIO()) == 1
    assert main(["alerts", str(tmp_path / "missing.jsonl")], out=io.StringIO()) == 1
