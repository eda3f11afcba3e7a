"""Tests for the ``tango-serve`` CLI."""

import io
import json

from repro.serve.cli import main

_FAST = [
    "--arrivals",
    "1200",
    "--tenants",
    "8",
    "--destinations",
    "64",
    "--churn-interval",
    "150",
    "--capacity",
    "48",
    "--admission-threshold",
    "2",
    "--idle-timeout",
    "400",
]


def test_text_output_summarises_the_run():
    out = io.StringIO()
    assert main(_FAST + ["--seed", "5"], out=out) == 0
    text = out.getvalue()
    assert "arrivals: 1200 over" in text
    assert "req/s sustained" in text
    assert "install latency" in text
    assert "final occupancy" in text


def test_json_output_is_parseable_and_complete():
    out = io.StringIO()
    assert main(_FAST + ["--json"], out=out) == 0
    payload = json.loads(out.getvalue())
    serve = payload["serve"]
    assert serve["arrivals"] == 1200
    assert serve["cache"]["hits"] > 0
    assert serve["cache"]["punts"] > 0
    assert serve["occupancy"]["total"] <= 48
    assert serve["install_p99_ms"] is not None


def test_verify_determinism_passes():
    out = io.StringIO()
    assert main(_FAST + ["--verify-determinism"], out=out) == 0
    assert "determinism ok" in out.getvalue()


def test_sanitize_reports_zero_findings():
    out = io.StringIO()
    assert main(_FAST + ["--sanitize"], out=out) == 0
    assert "- findings: 0" in out.getvalue()


def test_infer_runs_with_the_inferred_policy():
    out = io.StringIO()
    args = ["--profile", "switch1", "--arrivals", "800", "--tenants", "8",
            "--destinations", "64", "--churn-interval", "150", "--infer", "--json"]
    assert main(args, out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["serve"]["arrivals"] == 800


def test_telemetry_files_are_written(tmp_path):
    prefix = tmp_path / "serve"
    out = io.StringIO()
    assert main(_FAST + ["--telemetry", str(prefix)], out=out) == 0
    telemetry = tmp_path / "serve.telemetry.jsonl"
    alerts = tmp_path / "serve.alerts.jsonl"
    assert telemetry.exists() and alerts.exists()
    lines = telemetry.read_text().strip().splitlines()
    assert lines
    sample = json.loads(lines[0])
    assert "t_ms" in sample
    assert str(telemetry) in out.getvalue()


def test_report_file_is_written(tmp_path):
    report = tmp_path / "serve.md"
    out = io.StringIO()
    assert main(_FAST + ["--report", str(report)], out=out) == 0
    text = report.read_text()
    assert text.startswith("# Tango serving report")
    assert "## Sustained serving" in text
