"""The one instrumentation seam (repro.obs.observer) and its no-op proof."""

import io

import pytest

from repro.analysis.racecheck import RaceSanitizer
from repro.core.scheduler import BasicTangoScheduler, NetworkExecutor
from repro.obs import (
    NULL_METRICS,
    NULL_OBSERVER,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    Observer,
    Tracer,
    read_jsonl,
    read_telemetry_jsonl,
)
from repro.perf import harness
from repro.perf.harness import verify_noop
from repro.perf.workloads import fast_executor, layered_dag
from repro.serve.cli import main as serve_main
from repro.tools.cli import main as probe_main
from repro.tools.report import main as report_main


def test_null_observer_attaches_nothing():
    assert NULL_OBSERVER == Observer()
    assert NULL_OBSERVER.tracer is NULL_TRACER
    assert NULL_OBSERVER.metrics is NULL_METRICS
    assert NULL_OBSERVER.telemetry is NULL_TELEMETRY
    assert NULL_OBSERVER.sanitizer is None
    assert NULL_OBSERVER.live == []
    assert NULL_OBSERVER.telemetry_lines() == []


def test_from_flags_builds_what_the_flags_ask_for():
    assert Observer.from_flags().live == []
    traced = Observer.from_flags(trace="out/run")
    assert traced.live == ["tracer", "metrics"]
    collecting = Observer.from_flags(telemetry="out/run", sanitize=True)
    assert collecting.live == ["sanitizer", "telemetry"]
    assert isinstance(collecting.sanitizer, RaceSanitizer)
    assert collecting.telemetry.interval_ms == 5.0
    # Two calls never share an instrument.
    assert Observer.from_flags(trace=True).tracer is not traced.tracer


def test_write_covers_every_live_instrument(tmp_path):
    observer = Observer.from_flags(trace=True, telemetry=True)
    executor = fast_executor(observer=observer)
    BasicTangoScheduler(executor).schedule(layered_dag(60))
    observer.telemetry.finish(executor.now_ms())
    out = io.StringIO()
    observer.write(str(tmp_path / "run"), out, telemetry_base=str(tmp_path / "tele"))
    assert len(read_jsonl(str(tmp_path / "run.jsonl"))) == len(observer.tracer)
    assert (tmp_path / "run.chrome.json").exists()
    assert "scheduler_batches" in (tmp_path / "run.prom").read_text()
    samples = read_telemetry_jsonl(str(tmp_path / "tele.telemetry.jsonl"))
    assert len(samples) == len(observer.telemetry.samples) > 0
    assert (tmp_path / "tele.alerts.jsonl").exists()
    text = out.getvalue()
    assert "telemetry samples written to" in text and "trace:" in text
    # Nothing live, nothing written.
    NULL_OBSERVER.write(str(tmp_path / "none"), out)
    assert not (tmp_path / "none.jsonl").exists()


def test_scheduler_reads_the_executor_observer():
    tracer, metrics = Tracer(), MetricsRegistry()
    channels = fast_executor().channels
    executor = NetworkExecutor(channels, observer=Observer(tracer=tracer, metrics=metrics))
    result = BasicTangoScheduler(executor).schedule(layered_dag(60))
    batches = [e for e in tracer.events if e.name == "scheduler.batch"]
    assert len(batches) == result.rounds > 1
    assert [b.attrs["round"] for b in batches] == list(range(result.rounds))
    snapshot = metrics.snapshot()
    assert snapshot["scheduler.batches{scheduler=BasicTangoScheduler}"] == result.rounds


def test_verify_noop_passes_every_arm_and_each_was_live():
    payload = verify_noop(n=200)
    assert sorted(payload) == ["faults", "sanitize", "telemetry", "trace"]
    for arm, report in payload.items():
        assert report["live"] > 0, arm
        for workload in ("layered", "prefix", "fleet"):
            assert report[workload]["ops"] == report[workload]["bare_ops"] > 0
    assert payload["sanitize"]["fleet"]["live"] > 0
    assert payload["sanitize"]["findings"] == 0
    assert all(payload["faults"][w]["live"] > 0 for w in ("layered", "prefix", "fleet"))


class _MeddlingTracer(Tracer):
    """A tracer that is not inert: opening a span costs the switch time."""

    def span(self, name, category="", clock=None, **attrs):
        executor = getattr(clock, "__self__", None)
        if isinstance(executor, NetworkExecutor):
            for channel in executor.channels.values():
                channel.clock.advance(0.5)
        return super().span(name, category=category, clock=clock, **attrs)


def test_verify_noop_rejects_a_non_inert_arm(monkeypatch):
    monkeypatch.setitem(
        harness.NOOP_ARMS, "meddling", lambda: (Observer(tracer=_MeddlingTracer()), None)
    )
    with pytest.raises(AssertionError, match="the meddling arm changed the layered"):
        verify_noop(arms=("meddling",), n=100)


def test_verify_noop_rejects_a_dead_arm(monkeypatch):
    monkeypatch.setitem(harness.NOOP_ARMS, "dead", lambda: (NULL_OBSERVER, None))
    with pytest.raises(AssertionError, match="the dead arm was never live"):
        verify_noop(arms=("dead",), n=100)


def test_verify_noop_rejects_unknown_arms():
    with pytest.raises(ValueError, match="unknown no-op arms"):
        verify_noop(arms=("tracing",))


# -- bad input ends in a message, never a traceback ------------------------------
BAD_INPUT = [
    (serve_main, ["--arrivals", "50", "--tenants", "0"], 2, "need at least one tenant"),
    (serve_main, ["--arrivals", "50", "--rate", "0"], 2, "rate_per_ms must be positive"),
    (serve_main, ["--arrivals", "50", "--batch", "0"], 2, "batch_size must be at least 1"),
    (serve_main, ["--arrivals", "50", "--zipf", "-1"], 2, "must be non-negative"),
    (serve_main, ["--arrivals", "50", "--destinations", "5000"], 2, "must be in [1, 4096]"),
    (
        probe_main,
        ["probe", "--profile", "switch1", "--max-rules", "0"],
        2,
        "size_probe_max_rules must be positive",
    ),
    (report_main, ["trace", "{malformed}"], 1, "error: cannot read"),
    (report_main, ["telemetry", "{malformed}"], 1, "error: cannot read"),
    (report_main, ["bench", "{top_level_list}"], 1, "error: cannot read"),
    (report_main, ["bench", "{not_utf8}"], 1, "error: cannot read"),
    (report_main, ["bench", "{bench_not_a_dict}"], 1, "error: cannot read"),
    (report_main, ["bench", "{serve_cache_not_a_dict}"], 1, "error: cannot read"),
    (report_main, ["chrome", "{empty}", "-o", "{missing}/x.json"], 2, "error: cannot write"),
    (probe_main, ["schedule", "--flows", "5", "--trace", "{missing}/t"], 2, "error: cannot write"),
    (serve_main, ["--arrivals", "50", "--telemetry", "{missing}/t"], 2, "error: cannot write"),
    (serve_main, ["--arrivals", "50", "--report", "{missing}/r.md"], 2, "error: cannot write"),
    (probe_main, ["probe", "--profile", "ovs", "--seed", "-1"], 2, "--seed: must be non-negative"),
    (probe_main, ["schedule", "--seed", "-1"], 2, "--seed: must be non-negative"),
    (probe_main, ["faults", "--seed", "-1"], 2, "--seed: must be non-negative"),
    (serve_main, ["--arrivals", "50", "--seed", "-1"], 2, "--seed: must be non-negative"),
    (probe_main, ["schedule", "--flows", "0"], 2, "--flows must be positive for scenario lf"),
    (probe_main, ["schedule", "--scenario", "te1", "--requests", "0"], 2, "--requests must be"),
    (probe_main, ["faults", "--flows", "-2"], 2, "--flows: must be non-negative, got -2"),
    (serve_main, ["--arrivals", "50", "--capacity", "-1"], 2, "capacity must be at least 1"),
    (serve_main, ["--arrivals", "50", "--capacity", "0"], 2, "capacity must be at least 1"),
    (probe_main, ["infer", "--profile", "ovs", "--fleet", "0"], 2, "--fleet must be positive"),
    (
        probe_main,
        ["infer", "--profile", "ovs", "--fleet", "2", "--shards", "0"],
        2,
        "--shards must be positive",
    ),
]

#: Input files the ``BAD_INPUT`` argv templates name.
BAD_FILES = {
    "malformed": '{"t_ms": 1.0, "series": \n'.encode(),
    "top_level_list": b"[]",
    "not_utf8": b"\xff\xfe{}",
    "bench_not_a_dict": b'{"benchmarks": [1]}',
    "serve_cache_not_a_dict": (
        b'{"benchmarks": [{"name": "x", "extra_info": {"serve": {"cache": 5}}}]}'
    ),
    "empty": b"",
}


@pytest.mark.parametrize("main, argv, code, message", BAD_INPUT)
def test_bad_input_exits_with_a_message(main, argv, code, message, tmp_path, capsys):
    paths = {"missing": tmp_path / "missing"}
    for name, content in BAD_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(content)
    argv = [arg.format(**paths) for arg in argv]
    try:
        status = main(argv, out=io.StringIO())
    except SystemExit as exit:
        status = exit.code
    captured = capsys.readouterr()
    assert status == code
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
