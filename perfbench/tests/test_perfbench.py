"""Tests of the benchmark itself: tiny runs, planted check violations,
tracer arithmetic and clean-up, and agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import checks, run, tracer
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.wallclock import Calibrator
from perfbench.workloads import WORKLOADS, OccupancyWatch, OpOutcome, consistency_edges

from repro.core.requests import SwitchRequest
from repro.core.scheduler import IssueRecord
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.serve.cache import CacheStats

ROOT = run.ROOT


def _tiny_run(name: str) -> run.Run:
    workload = WORKLOADS[name]
    return run.Run(workload, workload.inputs(3, tiny=True), Calibrator())


# -- tiny runs -----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_is_correct_and_repeatable(name):
    tiny = _tiny_run(name)
    tiny.cycle()
    tiny.cycle()
    assert tiny.failed == 0
    assert tiny.deterministic
    metrics = run.end_to_end(tiny, setup_s=0.1)
    assert set(metrics) == {metric.name for metric in END_TO_END}
    assert all(value > 0 for value in metrics.values())


def test_command_prints_one_result_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hit", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit


def test_command_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "te_update", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# -- planted violations ------------------------------------------------------------------
def test_serve_checks_count_each_planted_violation():
    good = CacheStats(lookups=10, hits=4, misses=6)
    assert checks.serve_violations(good, occupancy=64, budget=64, rejected_adds=0) == []
    bad = CacheStats(lookups=10, hits=4, misses=5)
    assert len(checks.serve_violations(bad, occupancy=64, budget=64, rejected_adds=0)) == 1
    assert len(checks.serve_violations(good, occupancy=65, budget=64, rejected_adds=0)) == 1
    assert len(checks.serve_violations(good, occupancy=64, budget=64, rejected_adds=2)) == 1


def test_occupancy_watch_keeps_a_transient_peak():
    from repro.switches.profiles import SWITCH_3

    switch = SWITCH_3.build(seed=1)
    watch = OccupancyWatch(switch)
    matches = [Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A00_0000 + i, 32)) for i in range(3)]
    for match in matches:
        switch.apply_flow_mod(FlowMod(command=FlowModCommand.ADD, match=match, priority=1))
    for match in matches[:2]:
        switch.apply_flow_mod(FlowMod(command=FlowModCommand.DELETE, match=match, priority=1))
    assert (len(switch.tables), watch.peak) == (1, 3)
    assert len(checks.serve_violations(
        CacheStats(), occupancy=watch.peak, budget=2, rejected_adds=0
    )) == 1


def test_fleet_check_counts_a_member_without_a_model():
    assert checks.fleet_violations(["a", "b"], {"a": object(), "b": object()}) == []
    assert len(checks.fleet_violations(["a", "b"], {"a": object()})) == 1


def _record(rid: int, start: float, end: float) -> IssueRecord:
    request = SwitchRequest(
        request_id=rid, location="s", command=FlowModCommand.ADD,
        match=Match(eth_type=0x0800, ip_dst=IpPrefix(rid, 32)), priority=1,
    )
    return IssueRecord(request=request, started_ms=start, finished_ms=end)


def test_schedule_check_counts_inversions_and_reissues():
    ids, edges = [0, 1], [(0, 1)]
    clean = [_record(0, 0.0, 1.0), _record(1, 1.0, 2.0)]
    assert checks.schedule_violations(ids, edges, clean) == []
    inverted = [_record(0, 0.0, 1.0), _record(1, 0.5, 2.0)]
    assert len(checks.schedule_violations(ids, edges, inverted)) == 1
    twice = clean + [_record(1, 2.0, 3.0)]
    assert len(checks.schedule_violations(ids, edges, twice)) == 1
    missing = clean[:1]
    assert len(checks.schedule_violations(ids, edges, missing)) == 1


def _request(rid: int, command: FlowModCommand, flow: int) -> SwitchRequest:
    return SwitchRequest(
        request_id=rid, location=f"s{rid}", command=command,
        match=Match(eth_type=0x0800, ip_dst=IpPrefix(flow, 32)), priority=1,
    )


def test_consistency_edges_come_from_the_requests_and_missing_ones_count():
    requests = [
        _request(0, FlowModCommand.ADD, 1), _request(1, FlowModCommand.ADD, 1),
        _request(2, FlowModCommand.ADD, 1), _request(3, FlowModCommand.DELETE, 2),
        _request(4, FlowModCommand.DELETE, 2),
    ]
    expected = consistency_edges(requests)
    # Installs finish egress first; deletes drain from the ingress.
    assert sorted(expected) == [(1, 0), (2, 1), (3, 4)]
    assert checks.missing_edges(expected, expected + [(0, 3)]) == []
    assert len(checks.missing_edges(expected, [(1, 0), (3, 4)])) == 1


def test_a_run_counts_ops_with_violations_and_ops_that_raise():
    class Planted:
        name, item, modules = "planted", "items", ()

        def run_op(self, spec, timer):
            with timer:
                if spec == "raise":
                    raise RuntimeError("planted")
            return OpOutcome(
                items=1, wall_ns=timer.wall_ns, virtual_p50_ms=1.0, virtual_p99_ms=1.0,
                summary=spec, violations=["planted"] if spec == "bad" else [],
            )

    planted = run.Run(Planted(), ["good", "bad", "raise"], Calibrator())
    planted.cycle()
    assert (planted.attempted, planted.failed) == (3, 2)
    assert not planted.deterministic
    # Only the summary's hash is kept once an op ends.
    good = planted.cycles[0][0]
    assert good.summary != "good" and len(good.summary) == 16


# -- tracer --------------------------------------------------------------------------
def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(tracer, "now_ns", lambda: next(ticks))
    spans = tracer.Tracer(targets=())
    spans.names += ["parent", "child"]
    spans.self_ns += [0, 0]
    spans.begin_op(7)      # t=0
    spans.enter(1)         # t=10
    spans.enter(2)         # t=20
    spans.exit()           # t=30: child 10
    spans.exit()           # t=40: parent 30 - 10
    spans.end_op()         # t=50: op 50 - 30
    assert spans.self_ns == [20, 20, 10]
    assert spans.nested_calls == {(0, 1): 1, (1, 2): 1}
    assert list(spans._span_parent) == [-1, 0, 1]
    assert list(spans._span_op) == [7, 7, 7]


def _originals():
    import importlib

    return {
        target.name: getattr(importlib.import_module(target.module), target.owner).__dict__[
            target.attr
        ]
        for target in tracer.TARGETS
    }


def test_traced_run_restores_entry_points_and_matches_untraced_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    before = _originals()
    tiny = _tiny_run("serve_evict")
    args = SimpleNamespace(workload="serve_evict", seconds=0.0)
    metrics, restored = run.traced_run(args, tiny)
    assert restored and tracer.wrapped_entry_points() == []
    assert _originals() == before
    assert tiny.deterministic and tiny.failed == 0
    assert set(metrics) == {metric.name for metric in PER_LAYER}
    assert metrics["serve.loop.self_ms"] > 0
    assert metrics["core.scheduler.schedule.calls"] > 0
    assert 0 < metrics["trace.coverage"] <= 1.0
    assert (tmp_path / "spans-serve_evict.tsv").read_text().startswith("span\tname")


# -- BENCHMARK.json ------------------------------------------------------------------------
def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {m.name: (m.unit, m.better) for m in table}
