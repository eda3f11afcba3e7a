"""Metric definitions: name, unit, better direction and kind.

``host`` metrics are wall-clock or memory readings and vary run to run;
host times are scaled to the reference machine's speed (see
:class:`~perfbench.wallclock.Calibrator`).  ``simulated`` ones are
virtual-time statistics and repeat exactly for a seed.  ``BENCHMARK.json``
lists the same names, units and directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str
    meaning: str


#: Printed by every untraced run.  One set for all workloads: each metric
#: names the same quantity on each, measured on that workload's items.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "fresh interpreter, imports and input generation; median of 9"),
    Metric("items_per_s", "1/s", "higher", "host",
           "work items per wall second: arrivals, switches or switch requests"),
    Metric("op_wall_ms_p50", "ms", "lower", "host",
           "wall time of one op (serving run, fleet, update), median over inputs"),
    Metric("op_wall_ms_tail", "ms", "lower", "host",
           "the same at the 75th percentile over inputs"),
    Metric("virtual_ms_p50", "ms", "lower", "simulated",
           "per-item virtual latency p50: rule install, switch inferred, request done"),
    Metric("virtual_ms_p99", "ms", "lower", "simulated",
           "per-item virtual latency p99, median over the cycle's ops"),
    Metric("peak_rss_mb", "MB", "lower", "host", "peak resident memory of the run"),
)


def _self(name: str) -> Metric:
    return Metric(f"{name}.self_ms", "ms", "lower", "host", "self time per cycle")


#: Printed by every traced run.  Self times are per cycle of ops (median
#: over the traced cycles); counts and ratios are per cycle and simulated.
PER_LAYER: Tuple[Metric, ...] = (
    _self("sim.run"),
    Metric("sim.events", "count", "lower", "simulated", "simulator events processed"),
    Metric("sim.host_us_per_event", "us", "lower", "host", "sim.run self time per event"),
    Metric("openflow.flow_mods", "count", "lower", "simulated", "flow-mods sent"),
    _self("openflow.send_flow_mod"),
    Metric("openflow.packet_outs", "count", "lower", "simulated", "packet-outs sent"),
    _self("openflow.send_packet_out"),
    _self("switches.apply_flow_mod"),
    _self("switches.forward_packet"),
    Metric("switches.rejected_adds", "count", "lower", "simulated", "ADDs refused, table full"),
    Metric("switches.tcam_shifts", "count", "lower", "simulated", "TCAM entries shifted"),
    Metric("tables.lookup_exact.calls", "count", "lower", "simulated", "exact lookups"),
    _self("tables.lookup_exact"),
    _self("tables.touch"),
    _self("tables.insert"),
    _self("tables.remove"),
    _self("tables.worst_entries"),
    _self("tables.match_packet"),
    _self("core.requests.new_request"),
    Metric("core.requests.add_dependency.calls", "count", "lower", "simulated", "edges added"),
    _self("core.requests.add_dependency"),
    Metric("core.scheduler.schedule.calls", "count", "lower", "simulated", "DAGs scheduled"),
    _self("core.scheduler.schedule"),
    _self("core.scheduler.issue"),
    Metric("core.scheduler.rounds", "count", "lower", "simulated", "scheduling rounds"),
    _self("core.inference.infer_steps"),
    Metric("core.inference.probe_ops", "count", "lower", "simulated", "probe installs + RTTs"),
    Metric("core.inference.size_err", "ratio", "lower", "simulated",
           "mean relative error of the inferred fast-layer size"),
    _self("core.inference.size_probe"),
    _self("core.inference.behavior_probe"),
    _self("core.inference.policy_probe"),
    _self("core.inference.latency_curves"),
    _self("core.probing.measure_rtt"),
    _self("core.probing.send_probe_packet"),
    Metric("core.probing.packets_per_rtt", "ratio", "lower", "simulated",
           "packets MEASURE_RTT sent per RTT sample; 1.0 means no retries"),
    _self("core.fleet.infer_fleet"),
    Metric("core.fleet.full_probe_ratio", "ratio", "lower", "simulated",
           "members that ran a full probe / members"),
    Metric("core.fleet.cache_hits", "count", "higher", "simulated", "model-cache hits"),
    Metric("core.fleet.coalesced_joins", "count", "higher", "simulated",
           "members that joined an in-flight probe"),
    _self("serve.stream"),
    _self("serve.cache.lookup"),
    _self("serve.cache.wildcard_match"),
    _self("serve.cache.plan_installs"),
    _self("serve.cache.expired_entries"),
    Metric("serve.cache.hit_rate", "ratio", "higher", "simulated", "hits / lookups"),
    Metric("serve.cache.evictions", "count", "lower", "simulated", "policy-ranked evictions"),
    Metric("serve.cache.aggregations", "count", "lower", "simulated", "wildcard aggregations"),
    Metric("serve.cache.punt_ratio", "ratio", "lower", "simulated", "FDRC punts / lookups"),
    _self("serve.loop"),
    Metric("serve.loop.lag_ms", "ms", "lower", "simulated",
           "virtual ms the loop's clock ends past the last arrival (backlog)"),
    _self("netem.from_traffic_matrices"),
    Metric("netem.requests", "count", "lower", "simulated", "update requests built"),
    _self("op"),
    Metric("failed_ratio", "ratio", "lower", "simulated", "failed ops / attempted ops"),
    Metric("trace.overhead_ratio", "ratio", "lower", "host",
           "traced / untraced cycle wall, both calibrated"),
    Metric("trace.coverage", "ratio", "higher", "host", "layer self time / traced wall"),
)
