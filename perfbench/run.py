"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_evict --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced cycle, then traced cycles, and prints the
per-layer metrics; the spans go to ``perfbench/out/``.  Either way the
outputs are checked, and a run whose checks fail, or whose simulated
statistics differ between cycles or between the traced and untraced
runs, reports ``"correct": false``.

Load generation is this one process: no threads, no workers.  Set-up
time is measured in nine fresh interpreters, one after the other.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9

# Import the benchmark as a package from the checkout root, and never let
# this directory shadow a standard-library module.
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    sys.path.pop(0)
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.stats import TAIL_PERCENTILE, digest, percentile  # noqa: E402
from perfbench.wallclock import CALIBRATION_NOMINAL_NS, Calibrator, now_ns, peak_rss_mb  # noqa: E402
from perfbench.workloads import WORKLOADS, OpTimer  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def _setup(workload, seed: int, tiny: bool) -> list:
    for module in workload.modules:
        importlib.import_module(module)
    return workload.inputs(seed, tiny=tiny)


def measure_setup(args, calibrator: Calibrator) -> float:
    """Median wall time of a fresh interpreter importing the program and
    generating the inputs (``--setup-only``)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    if args.tiny:
        command.append("--tiny")
    samples = []
    before = calibrator.sample()
    for _ in range(SETUP_SAMPLES):
        start = now_ns()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        elapsed = now_ns() - start
        after = calibrator.sample()
        samples.append(elapsed * CALIBRATION_NOMINAL_NS / ((before + after) / 2) / 1e9)
        before = after
    return median(samples)


def run_op(workload, spec, op_id: int, tracer=None):
    """One op; None when it raised (a failed op, reported on stderr)."""
    try:
        return workload.run_op(spec, OpTimer(tracer, op_id))
    except Exception:  # tango-lint: disable=TNG035 -- counted as a failed op
        print(f"op {op_id} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


class Run:
    """Cycles of ops and what they produced."""

    def __init__(self, workload, specs, calibrator: Calibrator) -> None:
        self.workload = workload
        self.specs = specs
        self.calibrator = calibrator
        self.cycles = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def cycle(self, tracer=None, on_op=None) -> list:
        outcomes = []
        before = self.calibrator.sample()
        for spec in self.specs:
            outcome = run_op(self.workload, spec, self.attempted, tracer)
            after = self.calibrator.sample()
            if outcome is not None:
                outcome.calibration_ns = (before + after) // 2
                # Keep only the hash: a run holds every op's outcome, so
                # its memory must not grow with the number of cycles.
                outcome.summary = digest([outcome.summary])
            before = after
            if on_op is not None:
                on_op(outcome)
            self.attempted += 1
            if outcome is None or outcome.violations:
                self.failed += 1
                self.violations.extend(outcome.violations if outcome else ["op raised"])
            outcomes.append(outcome)
        self.cycles.append(outcomes)
        failed = any(outcome is None for outcome in outcomes)
        self.digests.append(
            "failed" if failed else digest(outcome.summary for outcome in outcomes)
        )
        return outcomes

    @property
    def ops(self) -> list:
        return [o for cycle in self.cycles for o in cycle if o is not None]

    @property
    def deterministic(self) -> bool:
        return "failed" not in self.digests and len(set(self.digests)) == 1


def repeat_until(deadline_ns: int, one_cycle) -> None:
    """Call ``one_cycle`` once, then again while the next call is expected
    to end by ``deadline_ns`` (half a cycle of slack either way), so a
    run measures whole cycles for about the requested time."""
    while True:
        start = now_ns()
        one_cycle()
        end = now_ns()
        if end + (end - start) // 2 >= deadline_ns:
            return


def end_to_end(run: Run, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run.

    Host times are per input first: each input's op time is the median
    over the cycles that ran it, so one stalled op does not move the
    result; the medians and the tail are then taken over inputs.
    """
    per_input = [
        [o for o in ops if o is not None] for ops in zip(*run.cycles)
    ]
    per_input = [ops for ops in per_input if ops]
    input_ns = [median([o.scaled_ns for o in ops]) for ops in per_input]
    first = [o for o in run.cycles[0] if o is not None]
    return {
        "setup_s": setup_s,
        "items_per_s": median(
            [ops[0].items / (ns / 1e9) for ops, ns in zip(per_input, input_ns)]
        ),
        "op_wall_ms_p50": median(input_ns) / 1e6,
        "op_wall_ms_tail": percentile(input_ns, TAIL_PERCENTILE) / 1e6,
        "virtual_ms_p50": median([o.virtual_p50_ms for o in first]),
        "virtual_ms_p99": median([o.virtual_p99_ms for o in first]),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run, traced: list, names: list, snapshots: list, base_scaled_ns: float) -> dict:
    """Per-layer metrics of a traced run.

    Args:
        traced: indexes into ``run.cycles`` of the traced cycles.
        names: the tracer's span names.
        snapshots: per traced cycle, ``(self_ns, calls, switch and
            simulator counters, nested calls)`` accumulated during that
            cycle.
        base_scaled_ns: calibrated wall time of the untraced cycle.
    """
    first = [o for o in run.cycles[traced[0]] if o is not None]
    counters = {}
    for outcome in first:
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    _, first_calls, first_layer, first_nested = snapshots[0]

    def calls(name):
        return first_calls[names.index(name)]

    values = {}
    for metric in PER_LAYER:
        if metric.name.endswith(".self_ms"):
            index = names.index(metric.name[: -len(".self_ms")])
            values[metric.name] = median([snap[0][index] / 1e6 for snap in snapshots])
    sim_self_us = median([snap[0][names.index("sim.run")] / 1e3 for snap in snapshots])
    cycle_walls = [
        sum(o.wall_ns for o in run.cycles[index] if o is not None) for index in traced
    ]
    cycle_scaled = [
        sum(o.scaled_ns for o in run.cycles[index] if o is not None) for index in traced
    ]
    covered = [
        sum(snap[0]) - snap[0][names.index("op")] for snap in snapshots
    ]
    values.update({
        "sim.events": first_layer["events"],
        "sim.host_us_per_event": _ratio(sim_self_us, first_layer["events"]),
        "openflow.flow_mods": calls("openflow.send_flow_mod"),
        "openflow.packet_outs": calls("openflow.send_packet_out"),
        "switches.rejected_adds": first_layer["rejected_adds"],
        "switches.tcam_shifts": first_layer["tcam_shifts"],
        "tables.lookup_exact.calls": calls("tables.lookup_exact"),
        "core.requests.add_dependency.calls": calls("core.requests.add_dependency"),
        "core.scheduler.schedule.calls": calls("core.scheduler.schedule"),
        "core.scheduler.rounds": counters.get("rounds", 0),
        "core.inference.probe_ops": counters.get("probe_ops", 0),
        "core.inference.size_err": _ratio(
            counters.get("size_err_sum", 0.0), counters.get("members", 0)
        ),
        "core.probing.packets_per_rtt": _ratio(
            first_nested.get(
                (names.index("core.probing.measure_rtt"),
                 names.index("core.probing.send_probe_packet")),
                0,
            ),
            calls("core.probing.measure_rtt"),
        ),
        "core.fleet.full_probe_ratio": _ratio(
            counters.get("full_probes", 0), counters.get("members", 0)
        ),
        "core.fleet.cache_hits": counters.get("cache_hits", 0),
        "core.fleet.coalesced_joins": counters.get("coalesced_joins", 0),
        "serve.cache.hit_rate": _ratio(counters.get("hits", 0), counters.get("lookups", 0)),
        "serve.cache.evictions": counters.get("evictions", 0),
        "serve.cache.aggregations": counters.get("aggregations", 0),
        "serve.cache.punt_ratio": _ratio(counters.get("punts", 0), counters.get("lookups", 0)),
        "serve.loop.lag_ms": 0.0,
        "netem.requests": counters.get("requests", 0),
        "failed_ratio": _ratio(run.failed, run.attempted),
        "trace.overhead_ratio": _ratio(median(cycle_scaled), base_scaled_ns),
        "trace.coverage": median(
            [_ratio(c, w) for c, w in zip(covered, cycle_walls)]
        ),
    })
    values.update(run.workload.layer_extras(run.specs, first))
    return values


def traced_run(args, run: Run):
    """One untraced cycle, then traced cycles; returns the per-layer
    metrics and whether the tracer left every entry point as it was."""
    from perfbench.tracer import Tracer, wrapped_entry_points

    deadline_ns = now_ns() + int(args.seconds * 1e9)
    run.cycle()
    base_scaled_ns = sum(o.scaled_ns for o in run.cycles[0] if o is not None)
    tracer = Tracer()
    snapshots = []
    layer = {}

    def collect(outcome):
        for switch in tracer.drain("switches.switches"):
            layer["rejected_adds"] += switch.stats.rejected_adds
            layer["tcam_shifts"] += switch.stats.total_shifts
        for simulator in tracer.drain("sim.simulators"):
            layer["events"] += simulator.processed_events

    traced = []

    def traced_cycle():
        before_self, before_calls = list(tracer.self_ns), list(tracer.calls)
        before_nested = dict(tracer.nested_calls)
        layer.update(rejected_adds=0, tcam_shifts=0, events=0)
        run.cycle(tracer=tracer, on_op=collect)
        traced.append(len(run.cycles) - 1)
        snapshots.append((
            [a - b for a, b in zip(tracer.self_ns, before_self)],
            [a - b for a, b in zip(tracer.calls, before_calls)],
            dict(layer),
            {key: count - before_nested.get(key, 0)
             for key, count in tracer.nested_calls.items()},
        ))
        tracer.keep_spans = False

    with tracer:
        repeat_until(deadline_ns, traced_cycle)
    restored = not wrapped_entry_points()
    spans = tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
    print(
        f"  {spans} spans of the first traced cycle ({tracer.dropped_spans} over the cap)"
        f" in perfbench/out/spans-{args.workload}.tsv"
    )
    return per_layer(run, traced, tracer.names, snapshots, base_scaled_ns), restored


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        _setup(workload, args.seed, args.tiny)
        return 0

    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    calibrator = Calibrator()
    setup_s = measure_setup(args, calibrator) if args.trace == 0 else 0.0
    run = Run(workload, _setup(workload, args.seed, args.tiny), calibrator)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")

    restored = True
    if args.trace:
        metrics, restored = traced_run(args, run)
        table = PER_LAYER
    else:
        repeat_until(now_ns() + int(args.seconds * 1e9), run.cycle)
        metrics = end_to_end(run, setup_s) if run.ops else {}
        table = END_TO_END
    correct = run.failed == 0 and run.deterministic and restored and bool(metrics)

    print(
        f"  {run.attempted} ops ({workload.item}) in {len(run.cycles)} cycles of"
        f" {len(run.specs)}, {run.failed} failed, simulated digest {run.digests[0]}"
        + ("" if run.deterministic else f" (cycles differ: {sorted(set(run.digests))})")
    )
    if not restored:
        print("  tracer left wrapped entry points behind", file=sys.stderr)
    for violation in run.violations[:20]:
        print(f"  check failed: {violation}", file=sys.stderr)
    if args.trace == 0 and run.ops:
        print(
            f"  op times are per input, median over {len(run.cycles)} cycles;"
            f" op_wall_ms_tail is p{TAIL_PERCENTILE:g} over {len(run.specs)} inputs"
        )
    for metric in table:
        if metric.name in metrics:
            print(
                f"  {metric.name:38s} {metrics[metric.name]:14.6g} {metric.unit:6s}"
                f" {metric.better} is better, {metric.kind}: {metric.meaning}"
            )
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in table
            if metric.name in metrics
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  digests=run.digests, violations=run.violations[:100],
                  op_wall_ms=[[o.wall_ns / 1e6 if o else None for o in c] for c in run.cycles],
                  op_calibration_ms=[
                      [o.calibration_ns / 1e6 if o else None for o in c] for c in run.cycles
                  ],
                  op_items=[o.items if o else None for o in run.cycles[0]])
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
