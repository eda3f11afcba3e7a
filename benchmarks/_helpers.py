"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure from the paper's
evaluation.  The measured quantity is *virtual* (simulated) time -- the
analogue of the authors' testbed wall clock -- while pytest-benchmark
additionally records host wall time for the harness itself.

Every bench prints the rows/series the paper reports, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the evaluation section's numbers in one pass.  The same rows
are attached to ``benchmark.extra_info`` for machine consumption.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.probing import ProbingEngine
from repro.core.requests import RequestDag
from repro.core.scheduler import NetworkExecutor
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowModCommand
from repro.sim.rng import SeededRng
from repro.switches.profiles import SwitchProfile
from repro.workloads.classbench import RuleSet


def make_engine(profile: SwitchProfile, seed: int = 1) -> ProbingEngine:
    """A probing engine bound to a fresh switch built from ``profile``."""
    switch = profile.build(seed=seed)
    return ProbingEngine(
        ControlChannel(switch), rng=SeededRng(seed).child(f"bench:{profile.name}")
    )


def single_switch_executor(
    profile: SwitchProfile, name: str = "sw", seed: int = 1
) -> NetworkExecutor:
    switch = profile.build(seed=seed)
    switch.name = name
    return NetworkExecutor({name: ControlChannel(switch)})


def ruleset_dag(
    ruleset: RuleSet, priorities: Dict[int, int], location: str = "sw"
) -> RequestDag:
    """A single-switch ADD request DAG from an ACL rule set.

    Dependency edges follow the rule-overlap graph: a shadowing rule must
    be installed before the rules it shadows.
    """
    dag = RequestDag()
    requests = {}
    for index, rule in enumerate(ruleset.rules):
        requests[index] = dag.new_request(
            location, FlowModCommand.ADD, rule, priority=priorities[index]
        )
    for u, v in ruleset.dependencies.edges():
        dag.add_dependency(requests[u], requests[v])
    return dag


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Render one paper table/figure data series to stdout."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt_ms(value_ms: float) -> str:
    """Milliseconds rendered as seconds with 3 decimals."""
    return f"{value_ms / 1000.0:.3f}s"


def improvement(baseline: float, value: float) -> str:
    if baseline <= 0:
        return "n/a"
    return f"{(baseline - value) / baseline * 100.0:+.0f}%"
