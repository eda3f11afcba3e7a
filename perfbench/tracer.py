"""Layer-boundary tracing from outside the program.

:class:`Tracer` replaces the public entry points in :data:`TARGETS` with
timing wrappers for the duration of a traced run and puts the originals
back afterwards; no code under ``src/`` knows it exists.  Each call
becomes a span (name, start, end, parent, op id).  Spans are kept in
memory and written out once the run ends.

A span's *self time* is its duration minus the time its child spans
cover, so third-party code called from a wrapped function (networkx,
numpy) counts in the caller.  Simulator event actions run under a span
named after the span that scheduled them, so the fleet driver's
callbacks count in ``core.fleet.infer_fleet`` and the serving loop's
maintenance ticks in ``serve.loop``, not in the event loop itself.

Only layer boundaries are wrapped, never per-entry helpers such as
``CachePolicy.score``, to keep the overhead low; ``trace.overhead_ratio``
reports what is left.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from perfbench.wallclock import now_ns

#: Name of the root span the benchmark opens around every op.
OP_SPAN = "op"

#: Spans kept in memory at most; aggregates keep counting beyond it.
MAX_SPANS = 250_000


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``kind`` is ``call`` (a span per call), ``iter`` (the attribute
    returns an iterator; a span per ``next``), ``schedule`` (a simulator
    scheduling call; the action runs under the scheduling span's name)
    or ``register`` (not timed; the built object is kept so the op's
    switch and simulator counters can be read at its end).
    """

    name: str
    module: str
    owner: str
    attr: str
    kind: str = "call"


TARGETS: Tuple[Target, ...] = (
    Target("sim.run", "repro.sim.events", "Simulator", "run"),
    Target("sim.schedule", "repro.sim.events", "Simulator", "schedule", "schedule"),
    Target("sim.schedule_at", "repro.sim.events", "Simulator", "schedule_at", "schedule"),
    Target("sim.call_soon", "repro.sim.events", "Simulator", "call_soon", "schedule"),
    Target("sim.simulators", "repro.sim.events", "Simulator", "__init__", "register"),
    Target("openflow.send_flow_mod", "repro.openflow.channel", "ControlChannel", "send_flow_mod"),
    Target(
        "openflow.send_packet_out", "repro.openflow.channel", "ControlChannel", "send_packet_out"
    ),
    Target("switches.switches", "repro.switches.profiles", "SwitchProfile", "build", "register"),
    Target("switches.apply_flow_mod", "repro.switches.base", "SimulatedSwitch", "apply_flow_mod"),
    Target("switches.forward_packet", "repro.switches.base", "SimulatedSwitch", "forward_packet"),
    Target("tables.lookup_exact", "repro.tables.stack", "RankedTableStack", "lookup_exact"),
    Target("tables.touch", "repro.tables.stack", "RankedTableStack", "touch"),
    Target("tables.insert", "repro.tables.stack", "RankedTableStack", "insert"),
    Target("tables.remove", "repro.tables.stack", "RankedTableStack", "remove"),
    Target("tables.worst_entries", "repro.tables.stack", "RankedTableStack", "worst_entries"),
    Target("tables.match_packet", "repro.tables.stack", "RankedTableStack", "match_packet"),
    Target("core.requests.new_request", "repro.core.requests", "RequestDag", "new_request"),
    Target("core.requests.add_dependency", "repro.core.requests", "RequestDag", "add_dependency"),
    Target("core.scheduler.schedule", "repro.core.scheduler", "BasicTangoScheduler", "schedule"),
    Target("core.scheduler.issue", "repro.core.scheduler", "NetworkExecutor", "issue"),
    Target(
        "core.inference.infer_steps",
        "repro.core.inference",
        "SwitchInferenceEngine",
        "infer_steps",
        "iter",
    ),
    Target("core.inference.size_probe", "repro.core.size_inference", "SizeProber", "probe"),
    Target(
        "core.inference.behavior_probe", "repro.core.behavior_inference", "BehaviorProber", "probe"
    ),
    Target("core.inference.policy_probe", "repro.core.policy_inference", "PolicyProber", "probe"),
    Target(
        "core.inference.latency_curves", "repro.core.latency_curves", "LatencyCurveProber", "probe"
    ),
    Target("core.probing.measure_rtt", "repro.core.probing", "ProbingEngine", "measure_rtt"),
    Target(
        "core.probing.send_probe_packet", "repro.core.probing", "ProbingEngine", "send_probe_packet"
    ),
    Target("core.fleet.infer_fleet", "repro.core.fleet", "FleetInferenceEngine", "infer_fleet"),
    Target("serve.stream", "repro.serve.stream", "FlowRequestStream", "__iter__", "iter"),
    Target("serve.cache.lookup", "repro.serve.cache", "RuleCacheManager", "lookup"),
    Target("serve.cache.wildcard_match", "repro.serve.cache", "RuleCacheManager", "wildcard_match"),
    Target("serve.cache.plan_installs", "repro.serve.cache", "RuleCacheManager", "plan_installs"),
    Target(
        "serve.cache.expired_entries", "repro.serve.cache", "RuleCacheManager", "expired_entries"
    ),
    Target("serve.loop", "repro.serve.loop", "ServeLoop", "run"),
    Target(
        "netem.from_traffic_matrices",
        "repro.netem.scenarios",
        "TrafficEngineeringScenario",
        "from_traffic_matrices",
    ),
)


class _TracedIterator:
    """Iterator proxy: one span per ``next``, so a generator's body is
    timed while it runs and not while its consumer holds it suspended."""

    __slots__ = ("_tracer", "_index", "_inner")

    def __init__(self, tracer: "Tracer", index: int, inner) -> None:
        self._tracer = tracer
        self._index = index
        self._inner = iter(inner)

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.calls[self._index] += 1
        tracer.enter(self._index)
        try:
            return next(self._inner)
        finally:
            tracer.exit()


class Tracer:
    """Spans and per-name aggregates for one traced run.

    Use :meth:`install` / :meth:`uninstall` (or the context-manager form)
    around the traced ops, and :meth:`begin_op` / :meth:`end_op` around
    each op.
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: List[str] = [OP_SPAN] + [t.name for t in targets]
        self.self_ns: List[int] = [0] * len(self.names)
        self.calls: List[int] = [0] * len(self.names)
        #: Calls made directly inside another span: ``(parent, child)``.
        self.nested_calls: Dict[Tuple[int, int], int] = {}
        #: Objects collected by ``register`` targets since the last drain.
        self.registered: Dict[str, list] = {
            t.name: [] for t in targets if t.kind == "register"
        }
        self.keep_spans = True
        self.dropped_spans = 0
        self._stack: List[list] = []
        self._op = -1
        self._span_name = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._saved: List[Tuple[type, str, object]] = []

    # -- spans -----------------------------------------------------------------
    def enter(self, index: int) -> None:
        start = now_ns()
        sid = -1
        if self._stack:
            key = (self._stack[-1][0], index)
            self.nested_calls[key] = self.nested_calls.get(key, 0) + 1
        if self.keep_spans:
            if len(self._span_name) < MAX_SPANS:
                sid = len(self._span_name)
                self._span_name.append(index)
                self._span_start.append(start)
                self._span_end.append(start)
                self._span_parent.append(self._stack[-1][3] if self._stack else -1)
                self._span_op.append(self._op)
            else:
                self.dropped_spans += 1
        self._stack.append([index, start, 0, sid])

    def exit(self) -> None:
        end = now_ns()
        index, start, child_ns, sid = self._stack.pop()
        duration = end - start
        self.self_ns[index] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if sid >= 0:
            self._span_end[sid] = end

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.calls[0] += 1
        self.enter(0)

    def end_op(self) -> None:
        self.exit()
        self._op = -1

    def drain(self, name: str) -> list:
        """Objects a ``register`` target collected since the last drain."""
        collected = self.registered[name]
        self.registered[name] = []
        return collected

    # -- wrappers ----------------------------------------------------------------
    def _wrap(self, index: int, kind: str, name: str, original: Callable) -> Callable:
        tracer = self
        calls = self.calls

        if kind == "call":

            @functools.wraps(original)
            def traced(*args, **kwargs):
                calls[index] += 1
                tracer.enter(index)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()

        elif kind == "iter":

            @functools.wraps(original)
            def traced(*args, **kwargs):
                return _TracedIterator(tracer, index, original(*args, **kwargs))

        elif kind == "schedule":

            @functools.wraps(original)
            def traced(*args):
                *head, action = args
                if tracer._stack:
                    action = tracer._event_action(tracer._stack[-1][0], action)
                return original(*head, action)

        elif kind == "register":
            bucket = self.registered

            @functools.wraps(original)
            def traced(*args, **kwargs):
                result = original(*args, **kwargs)
                # A constructor returns None: keep the instance instead.
                bucket[name].append(args[0] if result is None else result)
                return result

        else:
            raise ValueError(f"unknown target kind {kind!r}")
        traced.perfbench_traced = True
        return traced

    def _event_action(self, index: int, action: Callable[[], None]) -> Callable[[], None]:
        def traced_action() -> None:
            self.enter(index)
            try:
                action()
            finally:
                self.exit()

        return traced_action

    def install(self) -> None:
        """Replace every target with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets, start=1):
            owner = getattr(importlib.import_module(target.module), target.owner)
            original = owner.__dict__[target.attr]
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(index, target.kind, target.name, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------------
    def write_spans(self, path: Path) -> int:
        """Write the kept spans as tab-separated lines; returns the count.

        Times are nanoseconds from the first span's start; ``parent`` is
        the parent's span number (-1 for a root) and ``op`` the op id.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._span_start[0] if self._span_start else 0
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for sid in range(len(self._span_name)):
                out.write(
                    f"{sid}\t{self.names[self._span_name[sid]]}"
                    f"\t{self._span_start[sid] - origin}\t{self._span_end[sid] - origin}"
                    f"\t{self._span_parent[sid]}\t{self._span_op[sid]}\n"
                )
        return len(self._span_name)


def wrapped_entry_points(targets: Tuple[Target, ...] = TARGETS) -> List[str]:
    """Targets whose class attribute is currently a tracer wrapper."""
    found = []
    for target in targets:
        owner = getattr(importlib.import_module(target.module), target.owner)
        if getattr(owner.__dict__[target.attr], "perfbench_traced", False):
            found.append(target.name)
    return found

