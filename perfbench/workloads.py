"""The four benchmark workloads.

Each workload turns the benchmark seed into a fixed *cycle* of op inputs
(:meth:`Workload.inputs`); the run repeats whole cycles until its time
is up.  Simulated statistics come from one cycle and repeat exactly for
a seed; host times come from every op run.  An op's wall time covers
only the work a user waits for: a serving run, a fleet inference, or
one network update (DAG build plus schedule) -- the fresh emulated
network an update starts from is built outside it.

Why these four: each layer an optimisation is likely to target does
most of the work in one workload and little or none in another.

* ``serve_evict`` -- the serving write path: FDRC admission, policy-ranked
  eviction and wildcard aggregation, per-batch DAG building and
  scheduling, table inserts and removes (Switch #3, 64-rule budget,
  churning working sets).
* ``serve_hit`` -- the serving read path: cache and table lookups, rank
  touches and arrival generation, with few installs (one bounded LRU
  layer the hot set mostly fits).
* ``fleet_probe`` -- the inference path: probe patterns, the switch data
  path and cache-policy ranking, plus model-cache hits and single-flight
  joins for the repeated fingerprints.  No serving, scheduler or DAG.
* ``te_update`` -- the paper's Fig. 12 B4 traffic-engineering update:
  large mixed multi-switch DAGs built by ``netem`` and scheduled over
  the 12 OVS sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple

from perfbench import checks
from perfbench.stats import digest, percentile
from perfbench.wallclock import CALIBRATION_NOMINAL_NS, now_ns


@dataclass
class OpOutcome:
    """What one op produced.

    Attributes:
        items: work items the op completed (arrivals, switches, requests).
        wall_ns: host time of the timed region.
        virtual_p50_ms / virtual_p99_ms: percentiles of the op's per-item
            virtual latency.
        summary: simulated statistics, hashed to show identity.
        violations: failed output checks.
        counters: simulated per-layer counters of the op.
        calibration_ns: the calibration loop's time around the op.
    """

    items: int
    wall_ns: int
    virtual_p50_ms: float
    virtual_p99_ms: float
    summary: object
    violations: List[str]
    counters: Dict[str, float] = field(default_factory=dict)
    calibration_ns: int = 0

    @property
    def scaled_ns(self) -> float:
        """Wall time at the reference machine's speed (see
        :data:`~perfbench.wallclock.CALIBRATION_NOMINAL_NS`)."""
        return self.wall_ns * CALIBRATION_NOMINAL_NS / self.calibration_ns


class OpTimer:
    """Times an op's region and opens its root span when tracing."""

    def __init__(self, tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id
        self.wall_ns = 0

    def __enter__(self) -> "OpTimer":
        if self.tracer is not None:
            self.tracer.begin_op(self.op_id)
        self._start = now_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns = now_ns() - self._start
        if self.tracer is not None:
            self.tracer.end_op()


def _sub_seed(seed: int, label: str) -> int:
    from repro.sim.rng import derive_seed

    return derive_seed(seed, label) % (1 << 31)


class Workload:
    """One benchmark workload: its inputs, its op and its checks."""

    name = ""
    #: What one work item is, for ``items_per_s``.
    item = ""
    #: Modules whose import is part of set-up.
    modules: Tuple[str, ...] = ()

    def inputs(self, seed: int, tiny: bool = False) -> list:
        """The cycle of op inputs for ``seed`` (``tiny``: test size)."""
        raise NotImplementedError

    def run_op(self, spec, timer: OpTimer) -> OpOutcome:
        raise NotImplementedError

    def layer_extras(self, specs: list, outcomes: List[OpOutcome]) -> Dict[str, float]:
        """Simulated per-layer values that need an untraced pass."""
        return {}


# -- serving ---------------------------------------------------------------------
class OccupancyWatch:
    """Records the most rules a switch held after any flow-mod, so a
    transient overcommit counts even if evictions or idle expiry bring
    the final occupancy back under the budget."""

    def __init__(self, switch) -> None:
        self.peak = len(switch.tables)
        owner = type(switch)

        def watched(flow_mod):
            # Looked up on the class per call, so a tracer's wrapper runs.
            try:
                return owner.apply_flow_mod(switch, flow_mod)
            finally:
                self.peak = max(self.peak, len(switch.tables))

        switch.apply_flow_mod = watched


class ServeWorkload(Workload):
    item = "arrivals"
    modules = ("repro.serve", "repro.switches.profiles", "repro.perf.workloads")
    ops_per_cycle = 16

    def profile(self):
        raise NotImplementedError

    def config(self, arrivals: int, seed: int):
        raise NotImplementedError

    def inputs(self, seed: int, tiny: bool = False) -> list:
        arrivals = 300 if tiny else self.arrivals
        ops = 2 if tiny else self.ops_per_cycle
        return [
            self.config(arrivals, _sub_seed(seed, f"{self.name}:{index}"))
            for index in range(ops)
        ]

    def run_op(self, config, timer: OpTimer) -> OpOutcome:
        from repro.serve import ServeLoop

        profile = self.profile()
        with timer:
            loop = ServeLoop(config, profile)
            occupancy = OccupancyWatch(loop.switch)
            result = loop.run()
        cache = result.cache
        stats = loop.switch.stats
        violations = checks.serve_violations(
            cache, occupancy.peak, config.capacity, stats.rejected_adds
        )
        if result.install_p50_ms is None:
            violations.append("no rule was installed")
        summary = {
            "result": result.to_dict(),
            "duration_ms": result.duration_ms,
            "install_ms": [result.install_p50_ms, result.install_p99_ms, result.install_mean_ms],
            "switch": [stats.adds, stats.mods, stats.dels, stats.rejected_adds, stats.total_shifts],
            "peak_occupancy": occupancy.peak,
            "tables": [list(item) for item in result.table_signature],
        }
        counters = {
            "lookups": cache.lookups,
            "hits": cache.hits,
            "punts": cache.punts,
            "evictions": cache.evictions,
            "aggregations": cache.aggregations,
            "rounds": result.rounds,
            "duration_ms": result.duration_ms,
        }
        return OpOutcome(
            items=result.arrivals,
            wall_ns=timer.wall_ns,
            virtual_p50_ms=result.install_p50_ms or 0.0,
            virtual_p99_ms=result.install_p99_ms or 0.0,
            summary=summary,
            violations=violations,
            counters=counters,
        )

    def layer_extras(self, specs: list, outcomes: List[OpOutcome]) -> Dict[str, float]:
        """``serve.loop.lag_ms``: how far the loop's clock ends past the
        last arrival's due time (the backlog), median over the cycle."""
        from repro.serve.stream import FlowRequestStream

        lags = []
        for config, outcome in zip(specs, outcomes):
            last_ms = 0.0
            for arrival in FlowRequestStream(config.stream):
                last_ms = arrival.t_ms
            lags.append(outcome.counters["duration_ms"] - last_ms)
        return {"serve.loop.lag_ms": median(lags)}


class ServeEvict(ServeWorkload):
    """Switch #3 with a 64-rule budget far below the tenants' working
    set; working sets rotate every 60 virtual ms and FDRC admission needs
    two packet-ins, so installs, evictions and aggregation never stop."""

    name = "serve_evict"
    arrivals = 3000
    ops_per_cycle = 12

    def profile(self):
        from repro.switches.profiles import SWITCH_3

        return SWITCH_3

    def config(self, arrivals: int, seed: int):
        from repro.serve import ServeConfig, StreamConfig

        return ServeConfig(
            stream=StreamConfig(
                arrivals=arrivals,
                tenants=16,
                destinations_per_tenant=64,
                rate_per_ms=2.0,
                zipf_skew=1.1,
                tenant_skew=0.6,
                churn_interval_ms=60.0,
                seed=seed,
            ),
            batch_size=32,
            capacity=64,
            admission_threshold=2,
            admission_window_ms=200.0,
            idle_timeout_ms=1000.0,
            maintenance_interval_ms=100.0,
        )


class ServeHit(ServeWorkload):
    """The serve_churn perf profile: one bounded 96-rule LRU layer the
    hot set of 8 tenants mostly fits, working sets that rotate once a
    virtual second, so about three arrivals in four hit (half of them on
    wildcard aggregates) and installs are few."""

    name = "serve_hit"
    arrivals = 5000

    def profile(self):
        from repro.perf.workloads import serve_bench_profile

        return serve_bench_profile()

    def config(self, arrivals: int, seed: int):
        from repro.perf.workloads import SERVE_CHURN_CAPACITY
        from repro.serve import ServeConfig, StreamConfig

        return ServeConfig(
            stream=StreamConfig(
                arrivals=arrivals,
                tenants=8,
                destinations_per_tenant=64,
                rate_per_ms=2.0,
                zipf_skew=1.2,
                tenant_skew=0.6,
                churn_interval_ms=1000.0,
                seed=seed,
            ),
            batch_size=16,
            capacity=SERVE_CHURN_CAPACITY,
            admission_threshold=2,
            admission_window_ms=200.0,
            idle_timeout_ms=1000.0,
            maintenance_interval_ms=100.0,
        )


# -- fleet inference -----------------------------------------------------------------
@dataclass(frozen=True)
class FleetSpec:
    members: tuple
    seed: int


def fleet_members(seed: int, count: int, repeats: int) -> tuple:
    """``count`` fat-tree-named members; ``repeats`` of them reuse the
    profile (so the fingerprint) of another member.

    The distinct profiles are stratified so that every seed draws a
    fleet of the same total probing work: policies cycle FIFO, LRU,
    LIFO, and fast-layer sizes cover 16-48 rules evenly, one random size
    per stratum.  The seed draws the sizes within their strata, the
    layer delays, the pairing of sizes with policies, which profiles
    repeat and the member order.
    """
    from repro.core.fleet import FleetMember
    from repro.sim.rng import SeededRng
    from repro.switches.profiles import make_cache_test_profile
    from repro.tables.policies import FIFO, LIFO, LRU

    rng = SeededRng(seed).child("perfbench:fleet")
    policies = (FIFO, LRU, LIFO)
    distinct = count - repeats
    sizes = [16 + int((index + rng.uniform()) * 33 / distinct) for index in range(distinct)]
    rng.shuffle(sizes)
    profiles = [
        make_cache_test_profile(
            policies[index % len(policies)],
            layer_sizes=(size, None),
            layer_means_ms=(0.4 + rng.uniform(0.0, 0.2), 4.0 + rng.uniform(0.0, 1.0)),
            name=f"vendor{index}",
        )
        for index, size in enumerate(sizes)
    ]
    profiles += [profiles[rng.randint(0, distinct)] for _ in range(repeats)]
    rng.shuffle(profiles)
    members = []
    for index, profile in enumerate(profiles):
        slot = index % 8
        tier = "core" if slot == 0 else ("aggr" if slot < 4 else "edge")
        members.append(FleetMember(name=f"{tier}-{index}", profile=profile))
    return tuple(members)


class FleetProbe(Workload):
    """A cold fleet of 12 switches, 3 of which repeat another member's
    fingerprint; at most 8 probe at once, so repeats either join an
    in-flight probe or hit the model cache.  The probe knobs are the perf
    harness's ``FLEET_BENCH_KNOBS`` (a 192-rule size-probe cap, latency
    batches of 20 and 60), so the latency batches overflow every fast
    layer into the slow one."""

    name = "fleet_probe"
    item = "switches"
    modules = ("repro.core.fleet", "repro.switches.profiles", "repro.perf.workloads")
    ops_per_cycle = 12
    members = 12
    repeats = 3
    max_in_flight = 8

    def inputs(self, seed: int, tiny: bool = False) -> list:
        count, repeats, ops = (4, 1, 2) if tiny else (self.members, self.repeats, self.ops_per_cycle)
        specs = []
        for index in range(ops):
            sub = _sub_seed(seed, f"{self.name}:{index}")
            specs.append(FleetSpec(members=fleet_members(sub, count, repeats), seed=sub))
        return specs

    def run_op(self, spec: FleetSpec, timer: OpTimer) -> OpOutcome:
        from repro.core.fleet import FleetInferenceEngine
        from repro.perf.workloads import FLEET_BENCH_KNOBS

        with timer:
            engine = FleetInferenceEngine(
                spec.members, seed=spec.seed, max_in_flight=self.max_in_flight,
                **FLEET_BENCH_KNOBS,
            )
            result = engine.infer_fleet(include_policy=True)
        names = [member.name for member in spec.members]
        models = result.models
        violations = checks.fleet_violations(names, models)
        size_err = 0.0
        for member in spec.members:
            model = models.get(member.name)
            truth = member.profile.true_layer_sizes[0]
            estimate = model.fast_table_size if model is not None else None
            size_err += 1.0 if estimate is None else abs(estimate - truth) / truth
        finished = [member.finished_ms for member in result.members]
        summary = {
            "makespan_ms": result.makespan_ms,
            "members": [
                [m.name, m.started_ms, m.finished_ms, m.cache_hit, m.coalesced, m.probe_ops,
                 m.model.layer_sizes]
                for m in result.members
            ],
        }
        counters = {
            "members": len(result.members),
            "full_probes": result.full_probe_runs,
            "cache_hits": result.cache_hits,
            "coalesced_joins": result.coalesced_joins,
            "probe_ops": result.probe_ops,
            "size_err_sum": size_err,
        }
        return OpOutcome(
            items=len(result.members),
            wall_ns=timer.wall_ns,
            virtual_p50_ms=percentile(finished, 50.0),
            virtual_p99_ms=percentile(finished, 99.0),
            summary=summary,
            violations=violations,
            counters=counters,
        )


# -- network update ------------------------------------------------------------------
#: Flows per site pair.  The paper's Fig. 12 update (~2.2k requests) uses
#: 12, about 1.2 s per update at the parent commit; 6 gives ~1.25k
#: requests and ~0.5 s, so a 25 s run repeats each of the cycle's 16
#: updates at least twice.
FLOWS_PER_PAIR = 6


@dataclass(frozen=True)
class UpdateSpec:
    before: dict
    after: dict
    seed: int


def traffic_change(topology, rng, pairs: int, shared: int) -> Tuple[dict, dict]:
    """A traffic-matrix change: about ``pairs`` site pairs before and
    after, about ``shared`` of them in both; demands total 300 before and
    360 after.

    Pairs are drawn per shortest-path length, each length getting its
    share of the pairs, so every seed's update has the same mix of path
    lengths and nearly the same number of requests.  The seed picks the
    pairs within each length and the per-pair demand weights.
    """
    by_length: Dict[int, list] = {}
    for a in topology.switches:
        for b in topology.switches:
            if a != b:
                by_length.setdefault(len(topology.shortest_path(a, b)), []).append((a, b))
    total = sum(len(group) for group in by_length.values())
    before, after = [], []
    for length in sorted(by_length):
        group = sorted(by_length[length])
        rng.shuffle(group)
        both = round(shared * len(group) / total)
        fresh = round((pairs - shared) * len(group) / total)
        before += group[: fresh + both]
        after += group[fresh : 2 * fresh + both]
    matrices = []
    for chosen, demand in ((before, 300.0), (after, 360.0)):
        weights = [rng.uniform(0.5, 1.5) for _ in chosen]
        scale = demand / sum(weights)
        matrices.append({pair: weight * scale for pair, weight in zip(chosen, weights)})
    return matrices[0], matrices[1]


def consistency_edges(requests) -> List[Tuple[int, int]]:
    """The dependency edges a consistent update needs, derived from the
    requests alone rather than from the DAG under test.

    A flow's requests share one match and one command and are created
    ingress to egress, so request-id order is path order.  Installs and
    modifies must complete egress first; deletes drain from the ingress.
    """
    from repro.openflow.messages import FlowModCommand

    chains: Dict[tuple, List[int]] = {}
    for request in requests:
        key = (request.command, request.match.key(), request.priority)
        chains.setdefault(key, []).append(request.request_id)
    edges = []
    for (command, _, _), ids in chains.items():
        ids.sort()
        for upstream, downstream in zip(ids, ids[1:]):
            if command is FlowModCommand.DELETE:
                edges.append((upstream, downstream))
            else:
                edges.append((downstream, upstream))
    return edges


class TeUpdate(Workload):
    """One B4 traffic-matrix change per op: 39 site pairs before and
    after, 13 in both (the shape of the paper's 30%-sparse matrices),
    max-min fair allocation diff into path-consistent ADD/MODIFY/DELETE
    chains, scheduled by Tango over 12 OVS switches."""

    name = "te_update"
    item = "requests"
    modules = ("repro.netem.scenarios", "repro.netem.network", "repro.core.scheduler")
    ops_per_cycle = 16

    def inputs(self, seed: int, tiny: bool = False) -> list:
        from repro.netem.topology import b4_topology
        from repro.sim.rng import SeededRng

        topology = b4_topology()
        pairs, shared = (6, 2) if tiny else (39, 13)
        specs = []
        for index in range(2 if tiny else self.ops_per_cycle):
            sub = _sub_seed(seed, f"{self.name}:{index}")
            before, after = traffic_change(
                topology, SeededRng(sub).child("perfbench:te"), pairs, shared
            )
            specs.append(UpdateSpec(before=before, after=after, seed=sub))
        return specs

    def run_op(self, spec: UpdateSpec, timer: OpTimer) -> OpOutcome:
        from repro.core.scheduler import BasicTangoScheduler
        from repro.netem.network import EmulatedNetwork
        from repro.netem.scenarios import TrafficEngineeringScenario
        from repro.netem.topology import b4_topology
        from repro.switches.profiles import OVS_PROFILE

        network = EmulatedNetwork(b4_topology(), default_profile=OVS_PROFILE, seed=spec.seed)
        with timer:
            scenario = TrafficEngineeringScenario(network, seed=spec.seed + 1)
            update = scenario.from_traffic_matrices(
                spec.before, spec.after, flows_per_pair=FLOWS_PER_PAIR
            )
            scheduler = BasicTangoScheduler(network.executor())
            schedule = scheduler.schedule(update.dag)
        dag = update.dag
        expected = consistency_edges(dag.requests)
        built = dag.edge_ids()
        violations = checks.missing_edges(expected, built)
        violations += checks.schedule_violations(
            [request.request_id for request in dag.requests], expected, schedule.records
        )
        epoch = scheduler.executor.epoch_ms
        done = [record.finished_ms - epoch for record in schedule.records]
        summary = {
            "makespan_ms": schedule.makespan_ms,
            "rounds": schedule.rounds,
            "patterns": schedule.pattern_choices,
            "edges": [len(built), digest(sorted(built))],
            "records": [
                [r.request.request_id, r.started_ms, r.finished_ms] for r in schedule.records
            ],
        }
        counters = {
            "requests": update.total,
            "rounds": schedule.rounds,
        }
        return OpOutcome(
            items=update.total,
            wall_ns=timer.wall_ns,
            virtual_p50_ms=percentile(done, 50.0),
            virtual_p99_ms=percentile(done, 99.0),
            summary=summary,
            violations=violations,
            counters=counters,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (ServeEvict(), ServeHit(), FleetProbe(), TeUpdate())
}

