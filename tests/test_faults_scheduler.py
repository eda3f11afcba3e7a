"""Fault-tolerant scheduling: deferral, re-planning, deadline attribution."""

import pytest

from repro.baselines import DionysusScheduler, FifoOrderScheduler, RandomOrderScheduler
from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    DeadlineAwareTangoScheduler,
    NetworkExecutor,
    PrefixTangoScheduler,
)
from repro.faults import DisconnectWindow, FaultInjector, FaultPlan
from repro.netem.scenarios import FAULT_SCENARIOS, LinkFailureScenario
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.perf.reference import ReferenceBasicTangoScheduler
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer
from repro.tools.cli import _triangle_testbed


def _switch(name, add=1.0):
    return SimulatedSwitch(
        name=name,
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=add,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.5,
            del_ms=0.25,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _executor(plan=None, *names, add=1.0):
    names = names or ("sw",)
    channels = {
        name: ControlChannel(_switch(name, add=add), rtt=ConstantLatency(0.0))
        for name in names
    }
    injector = FaultInjector(plan) if plan is not None else None
    executor = NetworkExecutor(channels, fault_injector=injector)
    return executor, injector


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _chain(n, location="sw", install_by=None):
    dag = RequestDag()
    previous = None
    for i in range(n):
        request = dag.new_request(
            location,
            FlowModCommand.ADD,
            _match(i),
            priority=i + 1,
            after=[previous] if previous is not None else [],
            install_by_ms=install_by,
        )
        previous = request
    return dag


DISCONNECT_PLAN = FaultPlan(disconnects=(DisconnectWindow(0.0, 50.0),))


# -- deferral and re-planning -------------------------------------------------
def test_deferred_request_stays_in_dag_and_completes():
    executor, injector = _executor(DISCONNECT_PLAN)
    dag = _chain(3)
    result = BasicTangoScheduler(executor).schedule(dag)
    assert dag.is_done()
    assert len(result.records) == 3
    # The first request was deferred once by the outage, then retried
    # once the reconnect hold expired.
    assert result.fault_retries >= 1
    assert result.faulted_request_ids
    first = result.records[0]
    assert first.started_ms >= 50.0  # held until the window closed
    assert injector.injection_counts()["disconnects"] == result.fault_retries


def test_deferral_adds_rounds_not_records():
    executor, _ = _executor(DISCONNECT_PLAN)
    dag = _chain(2)
    result = BasicTangoScheduler(executor).schedule(dag)
    # Round 1 deferred request 0; rounds 2-3 issued the chain.
    assert result.rounds >= 2
    ids = [record.request.request_id for record in result.records]
    assert ids == sorted(ids)  # chain order preserved across re-planning


def test_loss_faults_defer_and_eventually_succeed():
    plan = FaultPlan(seed=5, loss_probability=0.4)
    executor, injector = _executor(plan)
    result = BasicTangoScheduler(executor).schedule(_chain(30))
    assert len(result.records) == 30
    assert result.fault_retries == injector.injection_counts()["losses"]
    assert result.fault_retries > 0


def test_fault_deferral_cap_raises():
    plan = FaultPlan(seed=1, loss_probability=0.9)
    executor, _ = _executor(plan)
    scheduler = BasicTangoScheduler(executor)
    scheduler.MAX_FAULT_DEFERRALS = 2
    with pytest.raises(RuntimeError, match="deferred"):
        scheduler.schedule(_chain(1))


def test_zero_fault_plan_reports_no_retries():
    executor, injector = _executor(FaultPlan())
    result = BasicTangoScheduler(executor).schedule(_chain(10))
    assert result.fault_retries == 0
    assert result.faulted_request_ids == set()
    assert all(v == 0 for v in injector.injection_counts().values())


# -- deadline attribution -----------------------------------------------------
def test_deadline_miss_attributed_to_fault():
    executor, _ = _executor(DISCONNECT_PLAN)
    dag = _chain(1, install_by=20.0)  # feasible without the outage
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.deadline_misses == 1
    assert result.deadline_misses_fault == 1
    assert result.deadline_misses_schedule == 0


def test_deadline_miss_attributed_to_schedule_without_faults():
    executor, _ = _executor(None)
    dag = _chain(6, install_by=2.0)  # ~1 ms per request: the tail must miss
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.deadline_misses > 0
    assert result.deadline_misses_fault == 0
    assert result.deadline_misses_schedule == result.deadline_misses


# -- every scheduler survives faults ------------------------------------------
def _all_schedulers(executor):
    return [
        BasicTangoScheduler(executor),
        PrefixTangoScheduler(executor, estimate=lambda r: 1.0),
        DeadlineAwareTangoScheduler(executor, estimate=lambda r: 1.0),
        ConcurrentTangoScheduler(executor, estimate=lambda r: 1.0, guard_ms=2.0),
    ]


@pytest.mark.parametrize("index", range(4))
def test_each_scheduler_completes_under_chaos(index):
    plan = FaultPlan(
        seed=13,
        loss_probability=0.15,
        disconnects=(DisconnectWindow(5.0, 40.0),),
    )
    executor, _ = _executor(plan, "a", "b")
    dag = RequestDag()
    previous = None
    for i in range(20):
        request = dag.new_request(
            "a" if i % 2 else "b",
            FlowModCommand.ADD,
            _match(i),
            priority=i + 1,
            after=[previous] if previous is not None and i % 3 == 0 else [],
        )
        previous = request
    scheduler = _all_schedulers(executor)[index]
    result = scheduler.schedule(dag)
    assert dag.is_done()
    assert len(result.records) == 20
    assert result.fault_retries > 0


@pytest.mark.parametrize("index", range(4))
def test_each_scheduler_is_seed_deterministic_under_faults(index):
    plan = FaultPlan(seed=21, loss_probability=0.2)

    def run():
        executor, _ = _executor(plan, "a", "b")
        dag = RequestDag()
        for i in range(25):
            dag.new_request(
                "a" if i % 2 else "b", FlowModCommand.ADD, _match(i), priority=i + 1
            )
        result = _all_schedulers(executor)[index].schedule(dag)
        return (
            result.makespan_ms,
            result.rounds,
            result.fault_retries,
            tuple(
                (r.request.request_id, r.started_ms, r.finished_ms)
                for r in result.records
            ),
        )

    assert run() == run()


# -- concurrent guard under fault re-enqueue ----------------------------------
def test_concurrent_guard_survives_fault_reenqueue():
    """Regression (guard-time anchor audit): a dependent deferred by a
    fault must still respect ``dep_finish + guard`` when retried in a
    later batch — the anchor is recomputed from ``finish_times``, not
    forgotten with the failed attempt."""
    plan = FaultPlan(disconnects=(DisconnectWindow(0.0, 30.0, switch="down"),))
    executor, _ = _executor(plan, "fast", "down")
    dag = RequestDag()
    parent = dag.new_request("fast", FlowModCommand.ADD, _match(1), priority=1)
    child = dag.new_request(
        "down", FlowModCommand.ADD, _match(2), priority=2, after=[parent]
    )
    estimates = {parent.request_id: 1.0, child.request_id: 10.0}
    result = ConcurrentTangoScheduler(
        executor, estimate=lambda r: estimates[r.request_id], guard_ms=5.0
    ).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    parent_finish = records[parent.request_id].finished_ms
    child_record = records[child.request_id]
    assert child.request_id in result.faulted_request_ids
    assert child_record.started_ms >= 30.0  # held until reconnect
    # Guard invariant survives the re-enqueue.
    assert child_record.finished_ms >= parent_finish + 5.0 - 1e-6


def test_concurrent_epoch_anchor_with_fault_on_reused_executor():
    """Dependency-free retries still anchor guard math at the (positive)
    epoch of a reused executor, composed with a fault hold."""
    executor, _ = _executor(None, "a")
    scheduler = ConcurrentTangoScheduler(
        executor, estimate=lambda r: 1.0, guard_ms=50.0
    )
    scheduler.schedule(_chain(3, location="a"))  # advances the epoch
    epoch_before = executor.now_ms()

    plan = FaultPlan(
        disconnects=(DisconnectWindow(0.0, epoch_before + 60.0),)
    )
    executor2, _ = _executor(plan, "a")
    executor2.channels["a"].clock.advance(epoch_before)
    scheduler2 = ConcurrentTangoScheduler(
        executor2, estimate=lambda r: 1.0, guard_ms=50.0
    )
    dag = _chain(1, location="a")
    result = scheduler2.schedule(dag)
    record = result.records[0]
    assert executor2.epoch_ms > 0.0
    # Both constraints hold: the reconnect hold and the epoch-anchored guard.
    assert record.started_ms >= epoch_before + 60.0 - 1e-6
    assert record.started_ms >= executor2.epoch_ms + 50.0 - 1.0 - 1e-6


# -- prefix commit discipline -------------------------------------------------
def test_prefix_scheduler_replans_faulted_requests():
    plan = FaultPlan(seed=2, loss_probability=0.3)
    executor, _ = _executor(plan, "a", "b")
    dag = RequestDag()
    blocker = dag.new_request("a", FlowModCommand.ADD, _match(0), priority=1)
    for i in range(1, 6):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    for i in range(6, 12):
        dag.new_request(
            "b", FlowModCommand.ADD, _match(i), priority=i, after=[blocker]
        )
    result = PrefixTangoScheduler(executor, estimate=lambda r: 1.0).schedule(dag)
    assert dag.is_done()
    assert len(result.records) == 12
    assert result.fault_retries > 0


# -- every scheduler, baselines included, on the faulted LF testbed ------------
def _flat_estimate(request):
    return 1.0


ALL_SCHEDULERS = {
    "basic": BasicTangoScheduler,
    "prefix": lambda ex: PrefixTangoScheduler(ex, estimate=_flat_estimate),
    "deadline": lambda ex: DeadlineAwareTangoScheduler(ex, estimate=_flat_estimate),
    "concurrent": lambda ex: ConcurrentTangoScheduler(ex, estimate=_flat_estimate),
    "dionysus": DionysusScheduler,
    "random": lambda ex: RandomOrderScheduler(ex, seed=3),
    "fifo": FifoOrderScheduler,
    "reference": ReferenceBasicTangoScheduler,
}


def _link_failure_schedule(name, fault_scenario=None):
    """Schedule the 200-flow link-failure update on the triangle testbed."""
    network = _triangle_testbed(0, 200)
    dag = LinkFailureScenario(network, ("s1", "s2")).build_dag().dag
    injector = (
        FaultInjector(FAULT_SCENARIOS[fault_scenario].plan(0))
        if fault_scenario is not None
        else None
    )
    executor = network.executor(fault_injector=injector)
    return dag, ALL_SCHEDULERS[name](executor).schedule(dag)


def _signature(result):
    return (
        [(r.request.request_id, r.started_ms, r.finished_ms) for r in result.records],
        result.makespan_ms,
        result.rounds,
        result.pattern_choices,
        result.deadline_misses,
        result.fault_retries,
    )


@pytest.mark.parametrize("fault_scenario", ["lossy", "reject", "chaos"])
@pytest.mark.parametrize("name", sorted(ALL_SCHEDULERS))
def test_every_scheduler_completes_under_injected_faults(name, fault_scenario):
    dag, result = _link_failure_schedule(name, fault_scenario)
    issued = [record.request.request_id for record in result.records]
    assert dag.is_done()
    assert sorted(issued) == sorted(request.request_id for request in dag.requests)
    assert len(set(issued)) == len(issued)
    assert result.fault_retries > 0


@pytest.mark.parametrize("name", sorted(ALL_SCHEDULERS))
def test_every_scheduler_is_unchanged_by_a_fault_free_injector(name):
    _, bare = _link_failure_schedule(name)
    _, injected = _link_failure_schedule(name, "none")
    assert _signature(injected) == _signature(bare)


@pytest.mark.parametrize("fault_scenario", ["lossy", "reject", "chaos"])
def test_reference_scheduler_matches_basic_under_injected_faults(fault_scenario):
    _, basic = _link_failure_schedule("basic", fault_scenario)
    _, reference = _link_failure_schedule("reference", fault_scenario)
    assert basic.fault_retries > 0
    assert _signature(reference) == _signature(basic)
