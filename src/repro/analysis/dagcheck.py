"""Static verification of switch-request DAGs before scheduling.

The scheduler will happily consume any :class:`~repro.core.requests.RequestDag`
an application hands it; this checker catches plans that can never
execute correctly, *before* the first ``flow_mod`` leaves the controller:

* **TNG010 dependency cycle** — the dependency graph is not acyclic, so
  the scheduler would deadlock ("DAG not done but no independent
  requests").
* **TNG011 orphan barrier** — a DELETE that other requests wait on (a
  barrier in the negation idiom) whose match selects nothing any ADD in
  the DAG installs and nothing listed as pre-existing: the gate is
  vacuous and probably a stale plan fragment.
* **TNG012 deadline infeasible** — a request's ``install_by`` deadline
  is earlier than two scheduler-independent lower bounds on its finish
  time derived from a duration estimator (Tango latency curves): its
  dependency-chain length, and the serial work any single switch must
  complete by each of its deadlines (EDF feasibility).
* **TNG013 guard-time violation** — under
  :class:`~repro.core.scheduler.ConcurrentTangoScheduler` semantics, a
  dependent request whose estimated duration exceeds its dependency's
  duration plus the guard would be released *before its dependency even
  starts*; the weak-consistency guarantee then rests entirely on the
  accuracy of the estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.core.requests import RequestDag, SwitchRequest
from repro.core.scheduler import DurationEstimator
from repro.openflow.messages import FlowModCommand


def check_dag(
    dag: RequestDag,
    estimate: Optional[DurationEstimator] = None,
    guard_ms: Optional[float] = None,
    existing: Sequence[Tuple] = (),
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """Run every DAG check that the supplied knowledge enables.

    Args:
        dag: the request DAG about to be scheduled.
        estimate: optional per-request duration estimator (ms); enables
            the TNG012 deadline-feasibility bounds.
        guard_ms: optional concurrent-dispatch guard interval; enables
            the TNG013 early-release check (needs ``estimate`` too).
        existing: ``(location, match, priority)`` triples of rules
            already resident in the network, consulted by the orphan-
            barrier check.
        report: optional report to append to.
    """
    report = report if report is not None else DiagnosticReport()
    acyclic = _check_acyclic(dag, report)
    _check_orphan_barriers(dag, existing, report)
    if estimate is not None and acyclic:
        _check_deadlines(dag, estimate, report)
        if guard_ms is not None:
            _check_guard_times(dag, estimate, guard_ms, report)
    return report


# -- TNG010 ------------------------------------------------------------------
def _check_acyclic(dag: RequestDag, report: DiagnosticReport) -> bool:
    if dag.is_acyclic():
        return True
    members = dag.find_cycle_ids()
    path = " -> ".join(str(m) for m in members + members[:1])
    report.add(
        "TNG010",
        Severity.ERROR,
        f"dependency cycle over requests {path}; the scheduler can never "
        "release them",
        location=f"requests {', '.join(str(m) for m in members)}",
        hint="break the loop (e.g. split the update into two rounds)",
    )
    return False


# -- TNG011 ------------------------------------------------------------------
def _check_orphan_barriers(
    dag: RequestDag, existing: Sequence[Tuple], report: DiagnosticReport
) -> None:
    adds_by_location: Dict[str, List[SwitchRequest]] = {}
    for request in dag.requests:
        if request.command is FlowModCommand.ADD:
            adds_by_location.setdefault(request.location, []).append(request)

    existing_by_location: Dict[str, List[Tuple]] = {}
    for location, match, priority in existing:
        existing_by_location.setdefault(location, []).append((match, priority))

    for request in dag.requests:
        if request.command is not FlowModCommand.DELETE:
            continue
        if not dag.successor_ids(request.request_id):
            continue
        selects_add = any(
            add.priority == request.priority and request.match.covers(add.match)
            for add in adds_by_location.get(request.location, ())
        )
        selects_existing = any(
            priority == request.priority and request.match.covers(match)
            for match, priority in existing_by_location.get(request.location, ())
        )
        if not (selects_add or selects_existing):
            dependents = sorted(dag.successor_ids(request.request_id))
            report.add(
                "TNG011",
                Severity.WARNING,
                f"request {request.request_id} gates requests "
                f"{dependents} but DELETEs a rule (priority "
                f"{request.priority}) that nothing in the DAG installs",
                location=request.location,
                hint="add the barrier's ADD to the DAG, or list the rule "
                "in existing= if it is already on the switch",
            )


# -- TNG012 ------------------------------------------------------------------
def _check_deadlines(
    dag: RequestDag, estimate: DurationEstimator, report: DiagnosticReport
) -> None:
    requests = {r.request_id: r for r in dag.requests}
    durations = {rid: max(0.0, estimate(r)) for rid, r in requests.items()}

    # Bound 1: dependency-chain critical path.  Every request must wait
    # for its whole ancestor chain, whatever the scheduler does.
    earliest_finish: Dict[int, float] = {}
    for rid in dag.topological_order():
        dep_bound = max(
            (earliest_finish[p] for p in dag.predecessor_ids(rid)), default=0.0
        )
        earliest_finish[rid] = dep_bound + durations[rid]

    for rid, request in requests.items():
        deadline = request.install_by_ms
        if deadline is not None and earliest_finish[rid] > deadline:
            report.add(
                "TNG012",
                Severity.ERROR,
                f"request {rid} has install_by={deadline:g} ms but its "
                f"dependency chain alone needs "
                f"{earliest_finish[rid]:g} ms",
                location=request.location,
                hint="relax the deadline or shorten the dependency chain",
            )

    # Bound 2: per-switch EDF feasibility.  All requests on one switch
    # serialise, so the work due by each deadline must fit before it.
    by_location: Dict[str, List[SwitchRequest]] = {}
    for request in requests.values():
        by_location.setdefault(request.location, []).append(request)
    for location, switch_requests in sorted(by_location.items()):
        dated = sorted(
            (r for r in switch_requests if r.install_by_ms is not None),
            key=lambda r: (r.install_by_ms, r.request_id),
        )
        cumulative = 0.0
        for request in dated:
            cumulative += durations[request.request_id]
            deadline = request.install_by_ms
            assert deadline is not None
            if cumulative > deadline and earliest_finish[
                request.request_id
            ] <= deadline:
                report.add(
                    "TNG012",
                    Severity.ERROR,
                    f"switch must finish {cumulative:g} ms of estimated "
                    f"work by request {request.request_id}'s deadline "
                    f"({deadline:g} ms); requests due earlier already "
                    "oversubscribe it",
                    location=location,
                    hint="spread the deadlines or move requests to "
                    "another switch",
                )


# -- TNG013 ------------------------------------------------------------------
def _check_guard_times(
    dag: RequestDag,
    estimate: DurationEstimator,
    guard_ms: float,
    report: DiagnosticReport,
) -> None:
    requests = {r.request_id: r for r in dag.requests}
    for first_id, then_id in sorted(dag.edge_ids()):
        first, then = requests[first_id], requests[then_id]
        if first.location == then.location:
            continue  # the switch itself serialises same-switch requests
        first_ms = max(0.0, estimate(first))
        then_ms = max(0.0, estimate(then))
        if then_ms > first_ms + guard_ms:
            report.add(
                "TNG013",
                Severity.WARNING,
                f"request {then_id} (est {then_ms:g} ms) depends on "
                f"request {first_id} (est {first_ms:g} ms); with guard "
                f"{guard_ms:g} ms it would be released "
                f"{then_ms - first_ms - guard_ms:g} ms before its "
                "dependency starts",
                location=then.location,
                hint="raise guard_ms or fall back to barrier dispatch for "
                "this edge",
            )
