"""Pre-optimization reference implementations (the bench's slow arm).

These preserve the *algorithms* this PR's hot-path work replaced, built
on the DAG's public query API so they stay runnable as the internals
evolve.  Each tallies its work in a deterministic operation counter;
``tango-bench`` runs them next to the optimized implementations and
asserts the results are bit-for-bit identical.

* :class:`ReferenceBasicTangoScheduler` -- Algorithm 3 with the original
  per-round full rescan: every round walks all V requests and their
  in-edges to recover the independent set, making chain-shaped DAGs
  O(V * (V + E)).
* :class:`_ReferencePrefixPlanner` /
  :class:`ReferencePrefixTangoScheduler` -- the retired recursive
  prefix planner, whose depth-0 estimate greedily re-simulates the
  *entire remaining DAG* per plan node (and whose scheduling loop
  re-derives and re-sorts the full ready set every round), making the
  unlock workload ~O(n^2).  The incremental
  :class:`~repro.core.planner.TailCostPlanner` replaced it; the
  differential suite pins both to byte-identical decisions and
  schedules.
* :class:`SortedListShiftModel` (re-exported from
  :mod:`repro.tables.tcam`) -- the O(n)-per-op priority-sorted list the
  Fenwick tree replaced.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.core.requests import ReadySimulation, RequestDag, SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    NextBatch,
    PrefixTangoScheduler,
    ScheduleResult,
    _batch_estimate_ms,
)
from repro.tables.tcam import SortedListShiftModel

__all__ = [
    "ReferenceBasicTangoScheduler",
    "ReferencePrefixTangoScheduler",
    "_ReferencePrefixPlanner",
    "SortedListShiftModel",
]

#: The quadratic reference prefix arm is not run beyond this size.
PREFIX_REFERENCE_CAP = 2000


class ReferenceBasicTangoScheduler(BasicTangoScheduler):
    """Greedy pattern-oracle scheduling with per-round ready rescans.

    Identical issue order, timings, and pattern choices to
    :class:`~repro.core.scheduler.BasicTangoScheduler`; only the ready-set
    discovery differs: ``_next_batch`` rescans, and the shared loop
    (fault deferral included) does the rest.  ``scan_ops`` counts
    requests and in-edges visited by the rescans -- the work the
    incremental ready set eliminated.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scan_ops = 0

    def _scan_independent(
        self, dag: RequestDag, done: AbstractSet[int]
    ) -> List[SwitchRequest]:
        """The historical O(V + E) scan: check every request's in-edges."""
        ready: List[SwitchRequest] = []
        for request in dag.requests:
            rid = request.request_id
            if rid in done:
                continue
            predecessors = dag.predecessor_ids(rid)
            self.scan_ops += 1 + len(predecessors)
            if all(p in done for p in predecessors):
                ready.append(request)
        return ready

    def _next_batch(self, dag: RequestDag, result: ScheduleResult) -> NextBatch:
        pattern, ordered = self.oracle.choose(self._scan_independent(dag, dag.done_ids))
        result.pattern_choices.append(pattern.name)
        return ordered, ordered, {"pattern": pattern.name}


class _ReferencePrefixPlanner:
    """The retired recursive prefix planner (pre tail-cost-cache).

    Kept verbatim as the differential oracle, mirroring the
    ``SortedListShiftModel`` pattern: its depth-0 branch batches
    greedily to completion by *walking the whole remaining DAG* --
    re-deriving and re-sorting every successive ready set -- once per
    plan node, and its depth>0 branch rebuilds per-prefix makespan
    estimates from scratch for every candidate cut.
    """

    def __init__(self, scheduler: "PrefixTangoScheduler") -> None:
        self._scheduler = scheduler

    def plan(
        self, sim: ReadySimulation, depth: int
    ) -> Tuple[float, Optional[int]]:
        scheduler = self._scheduler
        dag = sim.dag
        ready = sim.ready()
        if not ready:
            return 0.0, None
        _, ordered = scheduler.oracle.choose(ready)

        if depth <= 0:
            # Greedy full batches to completion, iteratively (a deep
            # recursion here would overflow on chain-shaped DAGs).
            first_cut = len(ordered)
            total = 0.0
            frames = 0
            while ready:
                total += _batch_estimate_ms(scheduler.estimate, ordered)
                sim.complete([r.request_id for r in ordered])
                frames += 1
                ready = sim.ready()
                if ready:
                    _, ordered = scheduler.oracle.choose(ready)
            for _ in range(frames):
                sim.undo()
            return total, first_cut

        best_cost = float("inf")
        best_cut: Optional[int] = None
        for cut in scheduler._candidate_cuts(dag, ordered) + [len(ordered)]:
            prefix = ordered[:cut]
            sim.complete([r.request_id for r in prefix])
            rest, _ = self.plan(sim, depth - 1)
            sim.undo()
            cost = _batch_estimate_ms(scheduler.estimate, prefix) + rest
            if cost < best_cost:
                best_cost = cost
                best_cut = cut
        return best_cost, best_cut


class ReferencePrefixTangoScheduler(PrefixTangoScheduler):
    """Prefix scheduling with the retired recursive planner.

    Identical schedules (issue order, timings, rounds, pattern choices)
    to :class:`~repro.core.scheduler.PrefixTangoScheduler`; only the
    planning machinery differs.  Rounds are planned the retired way
    too: each pays a full ``independent_requests`` + ``oracle.choose``
    pass on top of the planner's greedy re-walks, so ``dag.ops``
    counts the quadratic work the incremental planner eliminated.
    """

    def _plan(
        self, sim: ReadySimulation, depth: int
    ) -> Tuple[float, Optional[int]]:
        return _ReferencePrefixPlanner(self).plan(sim, depth)

    def _begin_schedule(self, dag: RequestDag) -> ScheduleResult:
        # The retired loop's state: a bare cursor, no tail-cost planner.
        result = BasicTangoScheduler._begin_schedule(self, dag)
        self._sim = dag.simulation(dag.done_ids)
        return result

    def _next_batch(self, dag: RequestDag, result: ScheduleResult) -> NextBatch:
        ordered, _, attrs = BasicTangoScheduler._next_batch(self, dag, result)
        _, cut = self._plan(self._sim, self.lookahead_depth)
        issue_now = ordered[: self._resolve_cut(cut, len(ordered))]
        attrs.update(ready=len(ordered), cut=len(issue_now))
        return issue_now, issue_now, attrs

    def _committed(self, issued: Sequence[SwitchRequest]) -> None:
        self._sim.commit(r.request_id for r in issued)
