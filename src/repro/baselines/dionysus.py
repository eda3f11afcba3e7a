"""Dionysus-style critical-path update scheduling.

Dionysus [Jin et al., SIGCOMM 2014] models a network update as a
dependency graph and repeatedly schedules the ready operation with the
greatest critical-path length, so that long chains start as early as
possible.  It reacts to runtime speeds (an op is issued the moment its
switch frees up) but is *switch-diversity oblivious*: it does not know
that deletions are cheaper than additions on a given switch, nor that
addition cost depends on priority order -- the gap Tango exploits
(paper Section 7.2).
"""

from __future__ import annotations

from typing import Dict

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    NetworkExecutor,
    NextBatch,
    ScheduleResult,
)


class DionysusScheduler(BasicTangoScheduler):
    """Critical-path list scheduler over the request DAG.

    Runs :class:`~repro.core.scheduler.BasicTangoScheduler`'s issue loop
    (fault deferral included) and replaces only the batch order: the
    pattern oracle is never consulted, and each round's span is tagged
    ``policy="critical_path"`` instead of a pattern.

    Args:
        executor: network executor bound to the target switches.
    """

    def __init__(self, executor: NetworkExecutor) -> None:
        super().__init__(executor)

    def _begin_schedule(self, dag: RequestDag) -> ScheduleResult:
        result = super()._begin_schedule(dag)
        # Cached on the DAG: repeated runs over the same structure (the
        # common A/B-comparison pattern) pay the longest-path sweep once.
        self._critical: Dict[int, int] = dag.critical_path_lengths()
        return result

    def _next_batch(self, dag: RequestDag, result: ScheduleResult) -> NextBatch:
        critical = self._critical
        ready = dag.independent_requests()
        # Longest critical path first; FIFO within ties (Dionysus has
        # no notion of rule-type or priority-order cost).
        ready.sort(key=lambda r: (-critical[r.request_id], r.request_id))
        return ready, ready, {"policy": "critical_path"}
