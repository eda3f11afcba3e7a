"""Naive issue-order baselines for the single-switch experiments.

Figures 8 and 9 compare priority assignments crossed with installation
orders; the "random order" arms are produced by these schedulers.  Both
run :class:`~repro.core.scheduler.BasicTangoScheduler`'s issue loop
(fault deferral included) and replace only the batch order.
"""

from __future__ import annotations

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    NetworkExecutor,
    NextBatch,
    ScheduleResult,
)
from repro.sim.rng import SeededRng


class RandomOrderScheduler(BasicTangoScheduler):
    """Issues each independent set in a (seeded) random order."""

    def __init__(self, executor: NetworkExecutor, seed: int = 0) -> None:
        super().__init__(executor)
        self._rng = SeededRng(seed).child("random-order")

    def _next_batch(self, dag: RequestDag, result: ScheduleResult) -> NextBatch:
        shuffled = dag.independent_requests()
        self._rng.shuffle(shuffled)
        return shuffled, shuffled, {"policy": "random"}


class FifoOrderScheduler(BasicTangoScheduler):
    """Issues each independent set in request-creation order."""

    def __init__(self, executor: NetworkExecutor) -> None:
        super().__init__(executor)

    def _next_batch(self, dag: RequestDag, result: ScheduleResult) -> NextBatch:
        ordered = sorted(dag.independent_requests(), key=lambda r: r.request_id)
        return ordered, ordered, {"policy": "fifo"}
