"""Sharded fleet inference across worker processes.

:class:`ShardedFleetEngine` is a
:class:`~repro.core.fleet.FleetInferenceEngine` that can partition the
fleet across N worker processes.  There is one fleet event loop: each
worker runs the ordinary engine's
:meth:`~repro.core.fleet.FleetInferenceEngine.infer_fleet` over its own
members, and this module only ships members out and merges the
per-shard record streams back into one byte-identical global order.
When the partition leaves a single non-empty shard the merge would be
the identity, so that run *is* the ordinary engine, writing straight
into the caller's database.

**The merge protocol.**  A worker plugs a journal into the engine's
sanitizer seam (``Observer(sanitizer=journal)``), which hands it what
the race sanitizer gets: a simulator that records
:class:`~repro.sim.events.ProvenanceRecorder` parent links, and the
member each callback runs for.  The journal keeps
every score-database put made inside an event, tagged with the event
and that member.  An event's *scheduling chain* is the virtual times of
its scheduling ancestors, root first, read off the parent links.  The
single queue runs events in ``(time, push sequence)`` order, and
because every member is admitted at time zero in member order, that is
exactly the lexicographic order of ``(reversed(chain), member index)``
(shorter prefix first).  The merge sorts every shard's event batches by
that key and replays them into the caller's database, so the merged
record stream -- values, timestamps, provenance and insertion order --
is byte-identical to a single-queue run at every shard count and
partition.  Each member's seed is pinned to ``seed + global index``
before it ships, so seeding does not depend on the partition either.

**Cross-shard single-flight.**  Workers coalesce same-fingerprint
members locally, and the merge extends that across shards: the global
leader of a fingerprint is its lowest-indexed cold member, duplicate
leaders from other shards are dropped (counted as cross-shard coalesce
hits, their probe ops as waste), and the leader's completion batch
gains the global waiter set in member order -- the records a single
queue would have written.

**What sharding gives up.**  With more than one shard, admission is
unbounded (every member admits at time zero) and no observer crosses
the worker boundary, so ``max_in_flight`` and a live observer raise
:class:`ValueError`; run one shard to use them.
Duplicate leaders on different shards each probe in full before the
merge keeps one.  Everything crossing the worker boundary -- members,
fault plans, retry policies, warm cache records, member results --
travels by pickle, so the ``process`` backend is spawn-safe.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.racecheck import RaceSanitizer
from repro.core.fleet import (
    FLEET_DB_SWITCH,
    MODEL_CACHE_METRIC,
    FleetInferenceEngine,
    FleetMember,
    FleetMemberResult,
    FleetResult,
)
from repro.core.placement import PARTITION_STRATEGIES, partition_names
from repro.core.scores import ScoreKey, ScoreRecord, TangoScoreDatabase
from repro.faults.injector import FaultInjector
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.switches.profiles import SwitchProfile

#: Execution backends: ``inline`` runs every shard sequentially in this
#: process (deterministic tests, op-count benches); ``process`` fans out
#: over a ``multiprocessing`` pool.
SHARD_BACKENDS: Tuple[str, ...] = ("inline", "process")

class _Batch(NamedTuple):
    """The puts one event made on behalf of one member.

    The merge replays batches in ``(key, member)`` order.
    """

    key: Tuple[float, ...]  # the event's scheduling chain, newest first
    member: int  # global member index
    records: Tuple[ScoreRecord, ...]


def _put(scores: TangoScoreDatabase, record: ScoreRecord) -> None:
    """Write ``record`` into ``scores`` under its own key."""
    scores.put(
        record.key.switch,
        record.key.metric,
        record.value,
        recorded_at_ms=record.recorded_at_ms,
        source=record.source,
        **dict(record.key.params),
    )


class _JournalingScoreDatabase(TangoScoreDatabase):
    """A shard-local TangoDB that reports every put to its journal."""

    def __init__(self, journal: "_ShardJournal") -> None:
        super().__init__()
        self._journal = journal

    def put(
        self,
        switch: str,
        metric: str,
        value: Any,
        recorded_at_ms: float = 0.0,
        source: Optional[str] = None,
        **params: Any,
    ) -> ScoreKey:
        key = super().put(
            switch, metric, value, recorded_at_ms=recorded_at_ms,
            source=source, **params,
        )
        self._journal.note_put(
            ScoreRecord(
                key=key, value=value, recorded_at_ms=recorded_at_ms, source=source
            )
        )
        return key


class _ShardJournal(RaceSanitizer):
    """A worker's journal of the fleet loop's score-database writes.

    Plugged in as the engine's sanitizer, it inherits the provenance
    simulator and owner attribution but logs no accesses: it keeps the
    puts made inside events (setup and teardown around the run stay
    out) and each member's last event.
    """

    def __init__(self) -> None:
        super().__init__()
        self.scores = _JournalingScoreDatabase(self)
        self._puts: List[Tuple[int, str, ScoreRecord]] = []
        self._last_event: Dict[str, int] = {}

    def wrap_scores(self, scores: TangoScoreDatabase) -> TangoScoreDatabase:
        return scores  # already this journal's database

    def wrap_metrics(self, metrics):
        return metrics

    def wrap_cache(self, cache):
        return cache

    def _event_sequence(self) -> Optional[int]:
        event = self._sim.current_event if self._sim is not None else None
        return event.sequence if event is not None else None

    def set_owner(self, owner: str) -> None:
        super().set_owner(owner)
        sequence = self._event_sequence()
        if sequence is not None:
            self._last_event[owner] = sequence

    def note_put(self, record: ScoreRecord) -> None:
        sequence = self._event_sequence()
        if sequence is not None:
            self._puts.append((sequence, self._owner, record))

    def merge_key(self, sequence: int) -> Tuple[float, ...]:
        """An event's scheduling chain, newest first: the merge sort key."""
        key: List[float] = []
        current: Optional[int] = sequence
        while current is not None:
            key.append(self.provenance.times[current])
            current = self.provenance.parents[current]
        return tuple(key)

    def batches(self, index_of: Dict[str, int]) -> Tuple[_Batch, ...]:
        """The journaled puts grouped by (event, owning member)."""
        return tuple(
            _Batch(
                self.merge_key(sequence), index_of[owner], tuple(put[2] for put in puts)
            )
            for (sequence, owner), puts in itertools.groupby(
                self._puts, key=lambda put: put[:2]
            )
        )

    def final_keys(self, index_of: Dict[str, int]) -> Dict[int, Tuple[float, ...]]:
        """Member index -> merge key of the last event run on its behalf."""
        return {
            index_of[owner]: self.merge_key(sequence)
            for owner, sequence in self._last_event.items()
        }


@dataclass
class _ShardTask:
    """Everything one worker needs; every field pickles."""

    shard_index: int
    indices: Tuple[int, ...]  # global member indices, ascending
    members: Tuple[FleetMember, ...]  # seeds pinned to seed + global index
    include_policy: bool
    use_cache: bool
    engine_knobs: Dict[str, Any]
    fault_plan: Any  # Optional[FaultPlan]
    retry_policy: Any
    cache_records: Tuple[ScoreRecord, ...]  # warm model-cache entries


@dataclass
class _ShardResult:
    """One worker's run, in the form the merge consumes."""

    shard_index: int
    indices: Tuple[int, ...]
    members: Tuple[FleetMemberResult, ...]
    makespan_ms: float
    events: int
    batches: Tuple[_Batch, ...]
    final_keys: Dict[int, Tuple[float, ...]]


def _infer_shard(task: _ShardTask) -> _ShardResult:
    """Run the fleet loop over one shard's members and journal it.

    Module-level (not a closure) so the ``process`` backend can pickle
    it under the ``spawn`` start method.
    """
    journal = _ShardJournal()
    for record in task.cache_records:
        _put(journal.scores, record)
    engine = FleetInferenceEngine(
        task.members,
        scores=journal.scores,
        use_cache=task.use_cache,
        fault_injector=(
            FaultInjector(task.fault_plan) if task.fault_plan is not None else None
        ),
        retry_policy=task.retry_policy,
        observer=Observer(sanitizer=journal),
        **task.engine_knobs,
    )
    result = engine.infer_fleet(include_policy=task.include_policy)
    index_of = {member.name: index for member, index in zip(task.members, task.indices)}
    return _ShardResult(
        shard_index=task.shard_index,
        indices=task.indices,
        members=tuple(result.members),
        makespan_ms=result.makespan_ms,
        events=engine._events,
        batches=journal.batches(index_of),
        final_keys=journal.final_keys(index_of),
    )


def _shard_row(
    shard: int,
    members: Sequence[FleetMemberResult],
    makespan_ms: float,
    events: int,
    records: int,
) -> Dict[str, Any]:
    """One ``shard_stats["per_shard"]`` entry."""
    return {
        "shard": shard,
        "members": len(members),
        "full_probes": sum(1 for member in members if member.full_probe),
        "cache_hits": sum(1 for member in members if member.cache_hit),
        "makespan_ms": round(makespan_ms, 4),
        "events": events,
        "records": records,
    }


class ShardedFleetEngine(FleetInferenceEngine):
    """Fleet inference, partitioned across worker processes.

    Same contract as :class:`FleetInferenceEngine`: identical
    :class:`FleetResult`, identical TangoDB records in identical
    insertion order, identical JSON summary -- at any ``shards`` count,
    under either partition strategy, on either backend.  See the module
    docstring for the merge protocol.

    Args:
        members, scores, seed: as for :class:`FleetInferenceEngine`;
            member ``i`` defaults to seed ``seed + i`` with ``i`` the
            *global* index, so seeding is partition-independent.  Warm
            model-cache entries in ``scores`` are shipped to every
            worker, and the merged run's records land back in it.
        shards: worker count requested (clamped to the fleet size).
            With more than one, ``max_in_flight`` and a live
            ``observer`` raise :class:`ValueError`.
        partition: ``round_robin`` or ``tier`` (see
            :func:`repro.core.placement.partition_names`).
        backend: ``inline`` or ``process``.
        mp_start_method: ``fork``/``spawn``/``forkserver``; default
            prefers ``fork`` where available, else ``spawn``.
        options: every other :class:`FleetInferenceEngine` keyword.  A
            fault injector's *plan* is shipped and each worker rebuilds
            a fresh injector (fault decision streams are per switch
            name, so the replay is byte-identical).
    """

    def __init__(
        self,
        members: Sequence[Union[FleetMember, SwitchProfile]],
        scores: Optional[TangoScoreDatabase] = None,
        seed: int = 0,
        shards: int = 1,
        partition: str = "round_robin",
        backend: str = "process",
        mp_start_method: Optional[str] = None,
        **options: Any,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {partition!r}; "
                f"known: {sorted(PARTITION_STRATEGIES)}"
            )
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {backend!r}; "
                f"known: {sorted(SHARD_BACKENDS)}"
            )
        attached = options.get("observer", NULL_OBSERVER).live
        if options.get("max_in_flight") is not None:
            attached.insert(0, "max_in_flight")
        if shards > 1 and attached:
            raise ValueError(
                f"--shards cannot be combined with {', '.join(attached)}: "
                f"{shards} worker processes have no admission bound and carry "
                "no tracer, metrics, telemetry or sanitizer (run one shard)"
            )
        super().__init__(members, scores=scores, seed=seed, **options)
        self.shards = shards
        self.partition = partition
        self.backend = backend
        self.mp_start_method = mp_start_method
        self.shard_stats: Dict[str, Any] = {}

    def _build_tasks(
        self, groups: List[Tuple[int, List[int]]], include_policy: bool
    ) -> List[_ShardTask]:
        cache_records: Tuple[ScoreRecord, ...] = ()
        if self.use_cache:
            cache_records = tuple(
                record
                for record in self.scores.records_for_switch(FLEET_DB_SWITCH)
                if record.key.metric == MODEL_CACHE_METRIC
            )
        return [
            _ShardTask(
                shard_index=shard_index,
                indices=tuple(group),
                members=tuple(
                    dataclasses.replace(
                        self.members[index], seed=self._member_seed(index)
                    )
                    for index in group
                ),
                include_policy=include_policy,
                use_cache=self.use_cache,
                engine_knobs=dict(self.engine_knobs),
                fault_plan=getattr(self.fault_injector, "plan", None),
                retry_policy=self.retry_policy,
                cache_records=cache_records,
            )
            for shard_index, group in groups
        ]

    def _run_tasks(self, tasks: List[_ShardTask]) -> List[_ShardResult]:
        if self.backend == "inline":
            return [_infer_shard(task) for task in tasks]
        import multiprocessing

        method = self.mp_start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        context = multiprocessing.get_context(method)
        workers = min(len(tasks), max(1, os.cpu_count() or 1))
        with context.Pool(processes=workers) as pool:
            return pool.map(_infer_shard, tasks, chunksize=1)

    def infer_fleet(self, include_policy: bool = True) -> FleetResult:
        """Infer every member across the shards and merge the streams.

        Returns the identical :class:`FleetResult` a single-queue run
        would produce; ``shard_stats`` afterwards holds the per-shard
        and merge accounting (never part of the result or the TangoDB
        stream, so summaries stay byte-identical).
        """
        groups = [
            (shard_index, group)
            for shard_index, group in enumerate(
                partition_names(
                    [member.name for member in self.members],
                    self.shards,
                    self.partition,
                )
            )
            if group  # more shards requested than members
        ]
        if len(groups) == 1:
            result = super().infer_fleet(include_policy)
            dropped: List[FleetMemberResult] = []
            merged: List[_Batch] = []
            per_shard = [
                _shard_row(
                    groups[0][0], result.members, result.makespan_ms, self._events, 0
                )
            ]
        else:
            shards = self._run_tasks(self._build_tasks(groups, include_policy))
            result, dropped, merged = self._merge(shards)
            per_shard = [
                _shard_row(
                    shard.shard_index, shard.members, shard.makespan_ms,
                    shard.events,
                    sum(len(batch.records) for batch in shard.batches),
                )
                for shard in shards
            ]
        self.shard_stats = {
            "shards": self.shards,
            "workers": len(groups),
            "partition": self.partition,
            "backend": self.backend,
            "members": len(self.members),
            "cross_shard_coalesced": len(dropped),
            "wasted_probe_ops": sum(member.probe_ops for member in dropped),
            "merge_events": len(merged),
            "merge_records": sum(len(batch.records) for batch in merged),
            "cpu_count": os.cpu_count(),
            "per_shard": per_shard,
        }
        return result

    # -- the deterministic merge ----------------------------------------------
    def _merge(
        self, shards: List[_ShardResult]
    ) -> Tuple[FleetResult, List[FleetMemberResult], List[_Batch]]:
        """Merge worker runs into the caller's database and one result.

        Also returns the duplicate leaders cross-shard single-flight
        dropped and the batches replayed, for ``shard_stats``.
        """
        results: Dict[int, FleetMemberResult] = {}
        final_keys: Dict[int, Tuple[float, ...]] = {}
        batches: List[_Batch] = []
        for shard in shards:
            results.update(zip(shard.indices, shard.members))
            final_keys.update(shard.final_keys)
            batches.extend(shard.batches)

        # Cross-shard single-flight: the global leader of a fingerprint
        # is its lowest-indexed cold member.  Local waiters and other
        # shards' duplicate leaders all join it.
        coalesce = self.use_cache and self._coalescing_allowed()
        leader_of: Dict[str, int] = {}
        waiters: Dict[int, List[int]] = {}
        dropped: List[FleetMemberResult] = []
        for index in sorted(results):
            member = results[index]
            if member.cache_hit:
                continue
            leader = leader_of.get(member.fingerprint) if coalesce else None
            if leader is None:
                leader_of[member.fingerprint] = index
                continue
            if member.full_probe:
                dropped.append(member)
            waiters.setdefault(leader, []).append(index)

        # Waiters' own records are dropped; each leader's completion
        # batch gains the global waiter set (after its own store record,
        # by the stable sort below).
        joined = {index for group in waiters.values() for index in group}
        merged = [batch for batch in batches if batch.member not in joined]
        for leader_index, group in waiters.items():
            leader = results[leader_index]
            records = []
            for index in group:
                model = leader.model.clone_as(results[index].name)
                results[index] = dataclasses.replace(
                    results[index],
                    model=model,
                    finished_ms=leader.finished_ms,
                    coalesced=True,
                    cache_origin=leader.name,
                    probe_ops=0,
                    steps=(),
                )
                records.append(
                    ScoreRecord(
                        key=ScoreKey.make(results[index].name, "switch_model"),
                        value=model,
                        recorded_at_ms=leader.finished_ms,
                        source=f"fleet_coalesced:{leader.name}",
                    )
                )
            merged.append(_Batch(final_keys[leader_index], leader_index, tuple(records)))
        merged.sort(key=lambda batch: (batch.key, batch.member))
        for batch in merged:
            for record in batch.records:
                _put(self.scores, record)

        # The cache counters a single-queue run would show: every member
        # looked up once at admission, clean leaders stored once.
        if self.use_cache:
            warm = sum(1 for member in results.values() if member.cache_hit)
            self.cache.hits += warm
            self.cache.misses += len(results) - warm
            self.cache.stores += sum(
                1
                for batch in merged
                for record in batch.records
                if record.key.metric == MODEL_CACHE_METRIC
            )

        result = FleetResult(
            members=[results[index] for index in range(len(self.members))],
            makespan_ms=max(member.finished_ms for member in results.values()),
            max_in_flight=None,
        )
        self._record_run(result)
        return result, dropped, merged


__all__ = [
    "SHARD_BACKENDS",
    "ShardedFleetEngine",
]
