"""Output checks.  Each returns the violations it found (empty = correct).

An op with at least one violation, or one that raised, counts as failed;
the failures feed ``failed``/``attempted`` in the result line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


def serve_violations(cache, occupancy: int, budget: int, rejected_adds: int) -> List[str]:
    """Checks on one serving run.

    Args:
        cache: the run's :class:`~repro.serve.cache.CacheStats`.
        occupancy: the most rules installed at any point of the run.
        budget: the rule budget the cache manager was given.
        rejected_adds: ADDs the switch refused with ``TableFullError``.
    """
    found = []
    if cache.hits + cache.misses != cache.lookups:
        found.append(
            f"lookup accounting: hits {cache.hits} + misses {cache.misses}"
            f" != lookups {cache.lookups}"
        )
    if occupancy > budget:
        found.append(f"occupancy {occupancy} above the {budget}-rule budget")
    if rejected_adds:
        found.append(f"{rejected_adds} ADDs rejected with TableFullError")
    return found


def fleet_violations(names: Sequence[str], models: Mapping[str, object]) -> List[str]:
    """Every fleet member must come back with an inferred model."""
    return [f"member {name} has no model" for name in names if models.get(name) is None]


def missing_edges(
    expected: Iterable[Tuple[int, int]], built: Iterable[Tuple[int, int]]
) -> List[str]:
    """Consistency dependencies the built request DAG lacks."""
    have = set(built)
    return [
        f"DAG lacks consistency edge {first} -> {then}"
        for first, then in expected
        if (first, then) not in have
    ]


def schedule_violations(
    request_ids: Iterable[int],
    edges: Iterable[Tuple[int, int]],
    records: Sequence,
) -> List[str]:
    """Checks on one scheduled request DAG.

    Every request is issued exactly once, and no request starts before
    each of its predecessors has finished.

    Args:
        request_ids: the DAG's request ids.
        edges: dependency edges ``(first, then)``.
        records: the schedule's issue records (``request``,
            ``started_ms``, ``finished_ms``).
    """
    found = []
    issued: Dict[int, int] = {}
    started: Dict[int, float] = {}
    finished: Dict[int, float] = {}
    for record in records:
        rid = record.request.request_id
        issued[rid] = issued.get(rid, 0) + 1
        started[rid] = record.started_ms
        finished[rid] = record.finished_ms
    expected = set(request_ids)
    for rid in sorted(expected | set(issued)):
        count = issued.get(rid, 0)
        if rid not in expected:
            found.append(f"request {rid} issued but not in the DAG")
        elif count != 1:
            found.append(f"request {rid} issued {count} times")
    for first, then in edges:
        if first in finished and then in started and started[then] < finished[first]:
            found.append(
                f"request {then} started at {started[then]!r} ms before"
                f" predecessor {first} finished at {finished[first]!r} ms"
            )
    return found
