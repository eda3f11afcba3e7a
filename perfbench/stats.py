"""Nearest-rank percentiles and the simulated-statistics digest."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence

#: Percentile, over a cycle's inputs, reported as ``op_wall_ms_tail``.
#: Fixed, so a faster commit is compared at the same percentile as its
#: parent; with 12-16 inputs, three or four lie beyond it.
TAIL_PERCENTILE = 75.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(summaries: Iterable[object]) -> str:
    """A short stable hash of JSON-ready simulated statistics.

    Floats serialise with ``repr`` precision, so any change to a
    simulated value changes the digest.
    """
    text = json.dumps(list(summaries), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
