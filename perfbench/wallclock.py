"""The benchmark's only wall-clock and memory reads, and its calibration.

Virtual-time code must not read the host clock (lint rule TNG030); the
benchmark measures host time on purpose, so every read goes through
:func:`now_ns`, which carries the per-line suppression.
"""

from __future__ import annotations

import resource
import sys
import time


def now_ns() -> int:
    """Monotonic host time in nanoseconds."""
    return time.perf_counter_ns()  # tango-lint: disable=TNG030


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return peak * scale / (1024.0 * 1024.0)


#: The calibration loop's time on the reference machine (ns).  Host times
#: are reported as ``raw * CALIBRATION_NOMINAL_NS / calibration``: ms at
#: the reference machine's speed, so a shared machine that slows down for
#: a while reports numbers closer to its usual ones.
CALIBRATION_NOMINAL_NS = 20_000_000


class Calibrator:
    """A fixed pure-Python loop timed between ops to track machine speed.

    It mixes a small hot dictionary with strided reads over a heap of a
    few megabytes, because a shared host slows both kinds of work.  About
    20 ms on a 2-CPU cloud VM.
    """

    OBJECTS = 50_000

    def __init__(self) -> None:
        self._objects = [(index, str(index)) for index in range(self.OBJECTS)]

    def _work(self) -> int:
        table = {}
        total = 0
        for index in range(20_000):
            key = (index * 7919) % 1024
            table[key] = table.get(key, 0) + index
        objects = self._objects
        count = len(objects)
        for index in range(30_000):
            number, text = objects[(index * 7919) % count]
            total += number + len(text)
        return total + len(table)

    def sample(self) -> int:
        """Host time of one calibration loop, in ns."""
        start = now_ns()
        self._work()
        return now_ns() - start
