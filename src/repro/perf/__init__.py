"""Micro-benchmark harness for the scheduler/TCAM hot paths.

``tango-bench`` times the code paths this reproduction leans on at
scale -- incremental DAG scheduling, Fenwick shift accounting, prefix
lookahead -- against the retired pre-optimization implementations,
verifies that both arms produce bit-for-bit identical results, and gates
CI on deterministic operation counts (see :mod:`repro.perf.harness`).

This is the one package (besides the simulation substrate ``sim/``)
allowed to read the host wall clock: measured wall time is reported for
humans, while the regression gate uses op counters so it cannot flake
with machine load.
"""

from repro.perf.harness import (
    REGRESSION_THRESHOLD,
    BenchRecord,
    baseline_from_records,
    compare_to_baseline,
    run_suite,
)

__all__ = [
    "BenchRecord",
    "REGRESSION_THRESHOLD",
    "baseline_from_records",
    "compare_to_baseline",
    "run_suite",
]
