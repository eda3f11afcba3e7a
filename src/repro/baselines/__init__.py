"""Baseline schedulers the paper compares Tango against.

* :class:`DionysusScheduler` -- critical-path scheduling of network
  updates (Jin et al., SIGCOMM'14): always issue the ready request on
  the longest remaining dependency chain first.  Diversity-oblivious: it
  neither reorders by rule type nor sorts additions by priority.
* :class:`RandomOrderScheduler` -- issues independent requests in a
  random order (the "random installation order" arm of Figures 8/9).
* :class:`FifoOrderScheduler` -- issues independent requests in
  request-creation order.

Each subclasses :class:`~repro.core.scheduler.BasicTangoScheduler` and
overrides only ``_next_batch``, so the baselines share Tango's issue
loop: injected transient faults are deferred and retried, not raised.
"""

from repro.baselines.dionysus import DionysusScheduler
from repro.baselines.naive import RandomOrderScheduler, FifoOrderScheduler

__all__ = ["DionysusScheduler", "RandomOrderScheduler", "FifoOrderScheduler"]
