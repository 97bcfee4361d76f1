"""Concurrency-correctness tooling for the simulated cluster.

One import surface for the three sanitizers that guard the paper's
correctness invariants:

* **Deterministic scheduling** —
  :class:`~repro.smpi.schedule.DeterministicScheduler` already runs
  thread ranks one at a time in a fixed order; given an integer seed
  it explores a seeded, replayable interleaving instead;
  :func:`~repro.smpi.schedule.sweep_schedules` runs N seeds and hands
  back per-run :class:`~repro.smpi.schedule.ScheduleRun` ledgers whose
  fingerprints expose schedule-dependent message orders.
* **Deadlock detection** — every blocking SMPI operation parks in the
  scheduler with a :class:`~repro.smpi.deadlock.WaitEdge`; when no
  rank can run, a genuine wait-for cycle (or a wait on an exited rank)
  raises :class:`~repro.smpi.errors.DeadlockError` naming the full
  cycle at once instead of ripening into the 120 s watchdog.
* **Race sanitizing** — the
  :class:`~repro.op2.backends.sanitizer.SanitizerBackend` OP2 backend
  executes coloring plans while auditing per-element write-sets,
  raising :class:`~repro.op2.backends.sanitizer.RaceError` if two
  same-color elements touch one dat entry.

This package is a pure façade: the implementations live in
``repro.smpi`` and ``repro.op2.backends`` (which must not depend on
this package), re-exported here so tests and the ``repro sanitize``
CLI have one import point.
"""

from repro.op2.backends.sanitizer import (
    RaceError,
    RaceFinding,
    SanitizerBackend,
    check_block_plan,
    check_plan,
)
from repro.smpi.deadlock import DeadlockError, WaitEdge, format_cycle
from repro.smpi.schedule import DeterministicScheduler, ScheduleRun, sweep_schedules

__all__ = [
    "DeadlockError",
    "DeterministicScheduler",
    "RaceError",
    "RaceFinding",
    "SanitizerBackend",
    "ScheduleRun",
    "WaitEdge",
    "check_block_plan",
    "check_plan",
    "format_cycle",
    "sweep_schedules",
]
