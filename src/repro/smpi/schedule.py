"""Cooperative scheduling of thread-transport ranks: one baton.

Every thread-transport :func:`~repro.smpi.comm.run_ranks` call hands a
single *baton* between its rank threads, so exactly one rank executes
Python at a time. Simulated MPI exists to keep the paper's messaging
semantics and to count messages; real parallelism is the process
transport's job. Free-running rank threads only fought over the
interpreter lock (every numpy call dropped and retook it), so
serializing them costs no parallelism and removes the convoy.

A :class:`DeterministicScheduler` has two policies:

* ``seed=None`` (what ``run_ranks`` attaches by default) — ordered and
  non-preemptive. A rank keeps the baton until it *blocks*: a receive
  or collective with no matching message, a ``probe`` that finds
  nothing, or rank exit. Ranks join a FIFO run queue when they become
  runnable (the message that releases them, or a probe's yield), and
  only the head of that queue is woken. Sends are not yield points.
* an integer ``seed`` — seeded exploration for the sanitizer: every
  posted message (a send, or a collective's internal message), probes
  and every blocking call are yield points, and the next rank
  is drawn from the *sorted* runnable set by ``random.Random(seed)``.
  Same seed, same interleaving, byte for byte; different seeds explore
  different message orders, which is what :func:`sweep_schedules`
  automates for tests.

Either way the scheduler is the deadlock oracle: when no rank holds or
can take the baton and at least one is blocked, nothing can ever
change again (there is no hidden concurrency), so it reports the full
wait-for cycle immediately via
:class:`~repro.smpi.errors.DeadlockError`.

A parked, blocked rank still honours its operation's timeout: at the
deadline it stops waiting even while another rank holds the baton, and
unwinds (without the baton) into the run's abort path. An abort wakes
every parked rank.

A scheduler instance drives exactly one :func:`run_ranks` call.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.smpi.deadlock import WaitEdge, format_cycle
from repro.smpi.errors import DeadlockError, SimAbort
from repro.telemetry.recorder import active_recorder

__all__ = ["DeterministicScheduler", "ScheduleRun", "sweep_schedules"]

_READY = "ready"        # in the run queue, waiting for the baton
_RUNNING = "running"    # holds the baton (or unwinds after a timeout)
_BLOCKED = "blocked"    # parked until its predicate holds
_DONE = "done"


class DeterministicScheduler:
    """One baton passed between the rank threads of a run.

    ``run_ranks`` attaches one to every thread-transport run; pass an
    instance with an integer ``seed`` to ``run_ranks(...,
    scheduler=...)`` for a seeded, replayable exploration instead. The
    thread wire calls :meth:`wait_until` at blocking waits,
    :meth:`yield_baton` at yield points, and :meth:`poke` after every
    delivered message, which may release a blocked rank. Scheduling only starts once all ranks have
    registered, and the first turn goes to rank 0, so thread start-up
    order cannot leak into the schedule.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        #: sends and satisfied waits are yield points (seeded runs only)
        self.preemptive = seed is not None
        self._rng = random.Random(seed) if self.preemptive else None
        self._lock = threading.Lock()
        self._wake: dict[int, threading.Condition] = {}
        self._nranks = 0
        self._registered = 0
        self._abort = threading.Event()
        self._states: dict[int, str] = {}
        self._runq: deque[int] = deque()
        self._ready_at: dict[int, float] = {}
        self._preds: dict[int, Callable[[], bool]] = {}
        self._edges: dict[int, WaitEdge] = {}
        self._current: int | None = None
        self._cycle: list[WaitEdge] | None = None
        self._cycle_message = ""
        self._attached = False

    # -- run_ranks lifecycle -------------------------------------------
    def attach(self, nranks: int, abort: threading.Event) -> None:
        with self._lock:
            if self._attached:
                raise RuntimeError(
                    "a DeterministicScheduler drives exactly one run_ranks "
                    "call; create a fresh instance (or use sweep_schedules)"
                )
            self._attached = True
            self._nranks = nranks
            self._abort = abort
            for rank in range(nranks):
                self._wake[rank] = threading.Condition(self._lock)
                self._enqueue_locked(rank)

    def thread_started(self, rank: int) -> None:
        """Register this thread as ``rank`` and park until scheduled."""
        with self._lock:
            self._registered += 1
            self._schedule_locked()
            self._park_locked(rank, None)

    def thread_finished(self, rank: int) -> None:
        with self._lock:
            if self._states[rank] == _READY:
                self._runq.remove(rank)  # aborted before its first turn
            self._states[rank] = _DONE
            if self._current == rank:
                self._current = None
            self._schedule_locked()

    def abort_all(self) -> None:
        """Wake every parked thread so it can observe the abort event."""
        with self._lock:
            for cond in self._wake.values():
                cond.notify()

    # -- scheduling points ----------------------------------------------
    def yield_baton(self, rank: int) -> None:
        """Go to the back of the run queue and wait for the next turn."""
        with self._lock:
            self._enqueue_locked(rank)
            self._release_locked(rank)
            self._park_locked(rank, None)

    def wait_until(self, predicate: Callable[[], bool], edge: WaitEdge,
                   timeout: float | None) -> bool:
        """Give up the baton until ``predicate()`` holds; False on timeout.

        The predicate must be a lock-free snapshot: :meth:`poke`
        evaluates it from the thread that changed the state. On a
        world-wide dead end, raises :class:`DeadlockError` with the
        registered ``edge`` of every blocked rank. A rank that gets
        past ``timeout`` seconds without its predicate holding returns
        False *without* the baton; the caller must raise.
        """
        rank = edge.rank
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if predicate():  # a seeded run yields even when satisfied
                self._enqueue_locked(rank)
            else:
                self._states[rank] = _BLOCKED
                self._preds[rank] = predicate
                self._edges[rank] = edge
            self._release_locked(rank)
            try:
                return self._park_locked(rank, deadline)
            finally:
                if self._states[rank] == _BLOCKED:  # raised while parked
                    self._states[rank] = _RUNNING
                self._preds.pop(rank, None)
                self._edges.pop(rank, None)

    def poke(self, rank: int) -> None:
        """Queue ``rank`` if it is blocked and its predicate now holds."""
        with self._lock:
            if self._states.get(rank) == _BLOCKED and self._preds[rank]():
                self._enqueue_locked(rank)
                self._schedule_locked()  # no-op while a rank holds the baton

    # -- internals -------------------------------------------------------
    def _enqueue_locked(self, rank: int) -> None:
        self._states[rank] = _READY
        self._runq.append(rank)
        self._ready_at[rank] = time.perf_counter()

    def _release_locked(self, rank: int) -> None:
        if self._current == rank:  # else a timed-out rank is rejoining
            self._current = None
        self._schedule_locked()

    def _park_locked(self, rank: int, deadline: float | None) -> bool:
        cond = self._wake[rank]
        while self._current != rank:
            if self._abort.is_set():
                raise SimAbort("run aborted by another rank")
            blocked = self._states[rank] == _BLOCKED
            if blocked and self._cycle is not None:
                raise DeadlockError(self._cycle_message, self._cycle)
            if deadline is None or not blocked:
                cond.wait()  # a queued rank waits for its turn, however long
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._states[rank] = _RUNNING  # unwinds outside the baton
                return False
            cond.wait(remaining)
        rec = active_recorder()
        if rec is not None:
            rec.add_span("baton", "smpi.baton", self._ready_at[rank],
                         time.perf_counter())
        return True

    def _schedule_locked(self) -> None:
        if self._current is not None or self._registered < self._nranks:
            return
        if self._abort.is_set():
            for cond in self._wake.values():
                cond.notify()
            return
        if self._runq:
            if self._rng is None:
                rank = self._runq.popleft()
            else:
                rank = self._rng.choice(sorted(self._runq))
                self._runq.remove(rank)
            self._states[rank] = _RUNNING
            self._current = rank
            self._wake[rank].notify()
            return
        if _RUNNING in self._states.values():
            return  # a timed-out rank is still unwinding; it may yet send
        blocked = sorted(r for r, s in self._states.items() if s == _BLOCKED)
        if blocked:
            # nobody holds or can take the baton: the wait is permanent
            done = {r for r, s in self._states.items() if s == _DONE}
            self._cycle = [self._edges[r] for r in blocked]
            self._cycle_message = format_cycle(self._cycle, done)
            for r in blocked:
                self._wake[r].notify()


@dataclass
class ScheduleRun:
    """Outcome of one seeded run inside a schedule sweep."""

    seed: int
    results: list
    traffic: Any  #: the run's Traffic ledger

    @property
    def fingerprint(self) -> str:
        """Stable hash of the ordered message ledger."""
        return self.traffic.fingerprint()


def sweep_schedules(nranks: int, fn: Callable[..., Any], args: tuple = (),
                    nschedules: int = 8, base_seed: int = 0,
                    timeout: float | None = None) -> list[ScheduleRun]:
    """Run ``fn`` under ``nschedules`` different deterministic schedules.

    Each seed gets a fresh scheduler and traffic ledger; compare the
    returned fingerprints to see whether (and how) message order
    depends on the interleaving. Re-running with the same
    ``base_seed`` reproduces every run byte-for-byte.
    """
    from repro.smpi.comm import DEFAULT_TIMEOUT, run_ranks
    from repro.smpi.traffic import Traffic

    timeout = DEFAULT_TIMEOUT if timeout is None else timeout
    runs: list[ScheduleRun] = []
    for seed in range(base_seed, base_seed + nschedules):
        traffic = Traffic()
        results = run_ranks(nranks, fn, args=args, timeout=timeout,
                            traffic=traffic,
                            scheduler=DeterministicScheduler(seed))
        runs.append(ScheduleRun(seed=seed, results=results, traffic=traffic))
    return runs
