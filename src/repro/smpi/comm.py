"""Simulated MPI communicators over Python threads.

Each rank runs its target function on its own thread; ranks of a
communicator share mailboxes (point-to-point) and a collective context
(barrier + data slots). The threads run **one at a time**: every run
attaches a :class:`~repro.smpi.schedule.DeterministicScheduler` that
passes a single baton, and a rank hands it on only when it blocks — a
``recv`` with no matching message, a barrier, a ``probe`` that finds
nothing, or exit. The default policy is ordered (the next rank is the
head of a FIFO run queue) and non-preemptive, so runs are
reproducible and the rank threads never contend for the interpreter
lock; the forked-process transport (:mod:`repro.smpi.transport`) is
the one with real parallelism. An integer-seeded scheduler
(``run_ranks(..., scheduler=...)``) instead yields at every send and
draws each decision from a seeded RNG, which turns ``ANY_SOURCE`` and
``probe`` races from flaky into sweepable.

Blocking semantics are real — a ``recv`` with no matching ``send``
blocks, mirroring a hung MPI job — but hangs are *diagnosed*, not
merely timed out: each blocking operation parks with a wait-for edge,
and when no rank can take the baton the scheduler raises
:class:`~repro.smpi.errors.DeadlockError` naming the full cycle (rank
0 waiting on rank 1 waiting on rank 0, or a wait on a rank that
already exited). The per-operation timeout remains as a backstop for
ranks stuck *outside* MPI (e.g. a rank sleeping or looping while it
holds the baton).

Design notes
------------
* Payloads that are numpy arrays are **copied on send** (value
  semantics, like a real network) so a sender mutating its buffer
  after ``send`` cannot corrupt the receiver — the classic MPI buffer
  contract.
* Collectives use a generation-counting barrier plus shared slots; the
  rank that draws arrival index 0 performs the reduction.
  Sub-communicators from :meth:`SimComm.split` get fresh
  mailboxes/barriers, so HS and CU groups of the coupled solver cannot
  interfere — but they share the world's scheduler and traffic ledger.
* All traffic is recorded in a world-level :class:`~repro.smpi.traffic.Traffic`
  ledger keyed by *world* ranks, whatever communicator carried it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.smpi.deadlock import WaitEdge
from repro.smpi.errors import SimAbort, SimMPIError
from repro.smpi.schedule import DeterministicScheduler
from repro.smpi.traffic import Traffic, payload_nbytes
from repro.telemetry.recorder import active_recorder, span as _tspan

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.faults import FaultPlan

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking operation may wait before the run is
#: declared hung. True message/barrier deadlocks are reported by the
#: scheduler long before this; the timeout only catches ranks stuck
#: outside the MPI layer.
DEFAULT_TIMEOUT = 120.0


def _copy_payload(obj: Any) -> Any:
    """Copy-on-send for mutable buffers (numpy value semantics)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy_payload(o) for o in obj)
    if isinstance(obj, list):
        return [_copy_payload(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any
    seq: int


class _Mailbox:
    """Incoming-message queue for one rank of one communicator."""

    def __init__(self, state: "_CommState", rank: int) -> None:
        self._state = state
        self._rank = rank
        self._world = state.world_ranks[rank]
        self._lock = threading.Lock()
        self._messages: list[_Message] = []
        self._seq = 0

    def put(self, src: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._messages.append(_Message(src, tag, payload, self._seq))
            self._seq += 1
        self._state.scheduler.poke(self._world)

    def _match_index(self, source: int, tag: int) -> int | None:
        for i, msg in enumerate(self._messages):
            if source not in (ANY_SOURCE, msg.src):
                continue
            if tag not in (ANY_TAG, msg.tag):
                continue
            return i
        return None

    def _edge(self, source: int, tag: int) -> WaitEdge:
        state = self._state
        if source == ANY_SOURCE:
            peers = tuple(w for r, w in enumerate(state.world_ranks)
                          if r != self._rank)
            detail = "source=ANY"
        else:
            peers = (state.world_ranks[source],)
            detail = f"source={state.world_ranks[source]}"
        return WaitEdge(rank=self._world, op="recv", peers=peers,
                        tag=None if tag == ANY_TAG else tag, detail=detail)

    def get(self, source: int, tag: int, timeout: float | None) -> _Message:
        state = self._state
        sched = state.scheduler
        if sched.preemptive or self._match_index(source, tag) is None:
            if not sched.wait_until(
                    lambda: self._match_index(source, tag) is not None,
                    self._edge(source, tag), timeout):
                raise SimMPIError(
                    f"recv(source={source}, tag={tag}) timed out "
                    f"after {timeout:.1f}s — deadlock?"
                )
            if state.abort.is_set():
                raise SimAbort("run aborted by another rank")
        with self._lock:
            return self._messages.pop(self._match_index(source, tag))

    def probe(self, source: int, tag: int) -> bool:
        with self._lock:
            return self._match_index(source, tag) is not None


class _Barrier:
    """Generation-counting cyclic barrier that parks in the scheduler.

    Replaces ``threading.Barrier`` so waiting ranks park in the
    scheduler, giving up the baton, with a wait-for edge naming the
    members still missing. ``wait`` returns a unique
    arrival index per generation; the first arriver gets 0 (the
    reduction owner). The last arriver releases the others and keeps
    running.
    """

    def __init__(self, state: "_CommState") -> None:
        self._state = state
        self._lock = threading.Lock()
        self._count = 0
        self._gen = 0
        self._arrived: set[int] = set()

    def wait(self, timeout: float | None, rank: int) -> int:
        state = self._state
        with self._lock:
            gen = self._gen
            idx = self._count
            self._count += 1
            self._arrived.add(rank)
            last = self._count == state.size
            if last:
                self._count = 0
                self._arrived.clear()
                self._gen += 1
            else:
                peers = tuple(state.world_ranks[r] for r in range(state.size)
                              if r != rank and r not in self._arrived)
        if last:
            for world in state.world_ranks:
                state.scheduler.poke(world)
            return idx
        edge = WaitEdge(rank=state.world_ranks[rank], op="barrier",
                        peers=peers, detail=f"{state.size}-rank barrier")
        if not state.scheduler.wait_until(lambda: self._gen != gen, edge,
                                          timeout):
            raise SimMPIError("barrier timed out — deadlock?")
        if state.abort.is_set():
            raise SimAbort("run aborted by another rank")
        return idx


class _Collective:
    """Barrier + data slots shared by the ranks of one communicator."""

    def __init__(self, state: "_CommState") -> None:
        self.barrier = _Barrier(state)
        self.slots: list[Any] = [None] * state.size
        self.result: Any = None


@dataclass
class Request:
    """Handle for a nonblocking operation.

    Sends complete immediately (buffered); receives resolve on
    :meth:`wait`.
    """

    _resolve: Callable[[], Any] | None = None
    _value: Any = None
    _done: bool = field(default=False)

    def wait(self) -> Any:
        if not self._done:
            assert self._resolve is not None
            self._value = self._resolve()
            self._done = True
        return self._value

    def test(self) -> bool:
        return self._done


class _CommState:
    """Shared state behind every rank-view of one communicator."""

    def __init__(self, size: int, world_ranks: Sequence[int],
                 traffic: Traffic, abort: threading.Event,
                 timeout: float, scheduler: DeterministicScheduler,
                 faults: "FaultPlan | None" = None) -> None:
        self.size = size
        self.world_ranks = list(world_ranks)
        self.traffic = traffic
        self.abort = abort
        self.timeout = timeout
        self.scheduler = scheduler
        self.faults = faults
        self.mailboxes = [_Mailbox(self, r) for r in range(size)]
        self.collective = _Collective(self)
        self._split_lock = threading.Lock()
        self._split_results: dict[int, dict[int, "_CommState"]] = {}
        self._split_gen = 0


class SimComm:
    """One rank's view of a simulated-MPI communicator."""

    def __init__(self, state: _CommState, rank: int) -> None:
        self._state = state
        self.rank = rank

    # -- introspection -------------------------------------------------
    @property
    def size(self) -> int:
        return self._state.size

    @property
    def traffic(self) -> Traffic:
        return self._state.traffic

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator."""
        return self._state.world_ranks[self.rank]

    def set_phase(self, phase: str) -> None:
        """Label subsequent sends from this rank for traffic accounting."""
        self._state.traffic.set_phase(self.world_rank, phase)

    # -- fault injection ------------------------------------------------
    def notify_step(self, step: int) -> None:
        """Announce a physical-step boundary to the installed fault plan.

        No-op without a plan. A matching crash fault raises
        :class:`~repro.smpi.errors.RankFailure` here, which aborts the
        world through the standard failure path.
        """
        plan = self._state.faults
        if plan is not None:
            plan.on_step(self.world_rank, step)

    # -- point to point --------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered blocking send (copies numpy payloads)."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"send dest {dest} out of range [0, {self.size})")
        payload = _copy_payload(obj)
        nbytes = payload_nbytes(obj)
        dst_world = self._state.world_ranks[dest]
        self._state.traffic.record(self.world_rank, dst_world, nbytes)
        rec = active_recorder()
        if rec is not None:
            rec.instant("send", "smpi.send",
                        dst=dst_world, tag=tag,
                        nbytes=nbytes,
                        phase=self._state.traffic.phase_of(self.world_rank))
            rec.counter("smpi.messages")
            rec.counter("smpi.nbytes", nbytes)
        plan = self._state.faults
        if plan is not None:
            self._send_with_faults(plan, payload, dest, dst_world, tag)
        else:
            self._state.mailboxes[dest].put(self.rank, tag, payload)
        if self._state.scheduler.preemptive:
            self._state.scheduler.yield_baton(self.world_rank)

    def _send_with_faults(self, plan, payload: Any, dest: int,
                          dst_world: int, tag: int) -> None:
        """Apply the fault plan's verdict to one outgoing message."""
        actions = plan.on_send(self.world_rank, dst_world, tag)
        mailbox = self._state.mailboxes[dest]
        rank = self.rank
        if actions.corrupt is not None:
            payload = actions.corrupt(payload)
        if actions.hold:
            plan.hold_message(self.world_rank, dst_world,
                              lambda: mailbox.put(rank, tag, payload))
            return
        for _ in range(actions.deliver):
            mailbox.put(rank, tag, payload)
        # a prior delayed message to this destination arrives *after*
        # this one — the reordering the delay fault models
        plan.release_held(self.world_rank, dst_world)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        """Blocking receive; returns the payload.

        ``timeout`` overrides the communicator-wide default for this
        one receive — serve loops use it so a dead client degrades to
        a :class:`~repro.smpi.errors.SimMPIError` instead of a hang.
        """
        timeout = self._state.timeout if timeout is None else timeout
        rec = active_recorder()
        if rec is None:
            msg = self._state.mailboxes[self.rank].get(source, tag, timeout)
            return msg.payload
        t0 = time.perf_counter()
        msg = self._state.mailboxes[self.rank].get(source, tag, timeout)
        rec.add_span("recv", "smpi.recv", t0, time.perf_counter(),
                     src=self._state.world_ranks[msg.src], tag=msg.tag)
        return msg.payload

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                    timeout: float | None = None) -> tuple[Any, int, int]:
        """Blocking receive returning ``(payload, source, tag)``."""
        timeout = self._state.timeout if timeout is None else timeout
        rec = active_recorder()
        if rec is None:
            msg = self._state.mailboxes[self.rank].get(source, tag, timeout)
            return msg.payload, msg.src, msg.tag
        t0 = time.perf_counter()
        msg = self._state.mailboxes[self.rank].get(source, tag, timeout)
        rec.add_span("recv", "smpi.recv", t0, time.perf_counter(),
                     src=self._state.world_ranks[msg.src], tag=msg.tag)
        return msg.payload, msg.src, msg.tag

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(_done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(_resolve=lambda: self.recv(source, tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Nonblocking check for a matching pending message.

        A probe that finds nothing hands the baton on (a seeded
        schedule yields at every probe), so a probe-poll loop cannot
        starve the rank it is waiting on.
        """
        sched = self._state.scheduler
        mailbox = self._state.mailboxes[self.rank]
        if sched.preemptive or not mailbox.probe(source, tag):
            sched.yield_baton(self.world_rank)
        return mailbox.probe(source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (safe against head-on exchanges)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives -------------------------------------------------------
    def _barrier_wait(self) -> int:
        return self._state.collective.barrier.wait(self._state.timeout,
                                                   self.rank)

    def barrier(self) -> None:
        with _tspan("barrier", "smpi.collective", size=self.size):
            self._barrier_wait()
            self._barrier_wait()  # second phase so reuse cannot overtake

    def bcast(self, obj: Any, root: int = 0) -> Any:
        with _tspan("bcast", "smpi.collective", size=self.size):
            coll = self._state.collective
            if self.rank == root:
                coll.result = _copy_payload(obj)
            self._barrier_wait()
            value = _copy_payload(coll.result)
            self._barrier_wait()
            return value

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        with _tspan("gather", "smpi.collective", size=self.size):
            coll = self._state.collective
            coll.slots[self.rank] = _copy_payload(obj)
            self._barrier_wait()
            result = list(coll.slots) if self.rank == root else None
            self._barrier_wait()
            return result

    def allgather(self, obj: Any) -> list[Any]:
        with _tspan("allgather", "smpi.collective", size=self.size):
            coll = self._state.collective
            coll.slots[self.rank] = _copy_payload(obj)
            self._barrier_wait()
            result = [_copy_payload(s) for s in coll.slots]
            self._barrier_wait()
            return result

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        with _tspan("scatter", "smpi.collective", size=self.size):
            coll = self._state.collective
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise SimMPIError(
                        f"scatter root must supply {self.size} items, got "
                        f"{None if objs is None else len(objs)}"
                    )
                coll.result = [_copy_payload(o) for o in objs]
            self._barrier_wait()
            value = _copy_payload(coll.result[self.rank])
            self._barrier_wait()
            return value

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] | str = "sum",
               root: int = 0) -> Any | None:
        result = self.allreduce(obj, op)
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | str = "sum") -> Any:
        fn = _REDUCE_OPS.get(op, op) if isinstance(op, str) else op
        if isinstance(op, str) and op not in _REDUCE_OPS:
            raise SimMPIError(f"unknown reduce op {op!r}; use one of {sorted(_REDUCE_OPS)}")
        with _tspan("allreduce", "smpi.collective", size=self.size):
            coll = self._state.collective
            coll.slots[self.rank] = _copy_payload(obj)
            idx = self._barrier_wait()
            if idx == 0:
                acc = coll.slots[0]
                for other in coll.slots[1:]:
                    acc = fn(acc, other)
                coll.result = acc
            self._barrier_wait()
            value = _copy_payload(coll.result)
            self._barrier_wait()
            return value

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise SimMPIError(f"alltoall needs {self.size} items, got {len(objs)}")
        with _tspan("alltoall", "smpi.collective", size=self.size):
            coll = self._state.collective
            coll.slots[self.rank] = [_copy_payload(o) for o in objs]
            self._barrier_wait()
            result = [_copy_payload(coll.slots[src][self.rank])
                      for src in range(self.size)]
            self._barrier_wait()
            return result

    # -- communicator management ---------------------------------------
    def split(self, color: int, key: int | None = None) -> "SimComm | None":
        """Partition the communicator by ``color``; order ranks by ``key``.

        A negative ``color`` opts the rank out (returns ``None``), like
        ``MPI_UNDEFINED``. All ranks of this communicator must call.
        """
        state = self._state
        key = self.rank if key is None else key
        pairs = self.allgather((color, key, self.rank))
        idx = self._barrier_wait()
        with state._split_lock:
            if idx == 0:
                state._split_gen += 1
                gen = state._split_gen
                groups: dict[int, list[tuple[int, int]]] = {}
                for c, k, r in pairs:
                    if c >= 0:
                        groups.setdefault(c, []).append((k, r))
                built: dict[int, _CommState] = {}
                rank_map: dict[int, tuple[int, int]] = {}
                for c, members in groups.items():
                    members.sort()
                    ranks = [r for _k, r in members]
                    sub = _CommState(
                        size=len(ranks),
                        world_ranks=[state.world_ranks[r] for r in ranks],
                        traffic=state.traffic,
                        abort=state.abort,
                        timeout=state.timeout,
                        scheduler=state.scheduler,
                        faults=state.faults,
                    )
                    built[c] = sub
                    for newrank, r in enumerate(ranks):
                        rank_map[r] = (c, newrank)
                state._split_results[gen] = {"comms": built, "ranks": rank_map}  # type: ignore[assignment]
        self._barrier_wait()
        with state._split_lock:
            gen = state._split_gen
            entry = state._split_results[gen]
        self._barrier_wait()
        if color < 0:
            return None
        _c, newrank = entry["ranks"][self.rank]  # type: ignore[index]
        return SimComm(entry["comms"][color], newrank)  # type: ignore[index]


def waitall(requests: list[Request]) -> list[Any]:
    """Wait on every request; returns their values in order."""
    return [req.wait() for req in requests]


def run_ranks(nranks: int, fn: Callable[..., Any], args: tuple = (),
              timeout: float = DEFAULT_TIMEOUT,
              traffic: Traffic | None = None,
              scheduler: DeterministicScheduler | None = None,
              fault_plan: "FaultPlan | None" = None,
              transport: str | None = None,
              watchdog_s: float | None = None,
              heartbeat_s: float | None = None) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``nranks`` cooperating ranks.

    Returns each rank's return value, ordered by rank. If any rank
    raises, the whole run is aborted (every parked rank is woken and
    unwinds) and the lowest-ranked failure is re-raised.

    ``watchdog_s`` tunes the process transport's hung-child deadline
    (default ``$REPRO_SMPI_WATCHDOG_S``, else ``2 * timeout``) and
    ``heartbeat_s`` its per-child liveness heartbeat (default
    ``$REPRO_SMPI_HEARTBEAT_S``, else disabled); the threaded
    transport ignores both — its scheduler reports genuine deadlocks
    directly.

    ``transport`` selects how ranks execute (default: the
    ``REPRO_SMPI_TRANSPORT`` environment variable, else ``"thread"``):

    * ``"thread"`` — ranks are threads of this interpreter that run
      *one at a time*: a
      :class:`~repro.smpi.schedule.DeterministicScheduler` passes a
      single baton, and a rank hands it on only when it blocks (a
      recv with no matching message, a barrier, a probe that finds
      nothing, or exit). The default scheduler is ordered (FIFO, no
      preemption), so a run is reproducible; pass one with an integer
      seed to explore seeded, replayable interleavings instead.
      Blocked send/recv or barrier cycles are reported as
      :class:`~repro.smpi.errors.DeadlockError` with the wait-for
      cycle as soon as nobody can run; ``timeout`` bounds each
      blocking operation. A :class:`~repro.smpi.faults.FaultPlan`
      injects crashes and message faults deterministically (world
      ranks and every sub-communicator share the plan).
    * ``"process"`` — ranks are forked OS processes: the parallel
      transport, with true multi-core execution (see
      :mod:`repro.smpi.transport`). Fault plans work here too — each
      forked rank applies its inherited copy and fire-once state is
      merged back — with two transport-specific rules enforced up
      front: message faults must pin ``src``, and ``crash_hard``
      faults are *only* expressible here. Passing a scheduler raises
      :class:`~repro.smpi.errors.TransportError`.
    """
    from repro.smpi.transport import resolve_transport, run_ranks_process

    resolved = resolve_transport(transport)
    if resolved == "process":
        if scheduler is not None:
            from repro.smpi.errors import TransportError
            raise TransportError(
                "process transport does not support scheduler; "
                "deterministic scheduling requires transport='thread'"
            )
        return run_ranks_process(nranks, fn, args=args, timeout=timeout,
                                 traffic=traffic, watchdog_s=watchdog_s,
                                 fault_plan=fault_plan,
                                 heartbeat_s=heartbeat_s)
    if fault_plan is not None:
        # rejects crash_hard up front: a thread cannot die abnormally
        fault_plan.validate_for_transport("thread")
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    traffic = traffic if traffic is not None else Traffic()
    abort = threading.Event()
    scheduler = scheduler if scheduler is not None else DeterministicScheduler()
    scheduler.attach(nranks, abort)
    state = _CommState(nranks, list(range(nranks)), traffic, abort, timeout,
                       scheduler=scheduler, faults=fault_plan)
    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = SimComm(state, rank)
        try:
            scheduler.thread_started(rank)
            results[rank] = fn(comm, *args)
        except SimAbort:
            pass
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            with failures_lock:
                failures.append((rank, exc))
            abort.set()
            scheduler.abort_all()
        finally:
            scheduler.thread_finished(rank)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"smpi-rank-{r}", daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * 2)
        if t.is_alive():
            abort.set()
            scheduler.abort_all()
            with failures_lock:
                if not failures:  # prefer a rank's own error if one exists
                    raise SimMPIError(
                        f"rank thread {t.name} failed to terminate")
    if failures:
        failures.sort(key=lambda pair: pair[0])
        rank, exc = failures[0]
        raise exc
    return results


def _sum(a: Any, b: Any) -> Any:
    return a + b


def _min(a: Any, b: Any) -> Any:
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


def _max(a: Any, b: Any) -> Any:
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _prod(a: Any, b: Any) -> Any:
    return a * b


_REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _sum,
    "min": _min,
    "max": _max,
    "prod": _prod,
}
