"""Simulated MPI communicators: one Comm, two wires.

:class:`SimComm` is the only communicator class. It owns everything a
rank sees — message matching, collectives, ``split``, the fault path,
the traffic ledger, telemetry spans and the wait-for edge of every
blocking wait — and sits on a *wire* that only moves messages:
``post`` a message, ``wait`` until a predicate holds, ``poll`` for a
probe, ``beat`` for liveness, and an ``abort`` event. There are two:

* the **thread wire** (:class:`_ThreadWire`, here): ranks are threads of
  one interpreter that run **one at a time**. Every run attaches a
  :class:`~repro.smpi.schedule.DeterministicScheduler` that passes a
  single baton, and a rank hands it on only when it blocks — a wait
  with no matching message (a ``recv`` or a collective), a ``probe``
  that finds nothing, or exit. The default policy is ordered (the next
  rank is the head of a FIFO run queue) and non-preemptive, so runs
  are reproducible and the rank threads never contend for the
  interpreter lock. An integer-seeded scheduler (``run_ranks(...,
  scheduler=...)``) instead yields after every post and draws each
  decision from a seeded RNG, which turns ``ANY_SOURCE`` and ``probe``
  races from flaky into sweepable.
* the **process wire** (:mod:`repro.smpi.transport`): ranks are forked
  processes with real parallelism.

Blocking semantics are real — a ``recv`` with no matching ``send``
blocks, mirroring a hung MPI job — but on threads hangs are
*diagnosed*, not merely timed out: each wait parks with a wait-for
edge, and when no rank can take the baton the scheduler raises
:class:`~repro.smpi.errors.DeadlockError` naming the full cycle (rank
0 waiting on rank 1 waiting on rank 0, or a wait on a rank that
already exited). The per-operation timeout remains as a backstop for
ranks stuck *outside* MPI, and its error names the same edge.

Design notes
------------
* Payloads are copied on post (value semantics, like a real network):
  a sender mutating its buffer after ``send`` cannot corrupt the
  receiver — the classic MPI buffer contract.
* Every message carries ``(comm_id, kind, src, tag)``; each rank keeps
  one buffer per communicator id and receives match the oldest entry
  (the MPI non-overtaking rule).
* Collectives are ``kind="coll"`` point-to-point messages tagged with a
  per-communicator sequence number: fan in to the root, fold in
  ascending rank order, fan back out. Reductions are therefore
  bitwise-identical on both wires. Collective messages stay out of the
  traffic ledger and the fault plan.
* Sub-communicators from :meth:`SimComm.split` are deterministic
  ``comm_id`` namespaces over the same wire, so HS and CU groups of the
  coupled solver cannot interfere — but they share the world's
  scheduler and traffic ledger.
* All traffic is recorded in a :class:`~repro.smpi.traffic.Traffic`
  ledger keyed by *world* ranks, whatever communicator carried it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
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


class _ThreadWire:
    """One rank's end of the in-process wire of a thread-transport world.

    Every rank owns a buffer per communicator id; a post copies the
    payload (numpy value semantics) straight into the receiver's buffer
    and pokes the receiver in the run's
    :class:`~repro.smpi.schedule.DeterministicScheduler`. Waits park in
    that scheduler, which passes the single baton and reports deadlocks
    from the edges it is handed. A seeded scheduler yields after each
    post and at satisfied waits (``preemptive``).

    The buffers need no lock, even for a rank that times out and runs
    on without the baton: only the owning rank removes entries, and
    other ranks only append, which moves no index the owner found.
    """

    def __init__(self, world_rank: int, inboxes: list[dict[str, list]],
                 scheduler: DeterministicScheduler, abort: threading.Event,
                 traffic: Traffic, faults: "FaultPlan | None",
                 timeout: float) -> None:
        self.world_rank = world_rank
        self._inboxes = inboxes
        self._scheduler = scheduler
        self.preemptive = scheduler.preemptive
        self.abort = abort
        self.traffic = traffic
        self.faults = faults
        self.timeout = timeout

    def inbox(self, comm_id: str) -> list:
        return self._inboxes[self.world_rank][comm_id]

    def post(self, dst_world: int, comm_id: str, kind: str, tag: int,
             obj: Any) -> None:
        self._inboxes[dst_world][comm_id].append(
            (kind, self.world_rank, tag, _copy_payload(obj)))
        self._scheduler.poke(dst_world)
        if self.preemptive:
            self._scheduler.yield_baton(self.world_rank)

    def wait(self, ready: Callable[[], bool], edge: WaitEdge,
             timeout: float) -> bool:
        if not self._scheduler.wait_until(ready, edge, timeout):
            return False
        if self.abort.is_set():
            raise SimAbort("run aborted by another rank")
        return True

    def poll(self) -> None:
        """Hand the baton on: only another rank can post a message."""
        self._scheduler.yield_baton(self.world_rank)

    def beat(self) -> None:
        """No liveness reporting: the scheduler sees every wait."""


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


class SimComm:
    """One rank's view of a simulated-MPI communicator, on either wire.

    ``world_ranks`` lists the members' world ranks in communicator rank
    order; ``comm_id`` names the communicator's message namespace on
    the wire (``"world"``, or a deterministic id derived by
    :meth:`split`).
    """

    def __init__(self, wire: Any, world_ranks: Sequence[int], rank: int,
                 comm_id: str = "world") -> None:
        self._wire = wire
        self._world = list(world_ranks)
        self._local = {w: r for r, w in enumerate(self._world)}
        self.rank = rank
        self.comm_id = comm_id
        self._inbox: list = wire.inbox(comm_id)
        #: collective sequence tag; every member calls collectives in
        #: the same program order, so the tags agree without negotiation
        self._seq = 0
        self._op = ""
        self._splits = 0

    # -- introspection -------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._world)

    @property
    def traffic(self) -> Traffic:
        return self._wire.traffic

    @property
    def world_rank(self) -> int:
        """This rank's id in the world communicator."""
        return self._world[self.rank]

    def set_phase(self, phase: str) -> None:
        """Label subsequent sends from this rank for traffic accounting."""
        self._wire.traffic.set_phase(self.world_rank, phase)

    # -- fault injection ------------------------------------------------
    def notify_step(self, step: int) -> None:
        """Announce a physical-step boundary to the installed fault plan.

        No-op without a plan. A matching crash fault raises
        :class:`~repro.smpi.errors.RankFailure` here (a hard crash kills
        the rank's process), which aborts the world through the
        standard failure path. On processes this also beats the
        liveness heartbeat.
        """
        self._wire.beat()
        plan = self._wire.faults
        if plan is not None:
            plan.on_step(self.world_rank, step)

    # -- matching ---------------------------------------------------------
    def _find(self, kind: str, src: int, tag: int) -> int | None:
        """Index of the oldest buffered message matching, else None."""
        for i, (k, s, t, _p) in enumerate(self._inbox):
            if k == kind and src in (ANY_SOURCE, s) and tag in (ANY_TAG, t):
                return i
        return None

    def _take(self, kind: str, src: int, tag: int, timeout: float,
              op: str) -> tuple[str, int, int, Any]:
        """Blocking matched receive of ``(kind, src_world, tag, payload)``.

        ``src`` is a world rank or ``ANY_SOURCE``; ``op`` labels the
        wait-for edge (``"recv"`` or the enclosing collective's name).
        """
        wire = self._wire
        i = self._find(kind, src, tag)
        if i is None or wire.preemptive:
            edge = self._edge(op, src, tag if kind == "p2p" else None)
            if not wire.wait(lambda: self._find(kind, src, tag) is not None,
                             edge, timeout):
                peers = ", ".join(f"rank {p}" for p in edge.peers)
                raise SimMPIError(
                    f"rank {edge.rank}: {edge.describe()} timed out after "
                    f"{timeout:.1f}s waiting on {peers or 'nobody'} "
                    f"— deadlock?")
            i = self._find(kind, src, tag)
        return self._inbox.pop(i)

    def _edge(self, op: str, src: int, tag: int | None) -> WaitEdge:
        if src == ANY_SOURCE:
            peers = tuple(w for w in self._world if w != self.world_rank)
            detail = "source=ANY"
        else:
            peers, detail = (src,), f"source={src}"
        return WaitEdge(rank=self.world_rank, op=op, peers=peers,
                        tag=None if tag == ANY_TAG else tag, detail=detail)

    # -- point to point --------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send with value semantics (the receiver gets a copy).

        With a fault plan installed the message takes the one fault
        path: record, classify (``on_send``), corrupt a private copy,
        hold a send-time snapshot, deliver, release held messages.
        """
        if not 0 <= dest < self.size:
            raise SimMPIError(f"send dest {dest} out of range [0, {self.size})")
        wire = self._wire
        dst = self._world[dest]
        nbytes = payload_nbytes(obj)
        wire.traffic.record(self.world_rank, dst, nbytes)
        rec = active_recorder()
        if rec is not None:
            rec.instant("send", "smpi.send", dst=dst, tag=tag, nbytes=nbytes,
                        phase=wire.traffic.phase_of(self.world_rank))
            rec.counter("smpi.messages")
            rec.counter("smpi.nbytes", nbytes)
        plan = wire.faults
        if plan is None:
            wire.post(dst, self.comm_id, "p2p", tag, obj)
            return
        actions = plan.on_send(self.world_rank, dst, tag)
        if actions.corrupt is not None or actions.hold:
            # the sender's buffer must neither see the corruption nor
            # leak later writes into a message still held back
            obj = _copy_payload(obj)
        if actions.corrupt is not None:
            obj = actions.corrupt(obj)
        comm_id = self.comm_id
        if actions.hold:
            plan.hold_message(self.world_rank, dst,
                              lambda: wire.post(dst, comm_id, "p2p", tag, obj))
            return
        for _ in range(actions.deliver):
            wire.post(dst, comm_id, "p2p", tag, obj)
        # a prior delayed message to this destination arrives *after*
        # this one — the reordering the delay fault models
        plan.release_held(self.world_rank, dst)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        """Blocking receive; returns the payload.

        ``timeout`` overrides the communicator-wide default for this
        one receive — serve loops use it so a dead client degrades to
        a :class:`~repro.smpi.errors.SimMPIError` instead of a hang.
        """
        return self.recv_status(source, tag, timeout)[0]

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                    timeout: float | None = None) -> tuple[Any, int, int]:
        """Blocking receive returning ``(payload, source, tag)``."""
        timeout = self._wire.timeout if timeout is None else timeout
        src = source if source == ANY_SOURCE else self._world[source]
        rec = active_recorder()
        t0 = time.perf_counter() if rec is not None else 0.0
        _k, s, t, payload = self._take("p2p", src, tag, timeout, "recv")
        if rec is not None:
            rec.add_span("recv", "smpi.recv", t0, time.perf_counter(),
                         src=s, tag=t)
        return payload, self._local[s], t

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self.send(obj, dest, tag)
        return Request(_done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(_resolve=lambda: self.recv(source, tag))

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Nonblocking check for a matching pending message.

        A probe that finds nothing polls the wire: on threads it hands
        the baton on (a seeded schedule yields at every probe), so a
        probe-poll loop cannot starve the rank it is waiting on; on
        processes it drains the rank's queue.
        """
        src = source if source == ANY_SOURCE else self._world[source]
        if self._wire.preemptive or self._find("p2p", src, tag) is None:
            self._wire.poll()
        return self._find("p2p", src, tag) is not None

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (safe against head-on exchanges)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives -------------------------------------------------------
    # Point-to-point messages of kind "coll" tagged with the collective's
    # sequence number, so user tags can never collide. They bypass the
    # traffic ledger and the fault plan.
    def _collective(self, op: str):
        """Start collective ``op``: next sequence tag, one span."""
        self._seq += 1
        self._op = op
        return _tspan(op, "smpi.collective", size=self.size)

    def _coll_send(self, obj: Any, dest: int) -> None:
        self._wire.post(self._world[dest], self.comm_id, "coll", self._seq,
                        obj)

    def _coll_recv(self, source: int) -> Any:
        return self._take("coll", self._world[source], self._seq,
                          self._wire.timeout, self._op)[3]

    def _fan_in(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Every member's ``obj`` at ``root``, in ascending rank order."""
        if self.rank != root:
            self._coll_send(obj, root)
            return None
        return [_copy_payload(obj) if r == root else self._coll_recv(r)
                for r in range(self.size)]

    def _fan_out(self, value: Any, root: int = 0) -> Any:
        """``root``'s ``value`` on every member."""
        if self.rank != root:
            return self._coll_recv(root)
        for r in range(self.size):
            if r != root:
                self._coll_send(value, r)
        return _copy_payload(value)

    def barrier(self) -> None:
        with self._collective("barrier"):
            self._fan_in(None)
            self._fan_out(None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        with self._collective("bcast"):
            return self._fan_out(obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        with self._collective("gather"):
            return self._fan_in(obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        with self._collective("allgather"):
            return self._fan_out(self._fan_in(obj))

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        with self._collective("scatter"):
            if self.rank != root:
                return self._coll_recv(root)
            if objs is None or len(objs) != self.size:
                raise SimMPIError(
                    f"scatter root must supply {self.size} items, got "
                    f"{None if objs is None else len(objs)}"
                )
            for r in range(self.size):
                if r != root:
                    self._coll_send(objs[r], r)
            return _copy_payload(objs[root])

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] | str = "sum",
               root: int = 0) -> Any | None:
        result = self.allreduce(obj, op)
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | str = "sum") -> Any:
        """Reduce at rank 0 in ascending rank order, then broadcast —
        the same floating-point result on every wire."""
        if isinstance(op, str) and op not in _REDUCE_OPS:
            raise SimMPIError(f"unknown reduce op {op!r}; use one of {sorted(_REDUCE_OPS)}")
        fn = _REDUCE_OPS[op] if isinstance(op, str) else op
        with self._collective("allreduce"):
            slots = self._fan_in(obj)
            if slots is None:
                return self._fan_out(None)
            acc = slots[0]
            for other in slots[1:]:
                acc = fn(acc, other)
            return self._fan_out(acc)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise SimMPIError(f"alltoall needs {self.size} items, got {len(objs)}")
        with self._collective("alltoall"):
            for r in range(self.size):
                if r != self.rank:
                    self._coll_send(objs[r], r)
            return [_copy_payload(objs[r]) if r == self.rank
                    else self._coll_recv(r) for r in range(self.size)]

    # -- communicator management ---------------------------------------
    def split(self, color: int, key: int | None = None) -> "SimComm | None":
        """Partition the communicator by ``color``; order ranks by ``key``.

        A negative ``color`` opts the rank out (returns ``None``), like
        ``MPI_UNDEFINED``. All ranks of this communicator must call.
        Every member derives the same grouping from the same gathered
        ``(color, key, rank)`` triples, so the sub-communicator's id —
        ``"{parent}/{n}.{color}"`` — agrees everywhere without a
        coordinator.
        """
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank))
        self._splits += 1
        if color < 0:
            return None
        ranks = [r for _k, r in sorted((k, r) for c, k, r in triples
                                       if c == color)]
        return SimComm(self._wire, [self._world[r] for r in ranks],
                       ranks.index(self.rank),
                       f"{self.comm_id}/{self._splits}.{color}")


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
      recv or collective with no matching message, a probe that finds
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
    inboxes: list[dict[str, list]] = [defaultdict(list) for _ in range(nranks)]
    results: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = SimComm(_ThreadWire(rank, inboxes, scheduler, abort, traffic,
                                   fault_plan, timeout), range(nranks), rank)
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
