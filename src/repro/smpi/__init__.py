"""Simulated MPI: in-process message passing between cooperating ranks.

The paper's runs use real MPI on up to 65k cores of ARCHER2. Here,
ranks are either threads of one interpreter that pass a single baton
(one rank runs at a time and hands off only when it blocks, so runs
are reproducible) or forked processes — the parallel transport. One
communicator class, :class:`SimComm`, runs over either wire and
exchanges numpy buffers with genuine blocking semantics (a misordered
send/recv deadlocks — on threads it is reported with the actual
blocked-on cycle, exactly what a hung cluster job would not tell you).
The layer provides communicators, ``split`` for the HS/CU
sub-communicator layout of the coupled solver, point-to-point and
collective operations, *traffic accounting* — per-phase message and
byte counts that drive the communication-optimization study (Table III
of the paper) — and the :class:`DeterministicScheduler` whose seeded
mode replays chosen interleavings for sweeping message-race schedules.
"""

from repro.smpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Request,
    SimAbort,
    SimComm,
    SimMPIError,
    run_ranks,
    waitall,
)
from repro.smpi.deadlock import DeadlockError, WaitEdge, format_cycle
from repro.smpi.errors import ProcessRankDied, RankFailure, TransportError
from repro.smpi.faults import CrashFault, FaultPlan, FaultRecord, MessageFault
from repro.smpi.schedule import DeterministicScheduler, ScheduleRun, sweep_schedules
from repro.smpi.traffic import Traffic, TrafficRecord
from repro.smpi.transport import (
    HEARTBEAT_ENV,
    TRANSPORTS,
    WATCHDOG_ENV,
    default_transport,
    heartbeat_seconds,
    resolve_transport,
    run_ranks_process,
    watchdog_seconds,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CrashFault",
    "DeadlockError",
    "DeterministicScheduler",
    "FaultPlan",
    "FaultRecord",
    "HEARTBEAT_ENV",
    "MessageFault",
    "ProcessRankDied",
    "RankFailure",
    "Request",
    "ScheduleRun",
    "SimAbort",
    "SimComm",
    "SimMPIError",
    "TRANSPORTS",
    "WATCHDOG_ENV",
    "Traffic",
    "TrafficRecord",
    "TransportError",
    "WaitEdge",
    "default_transport",
    "format_cycle",
    "heartbeat_seconds",
    "resolve_transport",
    "run_ranks",
    "run_ranks_process",
    "sweep_schedules",
    "waitall",
    "watchdog_seconds",
]
