"""Wait-for edges and cycle reports for simulated MPI deadlocks.

Every blocking wait (a ``recv`` with no matching message, or a
collective waiting on a member's message) parks in the run's
:class:`~repro.smpi.schedule.DeterministicScheduler` with a
:class:`WaitEdge`: *who* is blocked, in *what* operation (``recv`` or
the collective's name), and *which peers* could release it. Rank
threads run one at a time and a blocked rank is re-queued the moment
a message releases it, so when no rank holds or can take the baton
the wait is permanent — there is no hidden concurrency left that
could still send. The
scheduler then raises :class:`~repro.smpi.errors.DeadlockError` with
the edges of every blocked rank, formatted by :func:`format_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.smpi.errors import DeadlockError

__all__ = ["WaitEdge", "format_cycle", "DeadlockError"]


@dataclass(frozen=True)
class WaitEdge:
    """One blocked rank and the peers that could release it.

    All ranks are *world* ranks, whatever communicator the blocking
    operation ran on, so edges from sub-communicators and the world
    comm land in one graph.
    """

    rank: int                   #: world rank of the blocked rank
    op: str                     #: "recv" or a collective: "barrier", ...
    peers: tuple[int, ...]      #: world ranks whose action could unblock it
    tag: int | None = None      #: message tag (None = ANY_TAG / not a recv)
    detail: str = ""            #: op-specific context, e.g. "source=1"

    def describe(self) -> str:
        if self.op == "recv":
            tag = "ANY" if self.tag is None else self.tag
            return f"recv({self.detail}, tag={tag})"
        return self.op


def format_cycle(edges: Iterable[WaitEdge], done: Iterable[int] = ()) -> str:
    """Human-readable report of a wait-for cycle.

    One line per blocked rank naming its operation and the peers it
    waits on; peers that already finished are flagged, since a wait on
    an exited rank can never complete.
    """
    done = set(done)
    edges = sorted(edges, key=lambda e: e.rank)
    lines = [f"deadlock detected: {len(edges)} rank(s) blocked in a "
             f"wait-for cycle"]
    for e in edges:
        peers = ", ".join(
            f"rank {p}" + (" (finished)" if p in done else "")
            for p in e.peers
        ) or "nobody"
        lines.append(f"  rank {e.rank}: {e.describe()} <- waits on {peers}")
    return "\n".join(lines)
