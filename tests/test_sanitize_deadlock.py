"""Deadlock reports: wait-for cycles named in milliseconds.

An injected send/recv cycle must be reported as a wait-for cycle
naming both ranks in under a second — against a timeout set far
higher, so a pass proves the scheduler's nobody-runnable oracle fired,
not the timeout.
"""

import sys
import time

import pytest

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.smpi import (
    DeadlockError,
    SimMPIError,
    WaitEdge,
    format_cycle,
    run_ranks,
)


def expect_deadlock(nranks, fn, budget=1.0, timeout=60.0):
    """Run and return the DeadlockError, asserting it arrived fast."""
    start = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(nranks, fn, timeout=timeout)
    assert time.monotonic() - start < budget, "detector too slow"
    return excinfo.value


class TestCycleDetection:
    def test_two_rank_recv_cycle_named_within_a_second(self):
        def fn(comm):
            comm.recv(source=1 - comm.rank)  # head-on: nobody sends

        err = expect_deadlock(2, fn, budget=1.0)
        message = str(err)
        assert "rank 0" in message and "rank 1" in message
        assert "recv" in message
        assert sorted(e.rank for e in err.cycle) == [0, 1]
        for edge in err.cycle:
            assert edge.peers == (1 - edge.rank,)

    def test_three_rank_ring_cycle(self):
        def fn(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)

        err = expect_deadlock(3, fn, budget=1.5)
        assert sorted(e.rank for e in err.cycle) == [0, 1, 2]

    def test_partial_deadlock_reports_only_stuck_core(self):
        """Ranks 0/1 deadlock each other while rank 2 finishes cleanly;
        the cycle must not include the innocent rank."""

        def fn(comm):
            if comm.rank == 2:
                return "fine"
            comm.recv(source=1 - comm.rank)

        err = expect_deadlock(3, fn, budget=1.5)
        assert sorted(e.rank for e in err.cycle) == [0, 1]

    def test_barrier_vs_recv_mixed_deadlock(self):
        """One rank sits in a barrier, the other in a recv that only the
        barrier-parked rank could satisfy — a cross-op cycle."""

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.recv(source=0, tag=3)

        err = expect_deadlock(2, fn, budget=1.5)
        ops = {e.rank: e.op for e in err.cycle}
        assert ops == {0: "barrier", 1: "recv"}

    def test_tag_mismatch_is_a_deadlock(self):
        """A message with the wrong tag never matches: the recv is
        stuck even though bytes sit in the mailbox."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(1.0, dest=1, tag=5)
                comm.recv(source=1)  # never sent
            else:
                comm.recv(source=0, tag=6)  # only tag 5 exists

        err = expect_deadlock(2, fn, budget=1.5)
        assert sorted(e.rank for e in err.cycle) == [0, 1]
        tags = {e.rank: e.tag for e in err.cycle}
        assert tags[1] == 6


class TestNoFalsePositives:
    def test_slow_sender_is_not_a_deadlock(self):
        """A receiver blocked on a *live* rank that eventually sends must
        not trip the detector, however long detection polls meanwhile."""

        def fn(comm):
            if comm.rank == 0:
                return comm.recv(source=1)
            time.sleep(0.4)  # several detector poll periods
            comm.send("late", dest=0)
            return None

        assert run_ranks(2, fn, timeout=30.0)[0] == "late"

    def test_chain_behind_live_rank_is_not_a_deadlock(self):
        """1 waits on 0, 2 waits on 1: both resolvable once 0 sends."""

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.3)
                comm.send(0, dest=1)
                return None
            if comm.rank == 1:
                got = comm.recv(source=0)
                comm.send(got + 1, dest=2)
                return got
            return comm.recv(source=1)

        assert run_ranks(3, fn, timeout=30.0)[2] == 1

    def test_collectives_do_not_trip_detector(self):
        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.2)  # stagger arrivals past a poll period
            return comm.allreduce(comm.rank, "sum")

        assert run_ranks(3, fn, timeout=30.0) == [3, 3, 3]


class TestFinishedPeers:
    def test_wait_on_finished_rank_is_terminal(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        err = expect_deadlock(2, fn, budget=1.0)
        assert "(finished)" in str(err)
        assert [e.rank for e in err.cycle] == [0]

    @pytest.mark.parametrize("op", ["barrier", "allreduce", "allgather"])
    def test_barrier_missing_finished_rank(self, op):
        """A collective waits through point-to-point matching, yet the
        wait is reported under the collective's name."""

        def fn(comm):
            if comm.rank == 0:
                return  # skips the collective and exits
            getattr(comm, op)(*(() if op == "barrier" else (1.0,)))

        err = expect_deadlock(2, fn, budget=1.0)
        assert [(e.rank, e.op, e.peers) for e in err.cycle] == [(1, op, (0,))]
        assert f"rank 1: {op} <- waits on rank 0 (finished)" in str(err)


class TestNoSpuriousDeadlock:
    """Regression: the free-threaded wait-for detector the scheduler
    replaced could raise a spurious DeadlockError under many short
    ANY_SOURCE exchanges. The scheduler reports only when no rank can
    run at all."""

    def test_stress_any_source_and_coupled_run(self):
        def exchange(comm):
            if comm.rank == 0:
                got = sorted(comm.recv() for _ in range(comm.size - 1))
                for dst in range(1, comm.size):
                    comm.send(sum(got), dest=dst, tag=1)
                return got
            comm.send(comm.rank, dest=0)
            return comm.recv(source=0, tag=1)

        deadlocks = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force thread switches mid-handoff
        try:
            for i in range(300):
                try:
                    out = run_ranks(2 + i % 4, exchange, timeout=30.0)
                except DeadlockError:
                    deadlocks += 1
                    continue
                assert out[1] == sum(range(1, len(out)))
            rig = rig250_config(nr=3, nt=12, nx=4, rows=2,
                                steps_per_revolution=64)
            try:
                CoupledDriver(CoupledRunConfig(
                    rig=rig, numerics=Numerics(inner_iters=2),
                    inlet=FlowState(ux=0.5), p_out=1.0,
                    transport="thread")).run(2)
            except DeadlockError:
                deadlocks += 1
        finally:
            sys.setswitchinterval(interval)
        assert deadlocks == 0


class TestRegistryUnit:
    """Cycle-report helpers independent of the comm layer."""

    def test_format_cycle_flags_finished_peers(self):
        text = format_cycle(
            [WaitEdge(0, "recv", peers=(1,), tag=4, detail="source=1")],
            done={1})
        assert "rank 0" in text
        assert "tag=4" in text
        assert "rank 1 (finished)" in text

    def test_deadlock_error_is_simmpi_error(self):
        assert issubclass(DeadlockError, SimMPIError)
