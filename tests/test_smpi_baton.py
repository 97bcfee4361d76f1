"""The thread transport's baton: one rank runs at a time.

Every thread-transport ``run_ranks`` call attaches an ordered,
non-preemptive :class:`~repro.smpi.DeterministicScheduler`: a rank
keeps the baton until it blocks (a recv with no matching message, a
barrier, a probe that finds nothing, or exit) and the head of the FIFO
run queue goes next. These tests pin the semantics that serialization
must not break: polling loops terminate, per-operation timeouts still
fire while a peer holds the baton, genuine cycles are still named,
runs are reproducible, and independent worlds still run side by side.
"""

import asyncio
import time

import pytest

from repro.coupler import CoupledDriver, CoupledRunConfig
from repro.hydra import FlowState, Numerics
from repro.mesh import rig250_config
from repro.service import CostModel, EngineCase, JobRequest, JobScheduler
from repro.smpi import DeadlockError, SimMPIError, Traffic, run_ranks
from repro.telemetry.recorder import RankRecorder, use_recorder


def small_coupled_config():
    return CoupledRunConfig(
        rig=rig250_config(nr=3, nt=12, nx=4, rows=2,
                          steps_per_revolution=64),
        ranks_per_row=1, cus_per_interface=1,
        numerics=Numerics(inner_iters=2), inlet=FlowState(ux=0.5),
        p_out=1.0, transport="thread")


class TestHandOff:
    def test_probe_poll_on_higher_rank_terminates(self):
        """Rank 0 polls for a message that rank 2 only sends after
        hearing from rank 1: each empty probe hands the baton on, so
        the loop ends after a handful of spins instead of livelocking."""

        def fn(comm):
            if comm.rank == 0:
                spins = 0
                while not comm.probe(source=2, tag=7):
                    spins += 1
                    assert spins < 1000, "probe loop starved its peers"
                return comm.recv(source=2, tag=7), spins
            if comm.rank == 1:
                comm.send("hello", dest=2)
                return None
            return comm.send(comm.recv(source=1) + " world", dest=0, tag=7)

        (payload, spins), _, _ = run_ranks(3, fn, timeout=30.0)
        assert payload == "hello world"
        assert spins <= 2

    def test_sends_do_not_yield(self):
        """A send keeps the baton: the sender runs on to its next
        blocking call before the receiver sees anything."""
        order = []

        def fn(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i, dest=1)
                    order.append(("sent", i))
                comm.barrier()
                return None
            comm.barrier()
            got = [comm.recv(source=0) for _ in range(3)]
            order.append(("received", tuple(got)))
            return got

        assert run_ranks(2, fn, timeout=30.0)[1] == [0, 1, 2]
        assert order == [("sent", 0), ("sent", 1), ("sent", 2),
                         ("received", (0, 1, 2))]

    def test_blocked_recv_times_out_while_peer_holds_baton(self):
        """A parked recv honours its deadline even though the peer it
        waits on never hands the baton back before then."""
        raised_at = []

        def fn(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1, timeout=0.2)
                except SimMPIError:
                    raised_at.append(time.monotonic())
                    raise
            else:
                time.sleep(1.0)  # holds the baton, never sends

        t0 = time.monotonic()
        with pytest.raises(SimMPIError, match="timed out"):
            run_ranks(2, fn, timeout=30.0)
        assert raised_at and raised_at[0] - t0 < 0.8

    def test_genuine_cycle_still_named(self):
        def fn(comm):
            peer = 1 - comm.rank
            if comm.rank == 0:
                comm.send("first", dest=peer)
            comm.recv(source=peer, tag=9)  # nobody sends tag 9

        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match="wait-for cycle") as excinfo:
            run_ranks(2, fn, timeout=60.0)
        assert time.monotonic() - t0 < 1.0
        assert sorted(e.rank for e in excinfo.value.cycle) == [0, 1]
        assert all(e.tag == 9 for e in excinfo.value.cycle)
        message = str(excinfo.value)
        assert "rank 0" in message and "rank 1" in message


class TestTracing:
    def test_baton_wait_is_a_span_inside_recv(self):
        """Once its message arrives, a rank waits for the sender to
        block or exit; that wait is traced as ``smpi.baton`` and lies
        inside the recv span."""

        def fn(comm):
            rec = RankRecorder(rank=comm.rank)
            use_recorder(rec)
            if comm.rank == 0:
                comm.recv(source=1)
            else:
                comm.send("go", dest=0)
                time.sleep(0.05)  # keeps the baton after releasing rank 0
            return rec

        rec = run_ranks(2, fn, timeout=30.0)[0]
        rec.validate()
        (baton,) = [s for s in rec.spans if s.cat == "smpi.baton"]
        (recv,) = [s for s in rec.spans if s.cat == "smpi.recv"]
        assert baton.duration >= 0.04
        assert recv.t0 <= baton.t0 and baton.t1 <= recv.t1


class TestReproducibility:
    def test_any_source_order_is_fixed(self):
        """Without a seed the ANY_SOURCE arrival order is the FIFO
        order, identical on every run."""

        def fn(comm):
            if comm.rank == 0:
                return [comm.recv_status()[1] for _ in range(comm.size - 1)]
            comm.send(comm.rank, dest=0)
            return None

        runs = [run_ranks(4, fn, timeout=30.0)[0] for _ in range(5)]
        assert runs == [[1, 2, 3]] * 5

    def test_coupled_runs_repeat_the_ordered_ledger(self):
        fingerprints = []
        for _ in range(2):
            result = CoupledDriver(small_coupled_config()).run(2)
            assert isinstance(result.traffic, Traffic)
            fingerprints.append(result.traffic.fingerprint())
        assert fingerprints[0] == fingerprints[1]


class TestIndependentWorlds:
    def test_two_service_slots_both_finish(self, tmp_path):
        """Two jobs run at once, each world passing its own baton."""
        case = EngineCase(inner_iters=2)

        async def run():
            async with JobScheduler(
                    slots=2, checkpoint_root=tmp_path,
                    cost=CostModel(unit_seconds=1e-15, alpha=0.0)) as sched:
                handles = [await sched.submit(JobRequest(
                    tenant=t, case=case, nsteps=2)) for t in ("acme", "zen")]
                return await asyncio.gather(*(h.result() for h in handles))

        results = asyncio.run(run())
        assert all(r.ok for r in results)
        assert results[0].digest == results[1].digest
