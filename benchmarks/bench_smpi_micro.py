"""Microbenchmarks of the simulated-MPI substrate.

Know your substrate: how expensive are the messaging primitives the
whole coupled simulation is built on? These numbers calibrate
expectations for every other benchmark (and catch regressions in the
communicator), on both wires: thread ranks passing one baton and
forked process ranks.
"""

import numpy as np
import pytest

from repro.smpi import run_ranks

#: every measurement runs on both wires; a process-wire number includes
#: forking the ranks, so compare it against its own history
pytestmark = pytest.mark.parametrize("transport", ["thread", "process"])


@pytest.mark.parametrize("nbytes", [80, 8_000, 800_000])
def test_p2p_roundtrip(benchmark, transport, nbytes):
    payload = np.zeros(nbytes // 8)

    def roundtrips():
        def fn(comm):
            for _ in range(20):
                if comm.rank == 0:
                    comm.send(payload, dest=1)
                    comm.recv(source=1)
                else:
                    got = comm.recv(source=0)
                    comm.send(got, dest=0)

        run_ranks(2, fn, transport=transport)

    benchmark.pedantic(roundtrips, rounds=3, iterations=1)
    benchmark.extra_info["payload_bytes"] = nbytes


@pytest.mark.parametrize("nranks", [2, 8])
def test_allreduce_cost(benchmark, transport, nranks):
    def reduces():
        def fn(comm):
            buf = np.full(64, float(comm.rank))
            for _ in range(20):
                comm.allreduce(buf, "sum")

        run_ranks(nranks, fn, transport=transport)

    benchmark.pedantic(reduces, rounds=3, iterations=1)


def test_barrier_cost(benchmark, transport):
    def barriers():
        def fn(comm):
            for _ in range(50):
                comm.barrier()

        run_ranks(4, fn, transport=transport)

    benchmark.pedantic(barriers, rounds=3, iterations=1)


def test_launch_overhead(benchmark, transport):
    """Cost of spinning up and tearing down a world."""
    benchmark.pedantic(lambda: run_ranks(8, lambda comm: comm.rank,
                                         transport=transport),
                       rounds=5, iterations=1)
