"""Benchmark-side instrumentation of the program's layers.

Nothing here edits the program: :class:`Tracer` swaps wrappers onto
public functions for the duration of a traced pass and restores the
originals afterwards, and :class:`NativeEvents` counts compiled-backend
compiles and fallbacks through a log file, so events inside forked rank
processes (which cannot report back in memory) are counted too.

Each span records wall time (``perf_counter``) and busy time
(``thread_time``). On the thread transport wall time alone is useless
for attribution: nineteen rank threads share one interpreter lock, so a
span's wall time counts every wait for the lock. A span's *self* time
is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: kernels whose time and computed bandwidth are reported one by one
KERNELS = ("flux_edge", "dual_source", "blade_force", "rk_stage",
           "wall_flux", "zero_res")


def loop_bytes(iterset, args) -> int:
    """Computed bytes one par_loop moves, from its access descriptors.

    OP2's "useful data" convention: every dat element the loop touches
    is read once and/or written once (an INC or RW arg counts both),
    each distinct map table is read once, and Globals are free. Cache
    misses, write-allocate traffic and the redundant exec-halo range are
    ignored, so this is a lower bound on the traffic — "computed", not
    measured.
    """
    touched: dict[int, list] = {}
    maps: dict[int, object] = {}
    for arg in args:
        if not arg.is_dat:
            continue
        dat = arg.data
        n = iterset.size if arg.map is None else arg.map.to_set.size
        slot = touched.setdefault(id(dat), [dat, 0, False, False])
        slot[1] = max(slot[1], n)
        name = arg.access.name
        slot[2] |= name in ("READ", "RW", "INC")
        slot[3] |= name in ("WRITE", "RW", "INC")
        if arg.map is not None:
            maps[id(arg.map)] = arg.map
    total = 0
    for dat, n, reads, writes in touched.values():
        total += n * dat.dim * dat.dtype.itemsize * (int(reads) + int(writes))
    for m in maps.values():
        total += iterset.size * m.arity * m.values.dtype.itemsize
    return total


class _Stat:
    __slots__ = ("calls", "wall", "busy", "self_wall", "self_busy", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = self.busy = self.self_wall = self.self_busy = 0.0
        self.bytes = 0


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    Statistics are keyed by ``(layer, key, thread ident)``: the key is a
    kernel name for par_loops and empty otherwise; the thread ident
    separates rank threads so per-rank maxima can be taken.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[tuple[str, str, int], _Stat] = defaultdict(_Stat)

    def wrap(self, owner, attr: str, layer: str, key=None,
             nbytes=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(args, kwargs)`` names the span within its layer;
        ``nbytes(args, kwargs, result)`` adds a byte count to it.
        """
        original = getattr(owner, attr)
        tls, lock, stats = self._tls, self._lock, self.stats

        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            child = [0.0, 0.0]
            stack.append(child)
            w0 = time.perf_counter()
            b0 = time.thread_time()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                dw = time.perf_counter() - w0
                db = time.thread_time() - b0
                stack.pop()
                if stack:
                    stack[-1][0] += dw
                    stack[-1][1] += db
                name = key(args, kwargs) if key is not None else ""
                extra = (nbytes(args, kwargs, result)
                         if nbytes is not None else 0)
                with lock:
                    s = stats[(layer, name, threading.get_ident())]
                    s.calls += 1
                    s.wall += dw
                    s.busy += db
                    s.self_wall += dw - child[0]
                    s.self_busy += db - child[1]
                    s.bytes += extra

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.op2 as op2
        import repro.op2.chain as chain
        import repro.op2.halo as halo
        import repro.op2.parloop as parloop
        from repro.coupler.unit import CUTransferEngine
        from repro.hydra.session import HydraSession
        from repro.hydra.solver import HydraSolver
        from repro.resilience.checkpoint import CheckpointManager
        from repro.service.dedup import SetupCache
        from repro.service.scheduler import JobScheduler

        self.wrap(op2, "par_loop", "op2.par_loop",
                  key=lambda a, kw: a[0].name,
                  nbytes=lambda a, kw, r: loop_bytes(a[1], a[2:]))
        # callers bind the exchange functions by name, so each binding
        # is wrapped where it is looked up
        for owner in (parloop, halo, op2):
            self.wrap(owner, "exchange_halos", "op2.halo")
        for name in ("exchange_halos_multi_begin", "exchange_halos_multi_end"):
            self.wrap(chain, name, "op2.halo")
        self.wrap(op2, "exchange_halos_multi", "op2.halo")
        self.wrap(HydraSolver, "advance_physical", "hydra.step")
        self.wrap(CUTransferEngine, "serve", "coupler.engine")
        self.wrap(HydraSession, "donor_values", "coupler.hs_side")
        self.wrap(HydraSession, "apply_halo_values", "coupler.hs_side")
        self.wrap(CheckpointManager, "write_member", "resilience.write",
                  nbytes=lambda a, kw, r: Path(r).stat().st_size
                  if r is not None else 0)
        self.wrap(CheckpointManager, "commit", "resilience.commit")
        self.wrap(SetupCache, "get", "service.setup_cache_get")
        self.wrap(JobScheduler, "submit", "service.submit")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def total(self, layer: str, field: str, key: str | None = None) -> float:
        return sum(getattr(s, field) for (lay, k, _t), s in self.stats.items()
                   if lay == layer and (key is None or k == key))

    def per_thread(self, layer: str, field: str) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for (lay, _k, tid), s in self.stats.items():
            if lay == layer:
                out[tid] += getattr(s, field)
        return dict(out)

    def layer_metrics(self, steps: int, hs_ranks: int) -> dict:
        """op2 / op2.halo / hydra / coupler-side metrics per physical step.

        ``steps`` normalises totals (physical steps of the machine, or of
        all jobs for the service); ``hs_ranks`` is the number of Hydra
        Session ranks the halo time is averaged over.
        """
        per = 1.0 / max(steps, 1)
        out = {
            "op2.par_loop.calls": self.total("op2.par_loop", "calls") * per,
            "op2.par_loop.busy_s":
                self.total("op2.par_loop", "self_busy") * per,
        }
        for k in KERNELS:
            busy = self.total("op2.par_loop", "self_busy", k)
            nbytes = self.total("op2.par_loop", "bytes", k)
            out[f"op2.kernel.{k}.busy_s"] = busy * per
            out[f"op2.kernel.{k}.gbytes_per_s"] = (
                nbytes / busy / 1e9 if busy > 0 else 0.0)
        halo_wall = self.total("op2.halo", "wall")
        out["op2.halo.exchanges"] = self.total("op2.halo", "calls") * per
        out["op2.halo.wall_s"] = halo_wall / max(hs_ranks, 1) * per
        step_wall = self.per_thread("hydra.step", "wall")
        out["hydra.step.wall_s"] = max(step_wall.values(), default=0.0) * per
        out["hydra.step.self_busy_s"] = (
            self.total("hydra.step", "self_busy") * per)
        total_step_wall = sum(step_wall.values())
        out["op2.halo.share_of_step"] = (
            halo_wall / total_step_wall if total_step_wall > 0 else 0.0)
        return out


class NativeEvents:
    """Counts compiled-backend compiles and fallbacks, forked ranks too.

    Wraps the native backend's compile and load helpers so every
    successful compile and every load that degrades to a fallback
    appends one line to ``path``. The wrappers are installed before any
    rank process forks, so children inherit them; appends of one short
    line are atomic, so concurrent ranks cannot interleave lines.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.touch()

    def install(self) -> None:
        import repro.op2.backends.native as native

        log = self.path
        compile_ = native._compile
        load = native._load_compiled

        def note(line: str) -> None:
            with open(log, "a") as fh:
                fh.write(line + "\n")

        def counted_compile(source, cc, cflags, so_path):
            err = compile_(source, cc, cflags, so_path)
            if err is None:
                note(f"compiled {os.getpid()} {Path(so_path).name}")
            return err

        def counted_load(source, stem, entry_name):
            loaded = load(source, stem, entry_name)
            if isinstance(loaded, native._Fallback) and loaded.warn:
                reason = " ".join(loaded.reason.split())
                note(f"fallback {os.getpid()} {stem} {reason}")
            return loaded

        native._compile = counted_compile
        native._load_compiled = counted_load

    def counts(self) -> dict[str, int]:
        lines = self.path.read_text().splitlines()
        return {"compiled": sum(ln.startswith("compiled ") for ln in lines),
                "fallbacks": sum(ln.startswith("fallback ") for ln in lines)}
