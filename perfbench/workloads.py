"""The benchmark's workloads: set-up, timed work, traced pass, checks.

Every workload takes the benchmark's seed and turns it into program
inputs here; the program only sees the generated inputs. Each one is
chosen so that one group of layers does most of its work (see
NOTES.md):

* ``rig250-flagship`` — the 10-row coupled machine on the program's
  defaults: op2 kernel compute and coupler serve/wait;
* ``rig250-halo-process`` — two rows split over two ranks each on
  forked rank processes with the compiled backend: halo exchange,
  process-wire messaging and the compile cache;
* ``service-openloop`` — a seeded open loop into the job service:
  queueing, admission, set-up dedup and checkpoint write/restore.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import Tracer

#: band-centre results of the coupled workloads (``run.py --write-reference``)
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: a run whose interface mass-flow jump exceeds this fails the check
#: (healthy runs of both coupled workloads stay below 0.01)
MASS_MISMATCH_BOUND = 0.05
#: warm-up runs allowed while the compiled backend still falls back
MAX_WARMUPS = 5
#: timed operations per run, at least, however short ``--seconds`` is
MIN_SAMPLES = 3
#: band centre of the coupled operating point (the program's defaults);
#: every set-up recomputes it and checks it against reference.json
CENTRE = (0.5, 1.02)


class Gate:
    """Correctness accounting: operations attempted, failed, and why.

    An operation fails when it raises, is refused, or produces a wrong
    output; only the last kind counts as ``wrong``, which is what the
    result's ``correct`` reports.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """One operation that completed; ``problems`` are wrong outputs."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(problems[:3])

    def error(self, what: str) -> None:
        """One operation that raised or was refused (no output to check)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def tail_of(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` of the highest
    percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten beyond it;
    the upper quartile (nearest rank) is reported then, because the
    maximum of a handful of runs tracks single host hiccups.
    """
    xs = sorted(values)
    n = len(xs)
    i = math.ceil(0.75 * n) - 1 if n < 21 else n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


# --------------------------------------------------------------------------
# coupled workloads
# --------------------------------------------------------------------------

def reference_record(result) -> dict:
    return {"rows": [{"name": row["name"],
                      "stations_p": list(row["stations_p"]),
                      "midcut_p": np.asarray(row["midcut_p"]).tolist()}
                     for row in result.rows]}


def compare_reference(result, ref: dict, rtol: float = 1e-10) -> list[str]:
    problems = []
    if len(ref["rows"]) != len(result.rows):
        return [f"{len(result.rows)} rows, reference has {len(ref['rows'])}"]
    for row, want in zip(result.rows, ref["rows"]):
        for key in ("stations_p", "midcut_p"):
            got = np.asarray(row[key], dtype=np.float64)
            exp = np.asarray(want[key], dtype=np.float64)
            if got.shape != exp.shape or not np.allclose(
                    got, exp, rtol=rtol, atol=0.0):
                err = (float(np.max(np.abs(got - exp) / np.abs(exp)))
                       if got.shape == exp.shape else float("inf"))
                problems.append(f"{row['name']}.{key} differs from the "
                                f"reference (max rel {err:.3g})")
    return problems


def health_problems(result) -> list[str]:
    problems = []
    ratio = result.pressure_ratio()
    if not math.isfinite(ratio):
        problems.append(f"pressure ratio {ratio}")
    mismatch = result.interface_mass_mismatch()
    if not mismatch < MASS_MISMATCH_BOUND:
        problems.append(f"interface mass mismatch {mismatch:.3g} "
                        f">= {MASS_MISMATCH_BOUND}")
    for row in result.rows:
        if not np.all(np.isfinite(np.asarray(row["midcut_p"]))):
            problems.append(f"{row['name']} mid-cut is not finite")
    return problems


@dataclass
class Coupled:
    """A coupled-machine workload: one timed operation is one
    ``CoupledDriver.run(steps)`` call, a fresh run from t=0."""

    name: str
    rows: int
    steps: int
    nr: int = 4
    nt: int = 32
    nx: int = 6
    ranks_per_row: int = 1
    partial_halos: bool = False
    transport: str | None = None       #: None = the program's default
    backend: str | None = None         #: None = the program's default
    native_threads: int = 0

    def operating_point(self, seed: int) -> tuple[float, float]:
        """Inlet velocity and outlet pressure, from a narrow band."""
        rng = random.Random(f"{self.name}:{seed}")
        return (CENTRE[0] + rng.uniform(-0.02, 0.02),
                CENTRE[1] + rng.uniform(-0.005, 0.005))

    def config(self, point, transport: str | None = None):
        from repro.coupler import CoupledRunConfig
        from repro.hydra.gas import FlowState
        from repro.mesh import rig250_config

        rig = rig250_config(nr=self.nr, nt=self.nt, nx=self.nx,
                            rows=self.rows)
        return CoupledRunConfig(
            rig=rig, ranks_per_row=self.ranks_per_row,
            partial_halos=self.partial_halos,
            transport=transport or self.transport,
            inlet=FlowState(ux=point[0]), p_out=point[1])

    def _configure_backend(self) -> None:
        if self.backend is None:
            return
        from repro import op2

        op2.set_default_config(backend=self.backend,
                               native_threads=self.native_threads)
        op2.set_config(backend=self.backend,
                       native_threads=self.native_threads)

    def _resolved(self) -> dict:
        from repro import op2
        from repro.smpi.transport import resolve_transport

        return {"backend": op2.current_config().backend,
                "native_threads": op2.current_config().native_threads,
                "transport": resolve_transport(self.transport)}

    def setup(self, seed: int, work: Path, events, gate: Gate) -> dict:
        """Build the drivers and warm every cache; returns the state.

        The warm-up runs the band centre so each run re-checks it
        against the stored reference; it repeats while the compiled
        backend still reports fallbacks (the cold-cache race), and that
        time stays inside ``setup_s``.
        """
        from repro.coupler import CoupledDriver

        reference = json.loads(REFERENCE.read_text())[self.name]
        t0 = time.perf_counter()
        self._configure_backend()
        centre = CoupledDriver(self.config(CENTRE))
        build_s = time.perf_counter() - t0
        warmups = 0
        while True:
            before = events.counts()["fallbacks"]
            try:
                result = centre.run(1)
            except Exception as exc:  # counted as a failed operation
                gate.error(f"warm-up raised {type(exc).__name__}: {exc}")
            else:
                gate.record(health_problems(result)
                            + compare_reference(result, reference))
            warmups += 1
            clean = events.counts()["fallbacks"] == before
            if clean or warmups >= MAX_WARMUPS:
                break
        t1 = time.perf_counter()
        driver = CoupledDriver(self.config(self.operating_point(seed)))
        build_s += time.perf_counter() - t1
        counts = events.counts()
        return {"driver": driver, "setup_s": time.perf_counter() - t0,
                "driver_build_s": build_s, "warmup_runs": warmups,
                "native_compiled": counts["compiled"],
                "native_fallbacks": counts["fallbacks"],
                "resolved": self._resolved()}

    def _timed_run(self, driver, gate: Gate, digests: set) -> tuple:
        from repro.service.api import result_digest

        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            result = driver.run(self.steps)
        except Exception as exc:  # counted as a failed operation
            gate.error(f"run raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - w0, cpu_seconds() - c0
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        problems = health_problems(result)
        digests.add(result_digest(result))
        if len(digests) > 1:
            problems.append("repeated runs are not bitwise equal")
        gate.record(problems)
        return result, wall, cpu

    def measure(self, state: dict, seconds: float, seed: int, work: Path,
                gate: Gate) -> dict:
        driver = state["driver"]
        walls, cpus, digests = [], [], set()
        t0 = time.perf_counter()
        attempts = 0
        while (len(walls) < MIN_SAMPLES and attempts < 2 * MIN_SAMPLES
               or time.perf_counter() - t0 < seconds):
            attempts += 1
            result, wall, cpu = self._timed_run(driver, gate, digests)
            if result is not None:
                walls.append(wall)
                cpus.append(cpu)
        busy = time.perf_counter() - t0
        tail, pct, beyond = tail_of(walls)
        return {
            "metrics": {
                "cpu_s_per_step": statistics.median(cpus) / self.steps,
            },
            "detail": {"samples": len(walls), "steps_per_run": self.steps,
                       "wall": self._wall(statistics.median(walls), tail,
                                          len(walls) / busy),
                       "tail_percentile": pct, "tail_beyond": beyond,
                       "walls": [round(w, 4) for w in walls]},
        }

    def _wall(self, p50: float, tail: float, per_s: float) -> dict:
        """Wall-clock view of timed ``run(N)`` calls; a "job" is one call,
        so its latency is the run's time to solution."""
        return {"step_s": p50 / self.steps, "job_latency_p50_s": p50,
                "job_latency_tail_s": tail, "jobs_per_s": per_s}

    def trace(self, state: dict, seconds: float, seed: int, work: Path,
              gate: Gate) -> dict:
        """Per-layer split from one traced run on the thread transport.

        Wrappers inside forked rank processes cannot report back, so a
        process-transport workload is traced on threads with the same
        config. Its counts equal the process run's (the traffic
        structure fingerprints are compared); its times are thread
        times.
        """
        from repro.coupler import CoupledDriver

        point = self.operating_point(seed)
        structure = None
        wall = None
        if state["resolved"]["transport"] == "process":
            result, wall, _c = self._timed_run(state["driver"], gate, set())
            if result is not None:
                structure = result.traffic.structure_fingerprint()
            driver = CoupledDriver(self.config(point, transport="thread"))
            driver.run(1)  # load compiled objects into this process
        else:
            driver = state["driver"]
        digests: set = set()
        _r, untraced, _c = self._timed_run(driver, gate, digests)
        with Tracer() as tracer:
            result, traced, _c = self._timed_run(driver, gate, digests)
        if result is None:
            return {}
        if structure is not None:
            same = result.traffic.structure_fingerprint() == structure
            gate.record([] if same else [
                "thread and process runs differ in message structure"])
        hs_ranks = self.rows * self.ranks_per_row
        rounds = self.steps + 1
        out = tracer.layer_metrics(self.steps, hs_ranks)
        phases = result.traffic.by_phase()
        halo = [v for k, v in phases.items() if k.startswith("halo")]
        out["op2.halo.messages"] = sum(v["messages"] for v in halo) / self.steps
        out["op2.halo.bytes"] = sum(v["nbytes"] for v in halo) / self.steps
        out["smpi.messages"] = result.traffic.total_messages() / self.steps
        out["smpi.bytes"] = result.traffic.total_nbytes() / self.steps
        cus = result.cus
        # serve time includes the CU's wait for donors; like the wait,
        # it is reported for the busiest unit
        out["coupler.serve_s"] = max(c["serve_seconds"] for c in cus) / rounds
        out["coupler.serve_compute_s"] = max(
            c["serve_compute_seconds"] for c in cus) / rounds
        out["coupler.wait_s"] = max(
            (r["timers"].get("coupler_wait", 0.0) for r in result.rows),
            default=0.0) / rounds
        out["coupler.wait_fraction"] = result.coupler_wait_fraction()
        stats = result.total_search_stats()
        out["coupler.search.comparisons"] = stats.comparisons / rounds
        out["coupler.search.cache_hit_ratio"] = (
            stats.cache_hits / stats.queries if stats.queries else 0.0)
        out["coupler.engine.busy_s"] = (
            tracer.total("coupler.engine", "busy") / rounds)
        out["coupler.hs_side.busy_s"] = (
            tracer.total("coupler.hs_side", "busy") / rounds)
        out["telemetry.trace_overhead_ratio"] = traced / untraced
        # one untraced run on the workload's own transport
        wall = untraced if wall is None else wall
        out.update({f"wall.{k}": v
                    for k, v in self._wall(wall, wall, 1.0 / wall).items()})
        return {"metrics": out,
                "detail": {"traced_on": "thread", "traced_steps": self.steps,
                           "structure_checked": structure is not None}}


# --------------------------------------------------------------------------
# service workload
# --------------------------------------------------------------------------

@dataclass
class OpenLoopJob:
    at: float            #: scheduled arrival, seconds after the loop starts
    tenant: str
    case: int
    crash_rank: int | None


@dataclass
class Service:
    """Seeded open loop into one in-process ``JobScheduler(slots=2)``.

    Arrivals are Poisson at a fixed absolute rate, so a faster program
    sees the same offered load, not more of it. The rate is a quarter
    to two fifths of the capacity the burst phase measured on a 2-core
    host (5-8 jobs/s). At half of it, a 30% slowdown of the shared host
    pushed the queue close to saturation and the latency percentiles
    swung several-fold between runs.

    Latency is bimodal: a job that runs beside another one takes about
    1.6x as long, because both share the interpreter lock. A percentile
    near the share of such jobs jumps between the two modes from seed
    to seed; with 40 jobs at 1.5 jobs/s the 75th percentile did. At
    least 60 jobs put the reported tail at the 83rd percentile, inside
    the shared mode.
    """

    name: str
    rate: float = 2.0          #: open-loop arrivals per second
    nsteps: int = 3
    inner_iters: int = 2
    tenants: int = 4
    burst: int = 32
    crash_share: float = 0.1
    slots: int = 2
    world: int = 3             #: ranks of one job: 2 rows + 1 CU

    def cases(self, seed: int) -> list:
        """Three distinct operating points (distinct set-up fingerprints)."""
        from repro.service import EngineCase

        rng = random.Random(f"{self.name}:cases:{seed}")
        return [EngineCase(inlet_ux=centre + rng.uniform(-0.01, 0.01),
                           p_out=1.0 + rng.uniform(-0.005, 0.005),
                           inner_iters=self.inner_iters)
                for centre in (0.46, 0.50, 0.54)]

    def plan(self, seed: int, seconds: float) -> list[OpenLoopJob]:
        n = max(60, round(self.rate * seconds))
        rng = random.Random(f"{self.name}:plan:{seed}")
        crashing = set(rng.sample(range(n), max(1, round(self.crash_share * n))))
        at, jobs = 0.0, []
        for i in range(n):
            at += rng.expovariate(self.rate)
            jobs.append(OpenLoopJob(
                at=at, tenant=f"tenant-{rng.randrange(self.tenants)}",
                case=rng.randrange(3),
                crash_rank=rng.randrange(self.world) if i in crashing
                else None))
        return jobs

    def _request(self, case, tenant: str, crash_rank: int | None):
        from repro.service import JobRequest
        from repro.smpi import FaultPlan

        # the crash lands after the step-2 checkpoint, so recovery
        # restores it (a checkpoint read) and replays step 3
        fault = (FaultPlan().crash(crash_rank, self.nsteps)
                 if crash_rank is not None else None)
        return JobRequest(tenant=tenant, case=case, nsteps=self.nsteps,
                          fault_plan=fault)

    def setup(self, seed: int, work: Path, events, gate: Gate) -> dict:
        """Scheduler start plus one undisturbed warm-up job per case."""
        from repro import op2
        from repro.service import JobScheduler
        from repro.smpi.transport import resolve_transport

        cases = self.cases(seed)

        async def warm():
            sched = JobScheduler(slots=self.slots,
                                 checkpoint_root=work / "warmup")
            await sched.start()
            try:
                handles = [await sched.submit(self._request(c, "warmup", None))
                           for c in cases]
                results = [await h.result() for h in handles]
            finally:
                await sched.shutdown()
            return sched, results

        t0 = time.perf_counter()
        sched, results = asyncio.run(warm())
        setup_s = time.perf_counter() - t0
        digests = []
        for r in results:
            if r.ok:
                gate.record([] if r.digest else ["warm-up job has no digest"])
            else:
                gate.error(f"warm-up job {r.status.value}: {r.error}")
            digests.append(r.digest)
        stats = sched.setup_cache.stats
        return {"cases": cases, "digests": digests,
                "cost": sched.admission.cost, "setup_s": setup_s,
                "driver_build_s": stats.build_seconds / max(stats.misses, 1),
                "warmup_runs": len(results), "native_compiled": 0,
                "native_fallbacks": 0,
                "resolved": {"backend": op2.current_config().backend,
                             "transport": resolve_transport(None)}}

    async def _drive(self, state: dict, jobs: list[OpenLoopJob],
                     root: Path) -> dict:
        """Open loop, then a burst submitted at once (capacity)."""
        from repro.service import AdmissionError, JobScheduler

        cases = state["cases"]
        sched = JobScheduler(slots=self.slots, checkpoint_root=root,
                             cost=state["cost"])
        await sched.start()
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05

        async def one(job: OpenLoopJob):
            due = t0 + job.at
            await asyncio.sleep(max(0.0, due - loop.time()))
            late = loop.time() - due
            try:
                handle = await sched.submit(self._request(
                    cases[job.case], job.tenant, job.crash_rank))
            except AdmissionError as exc:
                return job, None, None, late, str(exc)
            result = await handle.result()
            return job, result, loop.time() - due, late, None

        try:
            c0 = cpu_seconds()
            opened = await asyncio.gather(*(asyncio.create_task(one(j))
                                            for j in jobs))
            tb = loop.time()
            burst_handles = []
            for i in range(self.burst):
                burst_handles.append(await sched.submit(self._request(
                    cases[i % 3], f"tenant-{i % self.tenants}", None)))
            burst = [await h.result() for h in burst_handles]
            burst_s = loop.time() - tb
            cpu = cpu_seconds() - c0
        finally:
            await sched.shutdown()
        return {"opened": opened, "burst": burst, "burst_s": burst_s,
                "cpu": cpu, "stats": sched.stats(),
                "cache": sched.setup_cache.stats}

    def _check(self, state: dict, run: dict, gate: Gate) -> None:
        digests = state["digests"]
        for job, result, _lat, _late, refused in run["opened"]:
            if refused is not None:
                gate.error(f"refused: {refused}")
            else:
                self._check_job(result, digests[job.case], gate)
        for i, result in enumerate(run["burst"]):
            self._check_job(result, digests[i % 3], gate)

    @staticmethod
    def _check_job(result, digest: str, gate: Gate) -> None:
        if not result.ok:
            gate.error(f"job {result.job_id} {result.status.value}: "
                       f"{result.error}")
        elif result.digest != digest:
            gate.record([f"job {result.job_id} digest differs from its "
                         f"case's warm-up digest"])
        else:
            gate.record([])

    def measure(self, state: dict, seconds: float, seed: int, work: Path,
                gate: Gate) -> dict:
        jobs = self.plan(seed, seconds)
        run = asyncio.run(self._drive(state, jobs, work / "timed"))
        self._check(state, run, gate)
        return self._summary(run, len(jobs))

    def _summary(self, run: dict, n_jobs: int) -> dict:
        done = [o for o in run["opened"] if o[1] is not None and o[1].ok]
        latencies = [o[2] for o in done]
        # every completed job, burst included: open-loop jobs alone mix
        # solo and two-at-a-time runs in seed-dependent shares, which
        # made their median jump between the two
        run_s = ([o[1].timings["run_s"] for o in done]
                 + [r.timings["run_s"] for r in run["burst"] if r.ok])
        steps = self.nsteps * len(run_s)
        tail, pct, beyond = tail_of(latencies)
        return {
            "metrics": {
                "cpu_s_per_step": run["cpu"] / max(steps, 1),
            },
            "detail": {"wall": {
                           "step_s": statistics.median(run_s) / self.nsteps,
                           "job_latency_p50_s": statistics.median(latencies),
                           "job_latency_tail_s": tail,
                           "jobs_per_s": self.burst / run["burst_s"]},
                       "open_loop_jobs": n_jobs, "samples": len(latencies),
                       "tail_percentile": pct, "tail_beyond": beyond,
                       "rate_per_s": self.rate,
                       "burst_jobs": self.burst,
                       "late_max_s": max(o[3] for o in run["opened"]),
                       "recoveries": sum(o[1].recovery.get("recoveries", 0)
                                         for o in done)},
        }

    def trace(self, state: dict, seconds: float, seed: int, work: Path,
              gate: Gate) -> dict:
        jobs = self.plan(seed, seconds)
        plain = asyncio.run(self._drive(state, jobs, work / "untraced"))
        self._check(state, plain, gate)
        with Tracer() as tracer:
            run = asyncio.run(self._drive(state, jobs, work / "traced"))
        self._check(state, run, gate)
        done = [o for o in run["opened"] if o[1] is not None and o[1].ok]
        results = [o[1] for o in done] + [r for r in run["burst"] if r.ok]
        steps = self.nsteps * len(results)
        out = tracer.layer_metrics(steps, hs_ranks=2)
        out["op2.halo.messages"] = 0.0
        out["op2.halo.bytes"] = 0.0
        writes = tracer.total("resilience.write", "calls")
        out["resilience.checkpoint.writes"] = writes / max(len(results), 1)
        out["resilience.checkpoint.bytes_per_write"] = (
            tracer.total("resilience.write", "bytes") / writes if writes else 0.0)
        out["resilience.checkpoint.write_s"] = (
            tracer.total("resilience.write", "wall") / writes if writes else 0.0)
        commits = tracer.total("resilience.commit", "calls")
        out["resilience.checkpoint.commit_s"] = (
            tracer.total("resilience.commit", "wall") / commits
            if commits else 0.0)
        recovered = [o for o in done if o[1].recovery.get("recoveries")]
        out["resilience.recoveries"] = float(sum(
            o[1].recovery["recoveries"] for o in recovered))
        # recoveries of jobs that carried no injected fault: a failure
        # the program hit on its own and the supervisor hid from the
        # client (for example a spurious smpi DeadlockError)
        out["resilience.unplanned_recoveries"] = float(sum(
            r.recovery.get("recoveries", 0) for r in
            [o[1] for o in done if o[0].crash_rank is None]
            + [r for r in run["burst"] if r.ok]))
        extra = []
        for job, result, *_rest in recovered:
            clean = [o[1].timings["run_s"] for o in done
                     if o[0].case == job.case
                     and not o[1].recovery.get("recoveries")]
            if clean:
                extra.append(result.timings["run_s"]
                             - statistics.median(clean))
        out["resilience.recovery_extra_s"] = (
            statistics.mean(extra) if extra else 0.0)
        out["service.queue_wait_s_p50"] = statistics.median(
            o[1].timings["queued_s"] for o in done)
        out["service.run_s_p50"] = statistics.median(
            o[1].timings["run_s"] for o in done)
        cache = run["cache"]
        lookups = cache.hits + cache.misses
        out["service.setup_cache.hit_ratio"] = (
            cache.hits / lookups if lookups else 0.0)
        out["service.setup_cache.build_s"] = (
            cache.build_seconds / cache.misses if cache.misses else 0.0)
        out["service.rejected"] = float(sum(o[4] is not None
                                            for o in run["opened"]))
        submits = tracer.total("service.submit", "calls")
        out["service.submit_s"] = (tracer.total("service.submit", "wall")
                                   / submits if submits else 0.0)
        out["loadgen.late_max_s"] = max(o[3] for o in run["opened"])
        out["coupler.wait_fraction"] = statistics.median(
            r.metrics["coupler_wait_fraction"] for r in results)
        out["coupler.engine.busy_s"] = (
            tracer.total("coupler.engine", "busy") / steps)
        out["coupler.hs_side.busy_s"] = (
            tracer.total("coupler.hs_side", "busy") / steps)
        med = statistics.median
        out["telemetry.trace_overhead_ratio"] = (
            med(o[1].timings["run_s"] for o in done)
            / med(o[1].timings["run_s"] for o in plain["opened"]
                  if o[1] is not None and o[1].ok))
        wall = self._summary(plain, len(jobs))["detail"]["wall"]
        out.update({f"wall.{k}": v for k, v in wall.items()})
        return {"metrics": out,
                "detail": {"traced_on": "thread", "traced_jobs": len(results),
                           "open_loop_jobs": len(jobs)}}


WORKLOADS = {
    w.name: w for w in (
        Coupled("rig250-flagship", rows=10, steps=2),
        Coupled("rig250-halo-process", rows=2, steps=8, nr=6, nt=64, nx=16,
                ranks_per_row=2, partial_halos=True, transport="process",
                backend="native", native_threads=1),
        Service("service-openloop"),
    )
}
