"""Repository benchmark: one command runs a workload, checks its
outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload rig250-flagship --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines give the run fingerprint and details
(sample counts, which tail percentile was reported).

This process only orchestrates. Each set-up sample and the measured
work run in fresh child interpreters, each with an empty private
compile cache under ``.perfbench/`` in the checkout, so every set-up
starts from nothing built. ``REPRO_*`` variables are cleared for the
children except that private ``REPRO_CACHE_DIR``.

``--write-reference`` regenerates ``reference.json`` (the band-centre
results the coupled workloads check every warm-up against).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import KERNELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up samples per run (the measured child's own set-up is one)
SETUP_SAMPLES = 3
#: a run must end within this many seconds
BUDGET_S = 170.0

#: bounded metrics (see NOTES.md for why wall-clock times are not here)
END_TO_END = {"setup_s": "s", "cpu_s_per_step": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "op2.par_loop.calls": "count", "op2.par_loop.busy_s": "s",
    **{f"op2.kernel.{k}.busy_s": "s" for k in KERNELS},
    **{f"op2.kernel.{k}.gbytes_per_s": "GB/s" for k in KERNELS},
    "op2.native.compiled": "count", "op2.native.fallbacks": "count",
    "host.stream_gbps": "GB/s",
    "op2.halo.exchanges": "count", "op2.halo.messages": "count",
    "op2.halo.bytes": "B", "op2.halo.wall_s": "s",
    "op2.halo.share_of_step": "ratio",
    "hydra.step.wall_s": "s", "hydra.step.self_busy_s": "s",
    "coupler.serve_s": "s", "coupler.serve_compute_s": "s",
    "coupler.wait_s": "s", "coupler.wait_fraction": "ratio",
    "coupler.search.comparisons": "count",
    "coupler.search.cache_hit_ratio": "ratio",
    "coupler.engine.busy_s": "s", "coupler.hs_side.busy_s": "s",
    "smpi.messages": "count", "smpi.bytes": "B",
    "resilience.checkpoint.writes": "count",
    "resilience.checkpoint.bytes_per_write": "B",
    "resilience.checkpoint.write_s": "s",
    "resilience.checkpoint.commit_s": "s",
    "resilience.recoveries": "count", "resilience.recovery_extra_s": "s",
    "resilience.unplanned_recoveries": "count",
    "service.queue_wait_s_p50": "s", "service.run_s_p50": "s",
    "service.setup_cache.hit_ratio": "ratio",
    "service.setup_cache.build_s": "s", "service.rejected": "count",
    "service.submit_s": "s", "loadgen.late_max_s": "s",
    "setup.total_s": "s", "setup.driver_build_s": "s",
    "setup.warmup_runs": "count", "setup.native.compiled": "count",
    "setup.native.fallbacks": "count",
    "telemetry.trace_overhead_ratio": "ratio",
    "failed_fraction": "ratio",
    "wall.step_s": "s", "wall.job_latency_p50_s": "s",
    "wall.job_latency_tail_s": "s", "wall.jobs_per_s": "1/s",
}


# --------------------------------------------------------------------------
# child side: one fresh interpreter per set-up sample / measured pass
# --------------------------------------------------------------------------

def _child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import NativeEvents
    from workloads import Gate, WORKLOADS, peak_rss_mb

    work = Path(args.workdir)
    wl = WORKLOADS[args.workload]
    gate = Gate()
    events = NativeEvents(work / f"native-{args.role}.log")
    events.install()
    state = wl.setup(args.seed, work, events, gate)
    setup = {k: state[k] for k in ("setup_s", "driver_build_s",
                                   "warmup_runs", "native_compiled",
                                   "native_fallbacks", "resolved")}
    out: dict = {"setup": setup}
    if args.role == "measure":
        out.update(wl.measure(state, args.seconds, args.seed, work, gate))
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
    elif args.role == "trace":
        from host import fingerprint

        out.update(wl.trace(state, args.seconds, args.seed, work, gate))
        out["fingerprint"] = fingerprint(work)
    counts = events.counts()
    out["native"] = counts
    out["attempted"] = gate.attempted
    out["failed"] = gate.failed
    out["wrong"] = gate.wrong
    out["problems"] = gate.problems
    return out


def _stream_child() -> dict:
    from host import stream_triad

    return stream_triad()


def _write_reference() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    cache = ROOT / ".perfbench" / "reference-cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    from workloads import (CENTRE, REFERENCE, Coupled, WORKLOADS,
                           reference_record)

    refs = {}
    for wl in WORKLOADS.values():
        if isinstance(wl, Coupled):
            wl._configure_backend()
            from repro.coupler import CoupledDriver

            refs[wl.name] = reference_record(
                CoupledDriver(wl.config(CENTRE)).run(1))
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    shutil.rmtree(ROOT / ".perfbench", ignore_errors=True)


# --------------------------------------------------------------------------
# orchestrator
# --------------------------------------------------------------------------

def _child_env(cache: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache)
    env["TMPDIR"] = str(tmp)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before a child started")
    # a session of its own, so a child that overruns is killed together
    # with the rank processes it forked
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             *argv], cwd=str(ROOT), env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {argv[:2]} exceeded the time budget")
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {argv[:2]} printed nothing")
    return json.loads(lines[-1])


def _orchestrate(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", str(work)]
    try:
        children = []
        # in a traced run the per-layer split needs one set-up only
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        for i in range(probes):
            env = _child_env(work / f"cache-setup-{i}", work / "tmp")
            children.append(_spawn(["--role", "setup", *common], env,
                                   deadline))
        role = "trace" if args.trace else "measure"
        env = _child_env(work / f"cache-{role}", work / "tmp")
        main = _spawn(["--role", role, *common], env, deadline)
        children.append(main)
        stream = (_spawn(["--role", "stream", *common], env, deadline)
                  if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    wrong = sum(c["wrong"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    setups = [c["setup"]["setup_s"] for c in children]
    setup = main["setup"]
    detail = {"workload": args.workload, "seed": args.seed,
              "resolved": setup["resolved"],
              "setup_samples": [round(s, 4) for s in setups],
              **main.get("detail", {})}
    if args.trace:
        values = dict(main.get("metrics", {}))
        values["op2.native.compiled"] = main["native"]["compiled"]
        values["op2.native.fallbacks"] = main["native"]["fallbacks"]
        values["setup.total_s"] = setup["setup_s"]
        values["setup.driver_build_s"] = setup["driver_build_s"]
        values["setup.warmup_runs"] = setup["warmup_runs"]
        values["setup.native.compiled"] = setup["native_compiled"]
        values["setup.native.fallbacks"] = setup["native_fallbacks"]
        values["host.stream_gbps"] = stream["gbytes_per_s"]
        values["failed_fraction"] = failed / max(attempted, 1)
        units = PER_LAYER
        detail["stream"] = stream
        print("perfbench-fingerprint " + json.dumps(main["fingerprint"]))
    else:
        values = dict(main["metrics"])
        values["setup_s"] = statistics.median(setups)
        detail["native"] = main["native"]
        units = END_TO_END
    if problems:
        detail["problems"] = problems[:10]
    print("perfbench-detail " + json.dumps(detail))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["rig250-flagship",
                                          "rig250-halo-process",
                                          "service-openloop"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--role", choices=["setup", "measure", "trace", "stream"],
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.write_reference:
        _write_reference()
        return 0
    if args.role == "stream":
        print(json.dumps(_stream_child()))
        return 0
    if args.role is not None:
        print(json.dumps(_child(args)))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
