"""Host fingerprint and a memory-bandwidth reference for the benchmark."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    """Size of the last-level cache in bytes (0 when it cannot be read)."""
    best_level, best = -1, 0
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            level = int((index / "level").read_text())
            if (index / "type").read_text().strip() == "Instruction":
                continue
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best = level, size
    return best


def _compiler() -> str:
    try:
        from repro.op2.backends.native import toolchain
    except ImportError:
        return "unknown"
    tc = toolchain()
    if tc is None:
        return "none"
    cc, flags = tc
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=20).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    first = out.splitlines()[0] if out else cc
    return f"{first} [{' '.join(flags)}]"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1]
            inside = target == mount or target.startswith(
                mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def fingerprint(checkpoint_dir: Path) -> dict:
    import numpy

    try:
        visible = len(os.sched_getaffinity(0))
    except AttributeError:
        visible = os.cpu_count() or 0
    return {
        "nproc": visible,
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "compiler": _compiler(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "checkpoint_fs": _filesystem(checkpoint_dir),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def stream_triad(repeats: int = 5) -> dict:
    """Best-of-``repeats`` numpy triad ``a = b + s*c`` bandwidth.

    The three arrays together span at least four times the last-level
    cache. numpy runs the triad as two passes (``a = s*c``, then
    ``a += b``), so the byte count is the five array sweeps those passes
    make: 40 bytes per element.
    """
    import numpy as np

    llc = llc_bytes() or (32 << 20)
    n = max(4 * llc // (3 * 8), 1 << 20)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    if not a[0] == 7.0:
        raise RuntimeError("stream triad produced a wrong value")
    return {"gbytes_per_s": 40 * n / best / 1e9, "array_bytes": 8 * n,
            "working_set_bytes": 3 * 8 * n, "llc_bytes": llc}
