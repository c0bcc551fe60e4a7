"""Machine reference probes, the bases of the per-layer ratios.

Each probe that allocates or imports runs in a child process, so it adds
nothing to the peak RSS of the process doing the work.
"""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import re
import statistics
import subprocess
import sys
import time

_COPY = """
import sys, time
import numpy as np
a = np.ones(int(sys.argv[1]) // 8)
b = np.empty_like(a)
np.copyto(b, a)
times = []
for _ in range(5):
    t = time.perf_counter()
    np.copyto(b, a)
    times.append(time.perf_counter() - t)
print(2 * a.nbytes / min(times) / 1e9)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_bytes() -> dict:
    """Per-level data/unified cache sizes of cpu0, read from sysfs."""
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KMG")) * scale
    return sizes


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, asked of the library itself;
    falls back to the environment when no OpenBLAS is loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", nproc()))


def _child_seconds(argv, env, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t)
    return times


def interpreter_ms(env, runs: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return 1e3 * statistics.median(_child_seconds([sys.executable, "-c", "pass"], env, runs))


def import_split_ms(env, runs: int = 3) -> tuple[float, float]:
    """(numpy, cloudinv without numpy) cumulative import times in ms,
    medians of ``python -X importtime -c 'import cloudinv.cli'``."""
    numpy_ms, own_ms = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cloudinv.cli"],
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
        numpy = cumulative.get("numpy", 0.0)
        # The outermost cloudinv entry holds the whole package, numpy included
        # when the package imports it.
        total = max(v for k, v in cumulative.items() if k.split(".")[0] == "cloudinv")
        numpy_ms.append(numpy)
        own_ms.append(total - numpy)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def copy_gb_per_s(env, l3: int) -> float:
    """numpy copy bandwidth (bytes read plus written) over an array of twice
    the last-level cache, at least 64 MiB."""
    size = max(2 * l3, 64 * 1024 ** 2)
    proc = subprocess.run([sys.executable, "-c", _COPY, str(size)], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def machine(env) -> dict:
    import numpy
    caches = cache_bytes()
    last = caches.get("L3", caches.get("L2", 0))
    return {"nproc": nproc(), "l2_bytes": caches.get("L2", 0), "l3_bytes": caches.get("L3", 0),
            "blas_threads": blas_threads(), "copy_gb_per_s": copy_gb_per_s(env, last),
            "interpreter_ms": interpreter_ms(env), "python": platform.python_version(),
            "numpy": numpy.__version__}
