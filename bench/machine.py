"""Machine block: what the numbers were measured on.

The GEMM rate is measured in the same run, on float64 (544x512)@(512x512),
the shape of a paper-width linear at batch 8 (8 x 68 rows, width 512).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time

import numpy as np
import scipy

GEMM_SHAPE = (544, 512, 512)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def gemm_gmacs(reps: int = 25) -> float:
    """Median achieved GMAC/s of the paper-width linear GEMM."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b  # first call pays BLAS buffer set-up
    rates = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        rates.append(m * k * n / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        pass
    # numpy wheels bundle OpenBLAS under numpy.libs; ask it for its thread count.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    info["threads"] = int(env) if env else None
    return info


def machine_block(gemm_rate: float) -> dict:
    return {
        "nproc": nproc(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "gemm_shape": list(GEMM_SHAPE),
        "gemm_gmacs": gemm_rate,
    }
