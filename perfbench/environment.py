"""The environment and working-set record stored with each result."""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Unified or data cache sizes of CPU 0 by level, as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def record() -> dict:
    """Versions, processor, pinned threads and the computed working set."""
    field_2d = 128 * 128 * 8
    field_1d = 512 * 8
    caches = _caches()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": caches,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "working_set": {
            "scalar_field_2d_bytes": field_2d,
            "scalar_field_1d_bytes": field_1d,
            "state_2d_bytes": 3 * field_2d,
            "note": ("computed from array shapes, not measured; every per-step "
                     f"array fits the L2 cache ({caches.get('L2', 'size unknown')}), "
                     "so no workload measures DRAM bandwidth"),
        },
        "disk": ("bundles are written and read through the page cache only; "
                 "the benchmark drops no caches, so no run measures the device"),
    }
