"""A read-only description of the machine a run measured on."""

from __future__ import annotations

import os
import platform

import numpy as np

_CACHE = "/sys/devices/system/cpu/cpu0/cache"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Per-level cache sizes of cpu0 (data and unified caches only)."""
    out = {}
    try:
        for entry in sorted(os.listdir(_CACHE)):
            if not entry.startswith("index"):
                continue
            base = os.path.join(_CACHE, entry)
            with open(os.path.join(base, "type"), encoding="utf-8") as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "size"), encoding="utf-8") as fh:
                out[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    return out


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def describe(working_set: dict, blas_env: dict) -> dict:
    """The machine, plus the BLAS settings the measured processes ran with."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"vendor": _blas_vendor(), "threads": blas_env},
        "working_set": working_set,
    }
