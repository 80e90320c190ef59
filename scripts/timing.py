"""Timing helpers shared by the cost scripts in this directory.

``best_of`` times a call repeatedly and keeps the fastest run; ``environment``
is the machine and version header that every script prints first.
"""

import os
import platform
import time

import numpy as np
import scipy


def best_of(repeats: int, fn):
    """(minimum wall time, result of the last call) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def environment() -> dict:
    """The machine, its CPU count and the python, numpy and scipy versions."""
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
