"""Timing helpers shared by the cost scripts in this directory.

``best_of`` times a call repeatedly and keeps the fastest run;
``traced_peak`` is the tracemalloc peak of one call; ``peak_rss_mb`` is a
process's own peak resident set; ``environment`` is the machine and version
header that every script prints first.
"""

import os
import platform
import resource
import time
import tracemalloc

import numpy as np


def best_of(repeats: int, fn):
    """(minimum wall time, result of the last call) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def traced_peak(fn) -> int:
    """tracemalloc peak in bytes of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB: ``VmHWM`` on Linux, since a
    child's ``ru_maxrss`` includes the resident set its parent had when it
    started the child; ``ru_maxrss`` elsewhere."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:")) / 1024.0
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """The machine, its CPU count and the python, numpy and scipy versions.
    scipy is imported here, not at the top, so that a script's child process
    that imports this module for ``best_of`` does not count scipy in its
    peak memory."""
    import scipy

    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
