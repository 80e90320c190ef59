"""The tracemalloc peak of one call, for the memory tests."""

import tracemalloc


def traced_peak(fn) -> int:
    """tracemalloc peak in bytes of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
