"""Cost of SBM's default c0: one ``eig_extreme`` call on the coupling operator.

Usage, from the root of a checkout:

    python3 scripts/eigen_cost.py

On three models above ``DENSE_LIMIT`` (n > 512), so on the Lanczos path:
the tile lattice L=32 (n=1024, CSR operator), the tile lattice L=256
(n=65,536, CSR) and a complete uniform model n=600 (dense), it times
``eig_extreme(model.coupling_operator(), "min")``, the call behind
``resolve_c0``.  The operator is built and one untimed call runs first, so
the figure excludes imports and model set-up.  Each time is the minimum
over REPEATS calls; the script also reports the median, the estimate, the
resulting c0 and its float32 bits (SBM steps in float32), and the
tracemalloc peak of one more call in bytes per spin.  It prints one JSON
object: the machine, the versions and one row per model.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit.generators import gen_random, gen_tile  # noqa: E402
from qubokit.solvers import eig_extreme  # noqa: E402
from timing import environment, traced_peak  # noqa: E402

REPEATS = 7
MODELS = (
    ("tile-L32", lambda: gen_tile(32, [0.0, 0.8, 0.0, 0.2], 100).model),
    ("tile-L256", lambda: gen_tile(256, [0.0, 0.8, 0.0, 0.2], 1).model),
    ("complete-n600", lambda: gen_random("complete", "uniform", 1, n=600)),
)


def measure(name: str, model) -> dict:
    op = model.coupling_operator()
    estimate = eig_extreme(op, "min")
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        eig_extreme(op, "min")
        times.append(time.perf_counter() - t0)
    peak = traced_peak(lambda: eig_extreme(op, "min"))
    c0 = -1.0 / estimate
    return {"model": name, "n": model.n, "operator": type(op).__name__,
            "eig_extreme_ms": round(1e3 * min(times), 3),
            "eig_extreme_median_ms": round(1e3 * statistics.median(times), 3),
            "lambda_min": estimate, "c0": c0, "c0_float32": float(np.float32(c0)).hex(),
            "peak_b_per_spin": round(peak / model.n, 1)}


def main() -> int:
    rows = [measure(name, build()) for name, build in MODELS]
    print(json.dumps({**environment(), "repeats": REPEATS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
