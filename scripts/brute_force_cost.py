"""States per second of brute force, and the blocks it scans.

Usage, from the root of a checkout:

    python3 scripts/brute_force_cost.py

Runs ``solve_brute_force`` on the instance shapes the exact-proof benchmark
checks (complete graphs with integer couplings and fields in [-31, 31],
n = 24, 24, 26, at fixed seeds), on one such graph at n = 28 and on one
gaussian complete graph at n = 24, timing each as the minimum over three
calls.  For each it reports the wall time, 2^n / wall in millions of states
per second (states certified, since skipped blocks are never scored), and
the blocks the scan scores out of the 2^(n - LOW_BITS) blocks of the
sequence.  It prints one JSON object: the machine, the versions and one row
per instance.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import solve_brute_force  # noqa: E402
from qubokit.generators import gen_random  # noqa: E402
from qubokit.solvers.brute_force import LOW_BITS, _block_bounds, _low_table  # noqa: E402
from timing import best_of, environment  # noqa: E402

REPEATS = 3
COUPLINGS = (-31, 31)
# (n, seed, distribution): the exact-proof shapes, then one larger and one real-valued
INSTANCES = ((24, 100, "int_uniform"), (24, 101, "int_uniform"), (26, 102, "int_uniform"),
             (28, 103, "int_uniform"), (24, 104, "gaussian"))


def measure(n: int, seed: int, dist: str) -> dict:
    model = gen_random("complete", dist, seed, n=n, a=COUPLINGS[0], b=COUPLINGS[1])
    best, _ = best_of(REPEATS, lambda: solve_brute_force(model))
    A = model.coupling_matrix()
    lower, threshold = _block_bounds(A, model.h, LOW_BITS, _low_table(A, LOW_BITS)[:, LOW_BITS])
    return {"n": n, "seed": seed, "dist": dist, "wall_s": round(best, 4),
            "mstates_per_s": round(2 ** n / best / 1e6, 1),
            "blocks_scanned": int(np.count_nonzero(lower <= threshold)),
            "blocks": 2 ** (n - LOW_BITS)}


def main() -> int:
    rows = [measure(*inst) for inst in INSTANCES]
    print(json.dumps({**environment(), "repeats": REPEATS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
