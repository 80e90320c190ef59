"""Unit cost of a branch & bound expansion, and what the search proves.

Usage, from the root of a checkout:

    python3 scripts/bb_cost.py

Runs ``solve_bb`` in its exact mode (``spd_admissible``, leaf size 14) on
the instance shapes the exact-proof benchmark proves (complete graphs with
integer couplings and fields in [-31, 31], n = 24, 24, 26, at fixed seeds),
timing each as the minimum over three calls, and once on one n = 50
instance of acceptance criterion 9 under a fixed 5 s time limit.  For each it
reports the wall time, the expansions, µs per expansion, the prunes and
evictions, whether the optimum was proved, and the certified gap
``energy - lower_bound``.  It prints one JSON object: the machine, the
versions and one row per instance.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import BBParams, solve_bb  # noqa: E402
from qubokit.generators import gen_random  # noqa: E402
from timing import best_of, environment  # noqa: E402

REPEATS = 3
LEAF_SIZE = 14
COUPLINGS = (-31, 31)
# (n, seed): the exact-proof shapes, each proved in well under a second
PROOF_INSTANCES = ((24, 301), (24, 302), (26, 303))
# the criterion 9 instance furthest from a proof at that test's 25 s limit
LIMIT_INSTANCE = (50, 9001)
TIME_LIMIT = 5.0


def measure(n: int, seed: int, time_limit: float | None, repeats: int) -> dict:
    model = gen_random("complete", "int_uniform", seed, n=n, a=COUPLINGS[0], b=COUPLINGS[1])
    params = BBParams(bound_kind="spd_admissible", leaf_size=LEAF_SIZE, time_limit=time_limit)
    best, res = best_of(repeats, lambda: solve_bb(model, params))
    return {"n": n, "seed": seed, "time_limit": time_limit, "wall_s": round(best, 4),
            "expansions": res.expansions,
            "us_per_expansion": round(1e6 * best / max(res.expansions, 1), 1),
            "prunes": res.prunes, "evictions": res.evictions, "proved": res.optimal,
            "energy": res.energy, "lower_bound": res.lower_bound, "gap": res.gap}


def main() -> int:
    rows = [measure(n, seed, None, REPEATS) for n, seed in PROOF_INSTANCES]
    rows.append(measure(*LIMIT_INSTANCE, TIME_LIMIT, 1))
    print(json.dumps({**environment(), "repeats": REPEATS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
