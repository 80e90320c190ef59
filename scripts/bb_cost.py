"""Unit cost of a branch & bound expansion, and what the search proves.

Usage, from the root of a checkout:

    python3 scripts/bb_cost.py

Runs ``solve_bb`` in its exact mode (``spd_admissible``, leaf size 14) on
the instance shapes the exact-proof benchmark proves (complete graphs with
integer couplings and fields in [-31, 31], n = 24, 24, 26, at fixed seeds),
timing each as the minimum over three calls, and once on each of the five
n = 50 instances of acceptance criterion 9 (seeds 9000-9004) under that
test's 25 s time limit.  Each criterion 9 instance runs in a fresh
subprocess, so its peak resident set (``timing.peak_rss_mb``) is its own.
For each instance it reports the wall time, the expansions, µs per
expansion, the prunes and evictions, whether the optimum was proved, and the
certified gap ``energy - lower_bound``.  It prints one JSON object: the machine, the
versions and one row per instance.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import BBParams, solve_bb  # noqa: E402
from qubokit.generators import gen_random  # noqa: E402
from timing import best_of, environment, peak_rss_mb  # noqa: E402

REPEATS = 3
LEAF_SIZE = 14
COUPLINGS = (-31, 31)
# (n, seed): the exact-proof shapes, each proved in well under a second
PROOF_INSTANCES = ((24, 301), (24, 302), (26, 303))
# the instances of acceptance criterion 9, at that test's time limit
LIMIT_N = 50
LIMIT_SEEDS = range(9000, 9005)
TIME_LIMIT = 25.0


def measure(n: int, seed: int, time_limit: float | None, repeats: int) -> dict:
    model = gen_random("complete", "int_uniform", seed, n=n, a=COUPLINGS[0], b=COUPLINGS[1])
    params = BBParams(bound_kind="spd_admissible", leaf_size=LEAF_SIZE, time_limit=time_limit)
    best, res = best_of(repeats, lambda: solve_bb(model, params))
    return {"n": n, "seed": seed, "time_limit": time_limit, "wall_s": round(best, 4),
            "expansions": res.expansions,
            "us_per_expansion": round(1e6 * best / max(res.expansions, 1), 1),
            "prunes": res.prunes, "evictions": res.evictions, "proved": res.optimal,
            "energy": res.energy, "lower_bound": res.lower_bound, "gap": res.gap}


def measure_in_child(seed: int) -> dict:
    """One criterion 9 row, measured by this script in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--limit-seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--limit-seed"]:
        row = measure(LIMIT_N, int(argv[1]), TIME_LIMIT, 1)
        row["peak_rss_mb"] = round(peak_rss_mb(), 1)
        print(json.dumps(row))
        return 0
    rows = [measure(n, seed, None, REPEATS) for n, seed in PROOF_INSTANCES]
    rows += [measure_in_child(seed) for seed in LIMIT_SEEDS]
    print(json.dumps({**environment(), "repeats": REPEATS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
