"""Unit cost of model construction and instance read/write on complete graphs.

Usage, from the root of a checkout:

    python3 scripts/construction_cost.py

For n = 500 and n = 1000 it generates a complete uniform Ising model with a fixed seed and
times ``gen_random``, ``write_instance``, ``read_instance``,
``ising_to_qubo`` and ``qubo_to_ising``, each as the minimum over
three calls.  It prints one JSON object: the machine, the versions,
the file size and the timings in seconds.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import ising_to_qubo, qubo_to_ising, read_instance, write_instance  # noqa: E402
from qubokit.generators import gen_random  # noqa: E402
from timing import best_of, environment  # noqa: E402

SEED = 1000
N_VALUES = (500, 1000)
REPEATS = 3


def measure(n: int, workdir: Path) -> dict:
    path = workdir / f"complete-{n}.txt"
    gen_s, model = best_of(REPEATS, lambda: gen_random("complete", "uniform", SEED + n, n=n))
    write_s, _ = best_of(REPEATS, lambda: write_instance(path, model))
    read_s, back = best_of(REPEATS, lambda: read_instance(path))
    to_qubo_s, qubo = best_of(REPEATS, lambda: ising_to_qubo(back))
    to_ising_s, _ = best_of(REPEATS, lambda: qubo_to_ising(qubo))
    return {"n": n, "couplings": model.num_couplings,
            "file_mb": round(path.stat().st_size / 1e6, 3),
            "gen_random_s": round(gen_s, 4), "write_instance_s": round(write_s, 4),
            "read_instance_s": round(read_s, 4), "ising_to_qubo_s": round(to_qubo_s, 4),
            "qubo_to_ising_s": round(to_ising_s, 4)}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = [measure(n, Path(tmp)) for n in N_VALUES]
    print(json.dumps({**environment(), "repeats": REPEATS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
