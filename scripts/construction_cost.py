"""Unit cost of model construction and instance read/write.

Usage, from the root of a checkout:

    python3 scripts/construction_cost.py

For n = 500 and n = 1000 it generates a complete uniform Ising model with a fixed seed and
times ``gen_random``, ``write_instance``, ``read_instance``,
``ising_to_qubo`` and ``qubo_to_ising``.  For n = 10^4 and 10^5 it
generates a ``gen_mw3s`` cubic HUBO (4 terms per variable) and times
``gen_mw3s``, ``to_ising``, ``write_instance``, ``read_instance`` (of the
file as written, and of a copy without its ``# format:`` line, which the
reader must then recognise as HUBO) and ``energies`` on 64 random replicas,
whose tracemalloc peak it also records.  It times ``gen_tile`` on the
L x L tile lattice for L = 256 and L = 1024, and records the tracemalloc peak
of one L = 256 call in bytes per spin, after a small warm-up call so that the
one-time scipy import of the planted check is not counted.  Each time is the
minimum over three calls.  It prints one JSON object: the machine, the
versions, the file sizes, the timings in seconds and the peaks.
"""

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import ising_to_qubo, qubo_to_ising, read_instance, write_instance  # noqa: E402
from qubokit.generators import gen_mw3s, gen_random, gen_tile  # noqa: E402
from qubokit.transforms import to_ising  # noqa: E402
from timing import best_of, environment  # noqa: E402

SEED = 1000
N_VALUES = (500, 1000)
HUBO_N_VALUES = (10_000, 100_000)
TILE_L_VALUES = (256, 1024)
TILE_P = (0.2, 0.3, 0.3, 0.2)
REPLICAS = 64
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


def measure_hubo(n: int, workdir: Path) -> dict:
    path = workdir / f"mw3s-{n}.txt"
    gen_s, model = best_of(REPEATS, lambda: gen_mw3s(n, SEED + n))
    to_ising_s, _ = best_of(REPEATS, lambda: to_ising(model))
    write_s, _ = best_of(REPEATS, lambda: write_instance(path, model))
    read_s, _ = best_of(REPEATS, lambda: read_instance(path))
    bare = workdir / f"mw3s-{n}-no-format.txt"
    bare.write_text(path.read_text().replace("# format: hubo\n", "", 1))
    read_bare_s, _ = best_of(REPEATS, lambda: read_instance(bare))
    rng = np.random.default_rng(SEED)
    states = np.where(rng.random((REPLICAS, n)) < 0.5, -1, 1).astype(np.int8)
    energies_s, _ = best_of(REPEATS, lambda: model.energies(states))
    tracemalloc.start()
    try:
        model.energies(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"n": n, "terms": model.num_terms,
            "file_mb": round(path.stat().st_size / 1e6, 3),
            "gen_mw3s_s": round(gen_s, 4), "to_ising_s": round(to_ising_s, 4),
            "write_instance_s": round(write_s, 4), "read_instance_s": round(read_s, 4),
            "read_instance_no_format_s": round(read_bare_s, 4),
            "energies_s": round(energies_s, 4), "energies_peak_mb": round(peak / 1e6, 2)}


def measure_tile() -> dict:
    gen_tile(16, TILE_P, SEED)  # warm-up: the planted check's CSR operator imports scipy
    out = {"p": list(TILE_P)}
    for L in TILE_L_VALUES:
        gen_s, _ = best_of(REPEATS, lambda: gen_tile(L, TILE_P, SEED + L))
        out[f"gen_tile_L{L}_s"] = round(gen_s, 4)
    L = TILE_L_VALUES[0]
    tracemalloc.start()
    try:
        gen_tile(L, TILE_P, SEED + L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out[f"gen_tile_L{L}_peak_bytes_per_spin"] = round(peak / L ** 2)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = [measure(n, Path(tmp)) for n in N_VALUES]
        hubo = [measure_hubo(n, Path(tmp)) for n in HUBO_N_VALUES]
    tile = measure_tile()
    print(json.dumps({**environment(), "repeats": REPEATS, "replicas": REPLICAS,
                      "results": rows, "hubo": hubo, "tile": tile}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
