"""Unit cost of model construction and instance read/write.

Usage, from the root of a checkout:

    python3 scripts/construction_cost.py

For n = 500 and n = 1000 it generates a complete uniform Ising model with a fixed seed and
times ``gen_random``, ``write_instance``, ``read_instance``,
``ising_to_qubo`` and ``qubo_to_ising``.  For n = 10^4 and 10^5 it
generates a ``gen_mw3s`` cubic HUBO (4 terms per variable) and times
``gen_mw3s``, ``to_ising``, ``write_instance``, ``read_instance`` (of the
file as written, and of a copy without its ``# format:`` line, which the
reader must then recognise as HUBO) and ``energies`` on 64 random replicas.
It times ``gen_tile`` on the L x L tile lattice for L = 256 and L = 1024.
For the tile lattices L = 256 and L = 1024 and the complete model n = 1000
it times ``coupling_operator()`` followed by ``colour_classes()`` on a fresh
model per call (both are cached per model), with the traced peak of one
more such pair in MB and in bytes per coupling.
Each time is the minimum over three calls.  After the timed calls of a step
it records the tracemalloc peak of one more call: in bytes per term line
(couplings and non-zero fields) for the complete models' steps, in bytes per
term for the HUBO write and read, in MB for ``energies`` and in bytes per
spin for one L = 256 ``gen_tile``, after a small warm-up call so that the
one-time scipy import of the planted check is not counted.  It prints one
JSON object: the machine, the versions, the file sizes, the timings in
seconds and the peaks.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import ising_to_qubo, qubo_to_ising, read_instance, write_instance  # noqa: E402
from qubokit.generators import gen_mw3s, gen_random, gen_tile  # noqa: E402
from qubokit.transforms import to_ising  # noqa: E402
from timing import best_of, environment, traced_peak  # noqa: E402

SEED = 1000
N_VALUES = (500, 1000)
HUBO_N_VALUES = (10_000, 100_000)
TILE_L_VALUES = (256, 1024)
TILE_P = (0.2, 0.3, 0.3, 0.2)
COLOUR_N = 1000
REPLICAS = 64
REPEATS = 3


def timed(out: dict, name: str, fn, per: int | None = None):
    """Record the best time of ``fn`` as ``{name}_s`` and, when ``per`` is
    given, the traced peak of one more call as ``{name}_peak_b_per_term``
    (bytes over ``per``); return the last result."""
    seconds, result = best_of(REPEATS, fn)
    out[f"{name}_s"] = round(seconds, 4)
    if per is not None:
        out[f"{name}_peak_b_per_term"] = round(traced_peak(fn) / per, 1)
    return result


def measure(n: int, workdir: Path) -> dict:
    path = workdir / f"complete-{n}.txt"
    out = {}
    generate = lambda: gen_random("complete", "uniform", SEED + n, n=n)  # noqa: E731
    model = generate()
    terms = model.num_couplings + int(np.count_nonzero(model.h))
    timed(out, "gen_random", generate, terms)
    timed(out, "write_instance", lambda: write_instance(path, model), terms)
    back = timed(out, "read_instance", lambda: read_instance(path), terms)
    qubo = timed(out, "ising_to_qubo", lambda: ising_to_qubo(back), terms)
    timed(out, "qubo_to_ising", lambda: qubo_to_ising(qubo), terms)
    return {"n": n, "couplings": model.num_couplings, "terms": terms,
            "file_mb": round(path.stat().st_size / 1e6, 3), **out}


def measure_hubo(n: int, workdir: Path) -> dict:
    path = workdir / f"mw3s-{n}.txt"
    out = {}
    model = timed(out, "gen_mw3s", lambda: gen_mw3s(n, SEED + n))
    timed(out, "to_ising", lambda: to_ising(model))
    timed(out, "write_instance", lambda: write_instance(path, model), model.num_terms)
    timed(out, "read_instance", lambda: read_instance(path), model.num_terms)
    bare = workdir / f"mw3s-{n}-no-format.txt"
    bare.write_text(path.read_text().replace("# format: hubo\n", "", 1))
    timed(out, "read_instance_no_format", lambda: read_instance(bare))
    rng = np.random.default_rng(SEED)
    states = np.where(rng.random((REPLICAS, n)) < 0.5, -1, 1).astype(np.int8)
    timed(out, "energies", lambda: model.energies(states))
    out["energies_peak_mb"] = round(traced_peak(lambda: model.energies(states)) / 1e6, 2)
    return {"n": n, "terms": model.num_terms,
            "file_mb": round(path.stat().st_size / 1e6, 3), **out}


def operator_and_classes(model):
    return model.coupling_operator(), model.colour_classes()


def measure_colouring() -> list[dict]:
    builds = [(f"tile-L{L}", lambda L=L: gen_tile(L, TILE_P, SEED + L).model)
              for L in TILE_L_VALUES]
    builds.append((f"complete-n{COLOUR_N}",
                   lambda: gen_random("complete", "uniform", SEED, n=COLOUR_N)))
    rows = []
    for name, build in builds:
        best = float("inf")
        for _ in range(REPEATS):  # a fresh model per call: both results are cached
            m = build()
            best = min(best, best_of(1, lambda: operator_and_classes(m))[0])
        m = build()
        peak = traced_peak(lambda: operator_and_classes(m))
        rows.append({"model": name, "n": m.n, "couplings": m.num_couplings,
                     "operator_and_classes_s": round(best, 4),
                     "peak_mb": round(peak / 1e6, 2),
                     "peak_b_per_coupling": round(peak / m.num_couplings, 1)})
    return rows


def measure_tile() -> dict:
    gen_tile(16, TILE_P, SEED)  # warm-up: the planted check's CSR operator imports scipy
    out = {"p": list(TILE_P)}
    for L in TILE_L_VALUES:
        timed(out, f"gen_tile_L{L}", lambda: gen_tile(L, TILE_P, SEED + L))
    L = TILE_L_VALUES[0]
    peak = traced_peak(lambda: gen_tile(L, TILE_P, SEED + L))
    out[f"gen_tile_L{L}_peak_bytes_per_spin"] = round(peak / L ** 2)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = [measure(n, Path(tmp)) for n in N_VALUES]
        hubo = [measure_hubo(n, Path(tmp)) for n in HUBO_N_VALUES]
    tile = measure_tile()
    colouring = measure_colouring()
    print(json.dumps({**environment(), "repeats": REPEATS, "replicas": REPLICAS,
                      "results": rows, "hubo": hubo, "tile": tile,
                      "colouring": colouring}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
