"""Unit cost and accuracy of energy evaluation.

Usage, from the root of a checkout:

    python3 scripts/energy_cost.py

It times ``energies`` on three (model, replicas) blocks: a Wishart
instance n=96 (dense operator) with 256 replicas, a complete uniform model
n=500 (dense) with 64 replicas and the tile lattice L=32 (n=1024, CSR) with
64 replicas, each as the minimum over five calls divided by the replica
count.  It times QUBO ``energies`` (``ising_to_qubo`` of the same models)
on the complete model with 1 and 16 states and on the tile lattice with 16
states: the first call on a fresh model and repeated calls, each the
minimum over five, with the traced peak of a first call.  On a periodic 1024 x 1024 square lattice (n = 2^20) with gaussian
couplings and fields it times one ``energy`` call, the first (which builds
the CSR operator) and the minimum of three after it, and reports the worst
distance, in units in the last place, between ``energy`` and the exactly
rounded ``math.fsum`` of the terms over three fixed random states.  It
prints one JSON object: the machine, the versions and the figures.
"""

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qubokit import IsingModel, ising_to_qubo  # noqa: E402
from qubokit.generators import gen_random, gen_tile, gen_wishart  # noqa: E402
from timing import best_of, environment, traced_peak  # noqa: E402

SEED = 7
REPEATS = 5


def complete_n500() -> IsingModel:
    return gen_random("complete", "uniform", SEED, n=500)


def tile_l32() -> IsingModel:
    return gen_tile(32, [0.0, 0.8, 0.0, 0.2], SEED).model


# (name, model builder, replicas)
MODELS = (
    ("wishart-n96", lambda: gen_wishart(96, 96, SEED).model, 256),
    ("complete-n500", complete_n500, 64),
    ("tile-L32", tile_l32, 64),
)
# (name, QUBO builder, states)
QUBO_MODELS = (
    ("qubo-complete-n500", lambda: ising_to_qubo(complete_n500()), 1),
    ("qubo-complete-n500", lambda: ising_to_qubo(complete_n500()), 16),
    ("qubo-tile-L32", lambda: ising_to_qubo(tile_l32()), 16),
)
LATTICE_L = 1024
LATTICE_STATES = 3


def measure(name: str, model, replicas: int) -> dict:
    rng = np.random.default_rng(SEED)
    S = rng.choice(np.array([-1, 1], dtype=np.int8), size=(replicas, model.n))
    model.energies(S)  # builds the cached operator
    seconds, _ = best_of(REPEATS, lambda: model.energies(S))
    return {"model": name, "n": model.n, "replicas": replicas,
            "operator": type(model.coupling_operator()).__name__,
            "us_per_replica": round(1e6 * seconds / replicas, 3)}


def measure_qubo(name: str, build, states: int) -> dict:
    """``energies`` of ``states`` random bit rows: the first call on each of
    REPEATS fresh models (anything the model caches is built inside it)
    and then repeated calls on the last one, each the minimum over REPEATS,
    with the traced peak of the first call on one more model."""
    rng = np.random.default_rng(SEED)
    model = build()
    X = (rng.random((states, model.n)) < 0.5).astype(np.int8)
    first = float("inf")
    for _ in range(REPEATS):
        model = build()
        first = min(first, best_of(1, lambda: model.energies(X))[0])
    seconds, _ = best_of(REPEATS, lambda: model.energies(X))
    model = build()
    peak = traced_peak(lambda: model.energies(X))
    return {"model": name, "n": model.n, "terms": model.num_terms, "states": states,
            "first_ms": round(1e3 * first, 3), "ms": round(1e3 * seconds, 3),
            "first_peak_mb": round(peak / 1e6, 2)}


def periodic_lattice(L: int) -> IsingModel:
    """Gaussian couplings on the L x L torus (right and down neighbours)."""
    site = np.arange(L * L).reshape(L, L)
    rows = np.concatenate([site.ravel(), site.ravel()])
    cols = np.concatenate([np.roll(site, -1, axis=1).ravel(), np.roll(site, -1, axis=0).ravel()])
    rng = np.random.default_rng(SEED)
    return IsingModel.from_arrays(L * L, rows, cols, rng.standard_normal(rows.size),
                                  h=rng.standard_normal(L * L))


def lattice_accuracy(model: IsingModel) -> dict:
    rng = np.random.default_rng(SEED)
    states = rng.choice(np.array([-1, 1], dtype=np.int8), size=(LATTICE_STATES, model.n))
    t0 = time.perf_counter()
    model.energy(states[0])
    first_s = time.perf_counter() - t0
    energy_s, _ = best_of(3, lambda: model.energy(states[0]))
    worst_ulps, worst_abs, energies = 0.0, 0.0, []
    for s in states:
        e = model.energy(s)
        terms = np.concatenate([model.values * s[model.rows] * s[model.cols], model.h * s])
        exact = math.fsum(terms.tolist()) + model.offset
        worst_abs = max(worst_abs, abs(e - exact))
        worst_ulps = max(worst_ulps, abs(e - exact) / math.ulp(exact))
        energies.append(round(e, 3))
    return {"n": model.n, "couplings": model.num_couplings,
            "first_energy_ms": round(1e3 * first_s, 2), "energy_ms": round(1e3 * energy_s, 2),
            "energies": energies, "worst_ulps_from_fsum": worst_ulps,
            "worst_abs_error": worst_abs}


def main() -> int:
    rows = [measure(name, build(), replicas) for name, build, replicas in MODELS]
    qubo = [measure_qubo(name, build, states) for name, build, states in QUBO_MODELS]
    lattice = lattice_accuracy(periodic_lattice(LATTICE_L))
    print(json.dumps({**environment(), "repeats": REPEATS, "energies": rows,
                      "qubo_energies": qubo, "lattice": lattice}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
