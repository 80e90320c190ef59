"""Unit cost of a parallel annealing (PA) step, a simulated bifurcation (SBM)
step and a simulated annealing (SA) spin update.

Usage, from the root of a checkout:

    python3 scripts/kernel_cost.py

At fixed (replicas, n) it times ``solve_pa``, ``solve_sbm`` and ``solve_sa``
on four models: the tile lattice L=32 (n=1024, CSR operator) with 64
replicas, a Wishart instance n=96 (dense) with 256 replicas, a complete
uniform model n=500 (dense) with 64 replicas, and the tile lattice L=256
(n=65,536, CSR) with 4 replicas.  SBM's c0 is resolved once before
timing, so the eigenvalue solve is not counted.  Each figure is the
minimum over three calls of the whole call divided by its step count
(for SA, by sweeps * n * replicas spin updates), which includes the
per-call start (replica streams, final energies).  It prints one JSON
object: the machine, the versions, and per model ms per PA and SBM step,
ns per SA spin update, the dtype of the replica block that PA and SBM
multiply by the coupling operator (read from one untimed one-step call) and
each solver's best energy, so that a change of precision shows its effect
on quality next to its effect on speed.  Per model it also prints each
solver's tracemalloc peak in bytes per replica-spin and per spin, from one
extra untimed call after the timed ones (the model's operator and colouring
are built by then, so the peak is the solve's own).
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import PaParams, SaParams, SbmParams, solve_pa, solve_sa, solve_sbm  # noqa: E402
from qubokit.generators import gen_random, gen_tile, gen_wishart  # noqa: E402
from qubokit.solvers import bifurcation, parallel_annealing, resolve_c0  # noqa: E402
from timing import best_of, environment, traced_peak  # noqa: E402

SEED = 7
REPEATS = 3
PA_STEPS = 200
SBM_STEPS = 300
SBM_DT = 0.05
SA_SWEEPS = 50
# (name, model builder, replicas)
MODELS = (
    ("tile-L32", lambda: gen_tile(32, [0.0, 0.8, 0.0, 0.2], SEED).model, 64),
    ("wishart-n96", lambda: gen_wishart(96, 96, SEED).model, 256),
    ("complete-n500", lambda: gen_random("complete", "uniform", SEED, n=500), 64),
    ("tile-L256", lambda: gen_tile(256, [0.0, 0.8, 0.0, 0.2], SEED).model, 4),
)


def block_dtype(module, solve, model, params) -> str:
    """dtype of the replica block that ``solve`` (from ``module``) hands to
    ``block_product`` in a one-step call."""
    seen = []
    product = module.block_product

    def record(X, op, out):
        seen.append(X.dtype)
        return product(X, op, out)

    module.block_product = record
    try:
        solve(model, dataclasses.replace(params, steps=1))
    finally:
        module.block_product = product
    return str(seen[0])


def measure(name: str, model, replicas: int) -> dict:
    pa = PaParams(steps=PA_STEPS, replicas=replicas, seed=SEED)
    sbm = SbmParams(steps=SBM_STEPS, dt=SBM_DT, replicas=replicas, seed=SEED,
                    c0=resolve_c0(model))
    pa_s, pa_out = best_of(REPEATS, lambda: solve_pa(model, pa))
    sbm_s, sbm_out = best_of(REPEATS, lambda: solve_sbm(model, sbm))
    sa = SaParams(sweeps=SA_SWEEPS, replicas=replicas, seed=SEED)
    sa_s, sa_out = best_of(REPEATS, lambda: solve_sa(model, sa))
    row = {"model": name, "n": model.n, "replicas": replicas,
           "operator": type(model.coupling_operator()).__name__,
           "pa_block_dtype": block_dtype(parallel_annealing, solve_pa, model, pa),
           "sbm_block_dtype": block_dtype(bifurcation, solve_sbm, model, sbm),
           "pa_ms_per_step": round(1e3 * pa_s / PA_STEPS, 4),
           "sbm_ms_per_step": round(1e3 * sbm_s / SBM_STEPS, 4),
           "sa_ns_per_update": round(1e9 * sa_s / (SA_SWEEPS * model.n * replicas), 2),
           "pa_best_energy": pa_out.best.energy,
           "sbm_best_energy": sbm_out.best.energy,
           "sa_best_energy": sa_out.best.energy}
    for solver, solve, params in (("pa", solve_pa, pa), ("sbm", solve_sbm, sbm),
                                  ("sa", solve_sa, sa)):
        peak = traced_peak(lambda: solve(model, params))
        row[f"{solver}_peak_b_per_replica_spin"] = round(peak / (replicas * model.n), 1)
        row[f"{solver}_peak_b_per_spin"] = round(peak / model.n, 1)
    return row


def main() -> int:
    rows = [measure(name, build(), replicas) for name, build, replicas in MODELS]
    print(json.dumps({**environment(), "repeats": REPEATS,
                      "pa_steps": PA_STEPS, "sbm_steps": SBM_STEPS, "sa_sweeps": SA_SWEEPS,
                      "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
