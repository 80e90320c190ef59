"""Unit cost of a parallel annealing (PA) step, a simulated bifurcation (SBM)
step and a simulated annealing (SA) spin update.

Usage, from the root of a checkout:

    python3 scripts/kernel_cost.py

At fixed (replicas, n) it times ``solve_pa``, ``solve_sbm`` and ``solve_sa``
on three models: the tile lattice L=32 (n=1024, CSR operator) with 64
replicas, a Wishart instance n=96 (dense) with 256 replicas, and a complete
uniform model n=500 (dense) with 64 replicas.  SBM's c0 is resolved once before
timing, so the eigenvalue solve is not counted.  Each figure is the
minimum over three calls of the whole call divided by its step count
(for SA, by sweeps * n * replicas spin updates), which includes the
per-call start (replica streams, final energies).  It prints one JSON
object: the machine, the versions, ms per PA and SBM step and ns per SA
spin update.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import PaParams, SaParams, SbmParams, solve_pa, solve_sa, solve_sbm  # noqa: E402
from qubokit.generators import gen_random, gen_tile, gen_wishart  # noqa: E402
from qubokit.solvers import resolve_c0  # noqa: E402
from timing import best_of, environment  # noqa: E402

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
)


def measure(name: str, model, replicas: int) -> dict:
    pa = PaParams(steps=PA_STEPS, replicas=replicas, seed=SEED)
    sbm = SbmParams(steps=SBM_STEPS, dt=SBM_DT, replicas=replicas, seed=SEED,
                    c0=resolve_c0(model))
    pa_s, _ = best_of(REPEATS, lambda: solve_pa(model, pa))
    sbm_s, _ = best_of(REPEATS, lambda: solve_sbm(model, sbm))
    sa = SaParams(sweeps=SA_SWEEPS, replicas=replicas, seed=SEED)
    sa_s, _ = best_of(REPEATS, lambda: solve_sa(model, sa))
    return {"model": name, "n": model.n, "replicas": replicas,
            "operator": type(model.coupling_operator()).__name__,
            "pa_ms_per_step": round(1e3 * pa_s / PA_STEPS, 4),
            "sbm_ms_per_step": round(1e3 * sbm_s / SBM_STEPS, 4),
            "sa_ns_per_update": round(1e9 * sa_s / (SA_SWEEPS * model.n * replicas), 2)}


def main() -> int:
    rows = [measure(name, build(), replicas) for name, build, replicas in MODELS]
    print(json.dumps({**environment(), "repeats": REPEATS,
                      "pa_steps": PA_STEPS, "sbm_steps": SBM_STEPS, "sa_sweeps": SA_SWEEPS,
                      "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
