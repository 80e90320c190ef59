"""scipy loads only on the sparse path: dense models never import it, and a
sparse model loads it on its first CSR solve, not when it is generated,
coloured or converted, nor when its QUBO's energies are evaluated.  SBM's
default c0 above n = 512 comes from numpy's Lanczos, so it loads neither
``scipy.sparse.linalg`` nor ``scipy.linalg``, and on a dense model no scipy
at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DENSE_RUN = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
from qubokit import (BBParams, PaParams, SaParams, SbmParams, eig_extreme, ising_to_qubo,
                     read_instance, solve_bb, solve_brute_force, solve_pa, solve_sa,
                     solve_sbm, write_instance)
from qubokit.generators import gen_random, gen_wishart

for m in (gen_random("complete", "int_uniform", 1, n=16, a=-31, b=31),
          gen_wishart(20, 20, 2).model):
    solve_sa(m, SaParams(sweeps=20, replicas=4))
    solve_pa(m, PaParams(steps=20, replicas=4))
    solve_sbm(m, SbmParams(steps=20, replicas=4))
    solve_bb(m, BBParams(leaf_size=8))
    solve_brute_force(m)
    eig_extreme(m.coupling_operator(), "min")
    q = ising_to_qubo(m)
    S = np.ones((3, m.n), dtype=np.int8)
    m.energies(S), q.energies((S + 1) // 2)
    with tempfile.TemporaryDirectory() as d:
        for model in (m, q):
            for name in ("m.txt", "m.json"):
                read_instance(write_instance(Path(d) / name, model))
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""

CSR_RUN = """
import json, sys
import numpy as np
from qubokit import IsingModel, SaParams, solve_sa

# a ring of 256 spins: 2 of every 256 operator entries are non-zero, so CSR
i = np.arange(256)
m = IsingModel.from_arrays(256, i, (i + 1) % 256, np.where(i % 3, 1.0, -1.0))
before = "scipy.sparse" in sys.modules
solve_sa(m, SaParams(sweeps=5, replicas=4))
print(json.dumps([before, "scipy.sparse" in sys.modules]))
"""

TILE_GENERATE = """
import json, sys
from qubokit.generators import gen_tile

gen_tile(16, [0.0, 0.8, 0.0, 0.2], 1)
print(json.dumps("scipy.sparse" in sys.modules))
"""

SPARSE_QUBO_ENERGIES = """
import json, sys
import numpy as np
from qubokit import ising_to_qubo
from qubokit.generators import gen_tile

m = gen_tile(16, [0.0, 0.8, 0.0, 0.2], 1).model
m.colour_classes()
q = ising_to_qubo(m)
q.energies(np.ones((3, q.n), dtype=np.int8)), q.energy(np.zeros(q.n, dtype=np.int8))
print(json.dumps("scipy.sparse" in sys.modules))
"""

SBM_DEFAULT_C0 = """
import json, sys
from qubokit import SbmParams, solve_sbm
from qubokit.generators import gen_random, gen_tile

model = {model}
assert model.n > 512
solve_sbm(model, SbmParams(steps=20, replicas=4))
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""


def _fresh(code: str):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_dense_models_never_import_scipy():
    assert _fresh(DENSE_RUN) == []


def test_csr_model_imports_scipy_sparse_when_solved():
    assert _fresh(CSR_RUN) == [False, True]


def test_tile_generation_leaves_scipy_sparse_unloaded():
    assert _fresh(TILE_GENERATE) is False


def test_sparse_qubo_energies_leave_scipy_sparse_unloaded():
    assert _fresh(SPARSE_QUBO_ENERGIES) is False


def test_sbm_default_c0_on_csr_loads_no_scipy_linalg():
    loaded = _fresh(SBM_DEFAULT_C0.format(model='gen_tile(32, [0.0, 0.8, 0.0, 0.2], 1).model'))
    assert "scipy.sparse" in loaded
    linalg = [k for k in loaded if k.startswith(("scipy.linalg", "scipy.sparse.linalg"))]
    assert linalg == []


def test_sbm_default_c0_on_dense_loads_no_scipy():
    model = 'gen_random("complete", "uniform", 1, n=600)'
    assert _fresh(SBM_DEFAULT_C0.format(model=model)) == []
