"""The CLI and the bench harness share one solver and one generator registry.

For every registered solver, ``qubokit solve`` and a one-file ``run_suite``
given the same parameters and seed must report the same best energy; for
every registered generator family, ``qubokit generate`` and a suite
generator source must build the same model.
"""

import json

import numpy as np
import pytest

from qubokit import SuiteSpec, run_suite
from qubokit.bench import _resolve_instances
from qubokit.cli import main
from qubokit.generators import GENERATORS, gen_chain3, gen_random
from qubokit.instance_io import read_certificate, read_instance, write_instance
from qubokit.model import HuboModel
from qubokit.solvers import SOLVERS
from qubokit.transforms import ising_to_qubo, to_ising

SOLVER_PARAMS = {
    "sa": {"sweeps": 50, "seed": 5},
    "pa": {"steps": 100, "seed": 5},
    "sbm": {"steps": 200, "dt": 0.1, "seed": 5},
    "bf": {},
    "bb": {"leaf_size": 4},
}

INSTANCES = {
    "ising": lambda: gen_random("complete", "gaussian", 11, n=9),
    "qubo": lambda: ising_to_qubo(gen_random("complete", "uniform", 12, n=8)),
    "binary_hubo": lambda: HuboModel.from_terms(6, "binary", gen_chain3(6, 13).terms(),
                                                max_order=3),
}

# CLI flags and suite keywords for one instance of each family
FAMILIES = {
    "chain3": (["--n", 6], {"sizes": [6]}),
    "mw3s": (["--n", 7], {"sizes": [7]}),
    "3r3x": (["--n", 8], {"sizes": [8]}),
    "tile": (["--L", 4, "--p2", 0.7], {"sizes": [4], "p2": 0.7}),
    "wishart": (["--n", 9, "--alpha", 0.5], {"sizes": [9], "alpha": 0.5}),
    "random": (["--n", 7, "--dist", "int_uniform", "--low", -3, "--high", 3],
               {"sizes": [7], "dist": "int_uniform", "a": -3, "b": 3}),
}


def run(args):
    return main([str(a) for a in args])


def test_every_solver_and_family_covered():
    assert set(SOLVER_PARAMS) == set(SOLVERS)
    assert set(FAMILIES) == set(GENERATORS)


@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize("solver", sorted(SOLVER_PARAMS))
def test_cli_and_suite_report_same_energy(tmp_path, solver, kind):
    path = write_instance(tmp_path / f"{kind}.txt", INSTANCES[kind]())
    params = tmp_path / "params.json"
    params.write_text(json.dumps(SOLVER_PARAMS[solver]))
    report = tmp_path / "report.json"
    assert run(["solve", path, "--solver", solver, "--params", params,
                "--replicas", 8, "--out", report]) == 0
    [rec] = run_suite(SuiteSpec(source={"files": str(path)},
                                solvers=[{"id": solver, "params": SOLVER_PARAMS[solver]}],
                                replicas=8))
    assert rec.error == ""
    assert json.loads(report.read_text())["best_energy"] == rec.energy


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_and_suite_generate_same_model(tmp_path, family):
    flags, keywords = FAMILIES[family]
    out = tmp_path / f"{family}.txt"
    assert run(["generate", family, *flags, "--seed", 4, "--out", out]) == 0
    [entry] = _resolve_instances(SuiteSpec(
        source={"generator": {"family": family, "seeds": [4], **keywords}},
        solvers=[{"id": "bf"}]))
    cli_model, _ = to_ising(read_instance(out))
    for attr in ("n", "h", "rows", "cols", "values", "offset"):
        assert np.array_equal(getattr(cli_model, attr), getattr(entry.model, attr)), attr
    cert = out.with_suffix(".txt.cert.json")
    if cert.exists():
        assert float(read_certificate(cert)["planted_energy"]) == entry.planted_energy
    else:
        assert entry.planted_energy is None
