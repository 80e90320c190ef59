"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, in untraced and traced runs of every workload, and that the output
checks are not vacuous: a wrong certified energy injected here must make
operations fail.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sparse-planted": {"families": [
        {"family": "tile", "args": {"L": 4, "p": [0.0, 0.8, 0.0, 0.2]}, "count": 1,
         "budgets": {"sa": {"sweeps": 50, "replicas": 8},
                     "pa": {"steps": 100, "replicas": 8},
                     "sbm": {"steps": 200, "dt": 0.05, "replicas": 8}}},
        {"family": "r3x3", "args": {"n": 6}, "count": 1,
         "budgets": {"sa": {"sweeps": 50, "replicas": 8},
                     "pa": {"steps": 100, "replicas": 8},
                     "sbm": {"steps": 200, "dt": 0.05, "replicas": 8}}},
    ]},
    "dense-planted": {"families": [
        {"family": "wishart", "args": {"N": 8, "M": 8}, "count": 1,
         "budgets": {"sa": {"sweeps": 50, "replicas": 16},
                     "pa": {"steps": 100, "replicas": 16},
                     "sbm": {"steps": 200, "dt": 0.05, "replicas": 16}}},
    ]},
    "exact-proof": {"sizes": [8, 10], "couplings": {"a": -31, "b": 31},
                    "bb": {"bound_kind": "spd_admissible", "leaf_size": 4,
                           "time_limit": 30.0}},
    "large-io": {"n": 12, "pa": {"steps": 50, "replicas": 8},
                 "sbm": {"steps": 50, "dt": 0.05, "replicas": 8},
                 "qubo_check_states": 4, "hubo_n": 6},
}


def run_tiny(name, trace, tamper=None):
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, spec=TINY[name],
                            tamper=tamper, setup_start=time.perf_counter())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(name, trace):
    out = run_tiny(name, trace)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert set(out["record"]["samples"]) == set(declared)
    json.loads(json.dumps(result))


@pytest.mark.parametrize("name", ["sparse-planted", "dense-planted"])
def test_wrong_certified_energy_fails_operations(name):
    def raise_certificate(wl):
        # a certificate above the true ground energy: solvers beat it
        wl.instances[0].ref += 1.0

    out = run_tiny(name, False, tamper=raise_certificate)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] > 0
    assert out["record"]["quality"]["error_rate"]["value"] > 0
    assert any("below certified" in f for f in out["record"]["failures"])


def test_no_result_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "exact-proof",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_unproved_optimum_fails_operations():
    def starve(wl):
        wl.spec = dict(wl.spec, bb=dict(wl.spec["bb"], time_limit=1e-9))

    out = run_tiny("exact-proof", False, tamper=starve)
    assert out["result"]["failed"] > 0
    assert any("did not prove" in f for f in out["record"]["failures"])
