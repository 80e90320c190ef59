"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 9's optional external-file check looks for the GKA
instances under $QUBOKIT_GKA_DIR and is skipped when the variable is unset.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import qubokit as qk
from qubokit.generators import rng_stream

from oracles import all_bit_states, all_spin_states, completion_min, exhaustive_min_hubo


def report(num: int, text: str):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def random_hubo_cubic(n, seed, n_cubic=8):
    rng = np.random.default_rng(seed)
    terms = []
    for i in range(n):
        terms.append(((i,), float(rng.normal())))
    for _ in range(n):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        terms.append(((int(i), int(j)), float(rng.normal())))
    for _ in range(n_cubic):
        idx = tuple(int(v) for v in sorted(rng.choice(n, size=3, replace=False)))
        terms.append((idx, float(rng.normal())))
    return qk.HuboModel.from_terms(n, "spin", terms, max_order=3)


def test_criterion_01_conversion_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(10)
    for trial in range(100):
        n = int(rng.integers(2, 15))
        terms = [(i, j, float(rng.normal())) for i in range(n) for j in range(i, n)
                 if rng.random() < 0.7]
        q = qk.QuboModel.from_terms(n, terms=terms, offset=float(rng.normal()))
        m = qk.qubo_to_ising(q)
        X = all_bit_states(n)
        S = 2 * X - 1
        assert np.allclose(q.energies(X), m.energies(S), atol=1e-9)
        back = qk.qubo_to_ising(qk.ising_to_qubo(m))
        assert np.allclose(m.energies(S), back.energies(S), atol=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"QUBO<->Ising agreement on all states of 100 models, n<=14, "
              f"1e-9 abs, round-trip included ({elapsed:.1f}s)")


def test_criterion_02_reduction_gadget():
    t0 = time.time()
    # gadget table: one fixed affine pair (scale 1, shift 0) for both signs
    for sign in (1.0, -1.0):
        h = qk.HuboModel.from_terms(3, "spin", [((0, 1, 2), sign)])
        reduced, rmap = qk.reduce_cubic(h)
        assert (rmap.energy_scale, rmap.energy_shift) == (1.0, 0.0)
        for s in all_spin_states(3):
            mins = min(reduced.energy(np.concatenate([s, [a]])) for a in (-1, 1))
            assert mins == pytest.approx(
                rmap.energy_scale * (sign * s[0] * s[1] * s[2]) + rmap.energy_shift,
                abs=1e-12)
    # 50 random cubic models, identical optima under double enumeration + lift
    rng = np.random.default_rng(20)
    for trial in range(50):
        n = int(rng.integers(6, 11))
        h = random_hubo_cubic(n, seed=2000 + trial, n_cubic=int(rng.integers(3, 9)))
        reduced, rmap = qk.reduce_cubic(h)
        direct_min = exhaustive_min_hubo(h)
        S = all_spin_states(reduced.n)
        energies = reduced.energies(S)
        assert float(energies.min()) == pytest.approx(direct_min, abs=1e-9)
        lifted = rmap.lift(S[int(np.argmin(energies))])
        assert h.energy(lifted) == pytest.approx(direct_min, abs=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, f"reduction gadget exact on all 16 gadget states both signs; 50 random "
              f"cubic models share optima under double enumeration ({elapsed:.1f}s)")


def test_criterion_03_planted_certificates():
    t0 = time.time()
    checked = 0
    for seed in range(10):
        n = 6 + (seed % 7)  # n = 6..12
        pi = qk.gen_3r3x(n, seed=3000 + seed)
        assert exhaustive_min_hubo(pi.model) == pytest.approx(pi.planted_energy, rel=1e-9)
        checked += 1
    for p2 in (0.2, 0.8):
        for seed in range(5):
            pi = qk.gen_tile(4, (0.0, p2, 0.0, 1.0 - p2), seed=3100 + seed)
            _, e = qk.solve_brute_force(pi.model)
            assert e == pytest.approx(pi.planted_energy, rel=1e-9)
            checked += 1
    for alpha in (0.2, 1.0):
        for seed in range(5):
            N = 10 + seed  # N = 10..14
            M = max(1, int(round(alpha * N)))
            pi = qk.gen_wishart(N, M, seed=3200 + seed)
            _, e = qk.solve_brute_force(pi.model)
            assert e == pytest.approx(pi.planted_energy, rel=1e-9)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(3, f"{checked} planted certificates (3r3x n=6..12, tile L=4 p2 in "
              f"{{0.2,0.8}}, wishart N<=14 alpha in {{0.2,1.0}}) all confirmed "
              f"global minima ({elapsed:.1f}s)")


def test_criterion_04_wishart_identities():
    t0 = time.time()
    for N, M, seed in [(32, 16, 1), (128, 64, 2), (512, 128, 3), (512, 512, 4)]:
        rng = rng_stream(seed)
        t = np.ones(N)
        Z = rng.standard_normal((N, M))
        W = np.sqrt(N / (N - 1.0)) * (Z - np.outer(t, t @ Z) / N)
        col_norms = np.linalg.norm(W, axis=0)
        assert np.all(np.abs(W.T @ t) <= 1e-10 * col_norms)

        pi = qk.gen_wishart(N, M, seed)
        Jt = -(W @ W.T) / N
        assert pi.planted_energy == pytest.approx(0.5 * np.trace(Jt), rel=1e-9)
        assert pi.model.energy(pi.planted_state) == pytest.approx(
            pi.planted_energy, rel=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, f"wishart orthogonality (1e-10 * column norm) and trace identity "
              f"(1e-9 rel) hold up to N=512 ({elapsed:.1f}s)")


def test_criterion_05_heuristic_quality_oracle_scale():
    t0 = time.time()
    solvers = {
        "sa": lambda m, seed: qk.solve_sa(m, qk.SaParams(sweeps=1000, replicas=32, seed=seed)),
        "pa": lambda m, seed: qk.solve_pa(m, qk.PaParams(steps=1000, replicas=32, seed=seed)),
        "sbm": lambda m, seed: qk.solve_sbm(
            m, qk.SbmParams(steps=2000, dt=0.05, replicas=32, seed=seed)),
    }
    hits_random = {k: 0 for k in solvers}
    for seed in range(10):
        m = qk.gen_random("complete", "uniform", 5000 + seed, n=16)
        _, gs = qk.solve_brute_force(m)
        for name, run in solvers.items():
            hits_random[name] += abs(run(m, seed).best.energy - gs) < 1e-9
    hits_planted = {k: 0 for k in solvers}
    for seed in range(10):
        pi = qk.gen_3r3x(12, seed=5100 + seed)
        reduced, rmap = qk.reduce_cubic(pi.model)
        for name, run in solvers.items():
            best = run(reduced, seed).best
            lifted = rmap.lift(best.state)
            hits_planted[name] += abs(pi.model.energy(lifted) - pi.planted_energy) < 1e-9
    elapsed = time.time() - t0
    for name in solvers:
        assert hits_random[name] >= 9, f"{name} random n=16: {hits_random[name]}/10"
        assert hits_planted[name] >= 9, f"{name} planted 3r3x: {hits_planted[name]}/10"
    assert elapsed < 300
    report(5, f"32-replica heuristics reach brute-force optimum: random n=16 "
              f"{dict(hits_random)}, planted 3r3x n=12 (24 reduced vars) "
              f"{dict(hits_planted)}, all >= 9/10 ({elapsed:.1f}s)")


def test_criterion_06_bb_exactness_and_admissible_dominance():
    t0 = time.time()
    worst = 0.0
    for trial in range(20):
        n = 18 + (trial % 9)  # 18..26
        m = qk.gen_random("complete", "uniform", 6000 + trial, n=n)
        _, gs = qk.solve_brute_force(m)
        t1 = time.time()
        res = qk.solve_bb(m, qk.BBParams(bound_kind="spd_admissible"))
        dt = time.time() - t1
        worst = max(worst, dt)
        assert dt < 60
        assert res.optimal
        assert res.energy == pytest.approx(gs, abs=1e-9)

    m = qk.gen_random("complete", "uniform", 6100, n=18)
    rng = np.random.default_rng(61)
    for _ in range(100):
        k = int(rng.integers(1, 17))
        prefix = rng.choice([-1, 1], size=k)
        b = qk.bound_spd(m, prefix, epsilon=1.0, admissible=True)
        assert b <= completion_min(m, prefix) + 1e-9
    elapsed = time.time() - t0
    report(6, f"spd_admissible B&B matches brute force 20/20 (n<=26, worst "
              f"{worst:.1f}s < 60s) and admissible bound never exceeds the true "
              f"completion minimum on 100 prefixes at n=18 ({elapsed:.1f}s)")


def test_criterion_07_base_bound_unreliability():
    t0 = time.time()
    base_worse = 0
    for seed in range(10):
        m = qk.gen_random("complete", "uniform", 7000 + seed, n=200)
        rb = qk.solve_bb(m, qk.BBParams(bound_kind="base", pool_limit=128,
                                        time_limit=15.0))
        rs = qk.solve_bb(m, qk.BBParams(bound_kind="spd", pool_limit=128,
                                        time_limit=30.0))
        best = min(rb.energy, rs.energy)
        gap_base = qk.optimality_gap(rb.energy, best) if best != 0 else 0.0
        gap_spd = qk.optimality_gap(rs.energy, best) if best != 0 else 0.0
        base_worse += gap_base >= gap_spd
    elapsed = time.time() - t0
    assert base_worse >= 6, f"base gap >= spd gap on only {base_worse}/10 seeds"
    report(7, f"with a tight pool (128) on dense n=200, base-mode gap >= spd-mode "
              f"gap on {base_worse}/10 seeds ({elapsed:.1f}s)")


def test_criterion_08_spectrum_methodology():
    t0 = time.time()
    m = qk.gen_random("complete", "uniform", 8000, n=100)
    sset = qk.solve_pa(m, qk.PaParams(steps=1000, replicas=1024, seed=8))
    assert len(sset) == 1024
    energies = sset.energies()
    assert np.all(np.diff(energies) >= 0)
    edges, counts = qk.spectrum(sset, bins=32)
    assert counts.sum() == 1024
    best = sset.best.energy
    assert edges[0] <= best <= edges[1]
    assert counts[0] >= 1
    elapsed = time.time() - t0
    report(8, f"1024-replica PA spectrum on random n=100: sorted sample set, "
              f"histogram counts sum to 1024, lowest bin holds the best sample "
              f"({elapsed:.1f}s)")


def test_criterion_09_gka_scale_sanity():
    t0 = time.time()
    for seed in range(5):
        m = qk.gen_random("complete", "int_uniform", 9000 + seed, n=50, a=-31, b=31)
        best_heur = np.inf
        r = qk.solve_sa(m, qk.SaParams(sweeps=1000, replicas=1024, seed=seed))
        best_heur = min(best_heur, r.best.energy)
        r = qk.solve_pa(m, qk.PaParams(steps=1000, replicas=1024, seed=seed))
        best_heur = min(best_heur, r.best.energy)
        res = qk.solve_bb(m, qk.BBParams(bound_kind="spd_admissible", leaf_size=14,
                                         time_limit=25.0))
        assert res.optimal, f"seed {seed}: no proof within 25 s, certified gap {res.gap}"
        gap = qk.optimality_gap(res.energy, best_heur)
        assert gap == pytest.approx(0.0, abs=1e-12), f"seed {seed}: gap {gap}"
    elapsed = time.time() - t0
    assert elapsed < 600
    report(9, f"n=50 dense integer instances: spd_admissible B&B and "
              f"best-of-1024-replica heuristics agree (0.0% gap) on 5/5 seeds "
              f"({elapsed:.1f}s)")


GKA_BEST_KNOWN = {"gka1a": 3414.0, "gka2a": 6063.0, "gka5a": 5737.0}


def _read_gka(path: Path) -> qk.QuboModel:
    # ORLIB/Biq Mac sparse format: 'n m' header then 1-based 'i j v' triplets
    # for maximize x^T Q x; minimize the negated model.
    lines = [ln for ln in path.read_text().split("\n")
             if ln.strip() and not ln.lstrip().startswith(("#", "%"))]
    n, m_terms = (int(v) for v in lines[0].split()[:2])
    terms = []
    for ln in lines[1:1 + m_terms]:
        i, j, v = ln.split()[:3]
        a, b = sorted((int(i) - 1, int(j) - 1))
        terms.append((a, b, -float(v)))
    return qk.QuboModel.from_terms(n, terms=terms)


@pytest.mark.skipif(not os.environ.get("QUBOKIT_GKA_DIR"),
                    reason="QUBOKIT_GKA_DIR not set; true GKA files are optional input")
def test_criterion_09b_gka_files_best_known():
    gka_dir = Path(os.environ["QUBOKIT_GKA_DIR"])
    best_known = dict(GKA_BEST_KNOWN)
    override = gka_dir / "best_known.json"
    if override.exists():
        best_known.update({k: float(v) for k, v in
                           json.loads(override.read_text()).items()})
    for name in ("gka1a", "gka2a", "gka5a"):
        matches = list(gka_dir.glob(f"{name}*"))
        assert matches, f"{name} not found in {gka_dir}"
        q = _read_gka(matches[0])
        ising = qk.qubo_to_ising(q)
        best = np.inf
        best = min(best, qk.solve_sa(ising, qk.SaParams(
            sweeps=2000, replicas=1024, seed=1)).best.energy)
        res = qk.solve_bb(ising, qk.BBParams(bound_kind="spd_admissible",
                                             leaf_size=14, time_limit=60.0))
        best = min(best, res.energy)
        assert -best == pytest.approx(best_known[name], abs=1e-6), name
    report(9, "optional GKA files: best-known energies matched on gka1a/gka2a/gka5a")


def test_criterion_10_determinism_any_worker_budget():
    t0 = time.time()
    spec_kwargs = dict(
        source={"generator": {"family": "random", "sizes": [14], "seeds": [1, 2, 3]}},
        solvers=[{"id": "sa", "params": {"sweeps": 200}},
                 {"id": "pa", "params": {"steps": 200}},
                 {"id": "sbm", "params": {"steps": 300, "dt": 0.1}},
                 {"id": "bb", "params": {"bound_kind": "spd_admissible"}},
                 {"id": "bf"}],
        reference="brute_force", replicas=16)
    runs = [qk.run_suite(qk.SuiteSpec(workers=w, **spec_kwargs)) for w in (1, 4, 2)]
    for other in runs[1:]:
        for ra, rb in zip(runs[0], other):
            assert (ra.instance_id, ra.solver_id) == (rb.instance_id, rb.solver_id)
            assert ra.energy == rb.energy
            assert ra.reference_energy == rb.reference_energy
            assert ra.gap == rb.gap

    # solver-level bitwise state reproducibility
    m = qk.gen_random("complete", "uniform", 10000, n=16)
    for solve, params in [
        (qk.solve_sa, qk.SaParams(sweeps=300, replicas=8, seed=4)),
        (qk.solve_pa, qk.PaParams(steps=300, replicas=8, seed=4)),
        (qk.solve_sbm, qk.SbmParams(steps=300, dt=0.1, replicas=8, seed=4)),
    ]:
        a, b = solve(m, params), solve(m, params)
        assert all(np.array_equal(x.state, y.state) and x.energy == y.energy
                   for x, y in zip(a.samples, b.samples))
    elapsed = time.time() - t0
    report(10, f"suite records identical across worker budgets 1/4/2 and solver "
               f"sample sets bitwise-reproducible ({elapsed:.1f}s)")
