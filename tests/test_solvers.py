"""Tests for the heuristic engines: SA, PA, SBM."""

import dataclasses
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from qubokit import (
    BBParams,
    IsingModel,
    PaParams,
    SaParams,
    SbmParams,
    ValidationError,
    solve_brute_force,
    solve_pa,
    solve_sa,
    solve_sbm,
)
from qubokit.generators import gen_3r3x, gen_random, gen_tile, gen_wishart, rng_stream
from qubokit.solvers import resolve_c0, resolve_lambda0
from qubokit.solvers.bifurcation import integrate
from qubokit.solvers.common import (
    MAX_LEAF_SIZE,
    make_sampleset,
    params_from_dict,
)
from qubokit.transforms import reduce_cubic


def ferro_pair():
    return IsingModel.from_terms(2, couplings=[(0, 1, -1.0)])


def tile32():
    """4-regular n=1024 tile lattice: coupling_operator() is CSR."""
    return gen_tile(32, [0.0, 0.8, 0.0, 0.2], 5).model


def tile64():
    """n=4096 tile lattice (CSR) with its operator and colouring built, so
    a traced solve counts only its own allocations."""
    m = gen_tile(64, [0.0, 0.8, 0.0, 0.2], 64).model
    m.coupling_operator()
    m.colour_classes()
    return m


def traced_peak(solve, model, params) -> int:
    """tracemalloc peak of one ``solve(model, params)`` call, in bytes."""
    tracemalloc.start()
    try:
        solve(model, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def digest(sset) -> str:
    states = np.stack([s.state for s in sset.samples])
    return hashlib.sha256(states.tobytes()).hexdigest()[:16]


def same_samples(a, b) -> bool:
    return len(a) == len(b) and all(
        x.replica == y.replica and x.energy == y.energy and np.array_equal(x.state, y.state)
        for x, y in zip(a.samples, b.samples))


def sa_sequential(model, params):
    """One spin at a time in colour-class order, fields updated row by row.

    The vectorized class steps of ``solve_sa`` must reproduce this bit for
    bit on integer-valued models, where summation order cannot round.
    """
    n, R = model.n, params.replicas
    T_init = 2.0 * max(model.field_scale, 1e-12)
    ratio = (1e-3 * T_init / T_init) ** (1.0 / (params.sweeps - 1))
    temps = T_init * ratio ** np.arange(params.sweeps)
    streams = [rng_stream(params.seed, r) for r in range(R)]
    S = np.stack([2 * g.integers(0, 2, size=n) - 1 for g in streams]).astype(np.float64)
    A = model.coupling_matrix()
    F = S @ A + model.h
    E = np.array([model.energy(s) for s in S.astype(np.int8)]) - model.offset
    best_E, best_S = E.copy(), S.copy()
    order = np.concatenate(model.colour_classes())
    U = np.stack([g.random((params.sweeps, n)) for g in streams])
    for t in range(params.sweeps):
        for i in order:
            for r in range(R):
                dE = -2.0 * S[r, i] * F[r, i]
                if U[r, t, i] < np.exp(min(-dE / temps[t], 0.0)):
                    S[r, i] = -S[r, i]
                    E[r] += dE
                    F[r] += 2.0 * S[r, i] * A[i]
        improved = E < best_E
        best_E[improved] = E[improved]
        best_S[improved] = S[improved]
    return best_S.astype(np.int8), best_E + model.offset


class TestSimulatedAnnealing:
    def test_ferromagnetic_pair_ground_state(self):
        m = ferro_pair()
        found = 0
        for seed in range(100):
            r = solve_sa(m, SaParams(sweeps=50, replicas=1, seed=seed))
            found += r.best.energy == -1.0
        assert found >= 99

    def test_matches_brute_force_n16(self):
        hits = 0
        for seed in range(10):
            m = gen_random("complete", "uniform", 300 + seed, n=16)
            _, gs = solve_brute_force(m)
            r = solve_sa(m, SaParams(sweeps=500, replicas=32, seed=seed))
            hits += abs(r.best.energy - gs) < 1e-9
        assert hits >= 9

    def test_zero_model(self):
        m = IsingModel.from_terms(4)
        r = solve_sa(m, SaParams(sweeps=10, replicas=2, seed=0))
        assert r.best.energy == 0.0

    def test_sampleset_sorted_and_consistent(self):
        m = gen_random("complete", "gaussian", 17, n=12)
        r = solve_sa(m, SaParams(sweeps=100, replicas=8, seed=1))
        energies = r.energies()
        assert np.all(np.diff(energies) >= 0)
        assert r.replica_count == len(r.samples) == 8
        for s in r.samples:
            assert m.energy(s.state) == pytest.approx(s.energy, abs=1e-9)

    def test_deterministic(self):
        m = gen_random("complete", "gaussian", 23, n=10)
        a = solve_sa(m, SaParams(sweeps=200, replicas=4, seed=7))
        b = solve_sa(m, SaParams(sweeps=200, replicas=4, seed=7))
        assert [s.energy for s in a.samples] == [s.energy for s in b.samples]
        assert all(np.array_equal(x.state, y.state) for x, y in zip(a.samples, b.samples))

    def test_memory_grows_with_replicas_times_n(self):
        # n=4096, 8192 couplings; the solve holds a few (replicas, n) blocks
        # (states drawn straight into their block, fields, int8 best states,
        # a chunk of uniform draws): 51 B per replica-spin
        m = tile64()
        assert traced_peak(solve_sa, m, SaParams(sweeps=10, replicas=64, seed=1)) < 56 * 64 * m.n

    def test_draw_block_is_bounded(self):
        # dense n=96 with 256 replicas: 40 sweeps of draws would be 7.9 MB,
        # but the solve draws them in blocks of at most 2 MiB
        m = gen_wishart(96, 96, 3).model
        m.coupling_operator()
        m.colour_classes()
        peak = traced_peak(solve_sa, m, SaParams(sweeps=40, replicas=256, seed=1))
        assert peak < 256 * 256 * m.n

    def test_complete_graph_golden(self):
        # Recorded before colour-class sweeps: on a complete graph every class
        # is one spin, so the trajectory must not change.
        m = gen_random("complete", "int_uniform", 2, n=20, a=-31, b=31)
        r = solve_sa(m, SaParams(sweeps=60, replicas=16, seed=2))
        golden = [
            (0, "-+-+-++-+--+-++-+-++", -1092.0), (2, "-+-+-++-+--+-++-+-++", -1092.0),
            (3, "-+-+-++-+--+-++-+-++", -1092.0), (8, "-+-+-++-+--+-++-+-++", -1092.0),
            (11, "-+-+-++-+--+-++-+-++", -1092.0), (15, "-+-+-++-+--+-++-+-++", -1092.0),
            (1, "---+-++----+-+--++++", -1076.0), (4, "---+-++----+-+--++++", -1076.0),
            (7, "---+-++----+-+--++++", -1076.0), (12, "---+-++----+-+--++++", -1076.0),
            (14, "---+-++----+-+--++++", -1076.0), (5, "---+-+++---+-+--+-++", -1060.0),
            (13, "---+-+-+--++-+--++++", -1010.0), (6, "+-+-+--+-++-+--+----", -1006.0),
            (10, "+-+-+--+-++-+--+----", -1006.0), (9, "+++-+--+-++-+-++----", -1002.0),
        ]
        got = [(s.replica, "".join("+" if v > 0 else "-" for v in s.state), s.energy)
               for s in r.samples]
        assert got == golden

    @pytest.mark.parametrize("build", [
        lambda: gen_tile(8, [0.0, 0.8, 0.0, 0.2], 6).model,
        lambda: reduce_cubic(gen_3r3x(12, 6).model)[0],
    ], ids=["tile-8", "3r3x-reduced-24"])
    def test_class_steps_equal_sequential_metropolis(self, build):
        m = build()
        assert len(m.colour_classes()) < m.n
        params = SaParams(sweeps=12, replicas=6, seed=6)
        states, energies = sa_sequential(m, params)
        r = solve_sa(m, params)
        for s in r.samples:
            assert np.array_equal(s.state, states[s.replica])
            assert s.energy == energies[s.replica]

    @pytest.mark.parametrize("build", [
        tile32, lambda: reduce_cubic(gen_3r3x(48, 7).model)[0],
    ], ids=["tile-32", "3r3x-reduced-96"])
    def test_deterministic_on_sparse_models(self, build):
        m = build()
        params = SaParams(sweeps=20, replicas=8, seed=7)
        assert same_samples(solve_sa(m, params), solve_sa(m, params))


class TestParallelAnnealing:
    def test_single_spin_field(self):
        m = IsingModel.from_terms(1, h=[-1.0])
        r = solve_pa(m, PaParams(steps=200, replicas=4, seed=0))
        assert r.best.energy == -1.0
        assert np.array_equal(r.best.state, [1])

    def test_lambda0_auto_formula(self):
        m = IsingModel.from_terms(3, h=[1.0, -2.0, 0.5],
                                  couplings=[(0, 1, 2.0), (1, 2, -3.0)])
        # max_i(|h_i| + sum_j |J_ij|): i=1 gives 2 + 2 + 3 = 7
        assert resolve_lambda0(m) == pytest.approx(7.0)

    def test_matches_brute_force_n16(self):
        hits = 0
        for seed in range(10):
            m = gen_random("complete", "uniform", 300 + seed, n=16)
            _, gs = solve_brute_force(m)
            r = solve_pa(m, PaParams(steps=500, replicas=32, seed=seed))
            hits += abs(r.best.energy - gs) < 1e-9
        assert hits >= 9

    def test_clipping_invariant(self):
        # replicate the loop, asserting spins stay inside [-1, 1] each step
        from qubokit.model import sign_pm

        m = gen_random("complete", "gaussian", 41, n=10)
        params = PaParams(steps=100, replicas=4, seed=3)
        lam0 = resolve_lambda0(m)
        streams = [rng_stream(params.seed, r) for r in range(params.replicas)]
        X = np.stack([g.uniform(-1, 1, size=m.n) for g in streams])
        M = np.zeros_like(X)
        A = m.coupling_matrix()
        for t in range(params.steps):
            lam = lam0 * (1 - t / params.steps)
            grad = lam * X + sign_pm(X).astype(float) @ A + m.h
            M = params.momentum * M - params.learning_rate * grad
            X = np.clip(X + M, -1.0, 1.0)
            assert np.all(np.abs(X) <= 1.0)

    def test_deterministic(self):
        m = gen_random("complete", "gaussian", 29, n=10)
        a = solve_pa(m, PaParams(steps=100, replicas=4, seed=5))
        b = solve_pa(m, PaParams(steps=100, replicas=4, seed=5))
        assert all(np.array_equal(x.state, y.state) for x, y in zip(a.samples, b.samples))


    def test_memory_grows_with_replicas_times_n(self):
        # float32 blocks X (drawn straight into), M, S, G, F, H and the CSR
        # product, freed when the kernel returns; the driver signs X into
        # int8 and frees X before scoring: 29 B per replica-spin
        m = tile64()
        assert traced_peak(solve_pa, m, PaParams(steps=10, replicas=64, seed=1)) < 32 * 64 * m.n

    def test_csr_operator_golden(self):
        # Recorded while the operator was still the dense matrix.
        r = solve_pa(tile32(), PaParams(steps=100, replicas=8, seed=2))
        assert digest(r) == "9a03a248ee04936e"
        assert [s.replica for s in r.samples] == [4, 0, 2, 1, 5, 3, 7, 6]
        assert r.energies().tolist() == [-1760.0, -1758.0, -1754.0, -1752.0,
                                         -1748.0, -1738.0, -1734.0, -1730.0]


class TestSimulatedBifurcation:
    def test_two_oscillator_sync(self):
        # strong ferromagnetic coupling: both ends settle with equal signs
        m = IsingModel.from_terms(2, couplings=[(0, 1, -10.0)])
        agree = 0
        for seed in range(100):
            r = solve_sbm(m, SbmParams(steps=1000, dt=0.1, replicas=1, seed=seed))
            s = r.best.state
            agree += s[0] == s[1]
        assert agree >= 99

    def test_matches_brute_force_n16(self):
        hits = 0
        for seed in range(10):
            m = gen_random("complete", "uniform", 300 + seed, n=16)
            _, gs = solve_brute_force(m)
            r = solve_sbm(m, SbmParams(steps=1000, dt=0.1, replicas=32, seed=seed))
            hits += abs(r.best.energy - gs) < 1e-9
        assert hits >= 9

    def test_unbiased_signs_for_free_oscillator(self):
        # J = 0, h = 0: final sign distribution balanced over seeds
        m = IsingModel.from_terms(1)
        params = SbmParams(steps=200, dt=0.05, replicas=10_000, seed=123)
        r = solve_sbm(m, params)
        ups = sum(int(s.state[0] == 1) for s in r.samples)
        assert 0.45 <= ups / 10_000 <= 0.55

    def test_c0_auto_resolution(self):
        m = gen_random("complete", "uniform", 55, n=12)
        lam_max = float(np.linalg.eigvalsh(-m.coupling_matrix())[-1])
        assert resolve_c0(m) == pytest.approx(1.0 / lam_max, rel=1e-6)
        assert resolve_c0(IsingModel.from_terms(3, h=[1, 1, 1])) == 1.0
        assert resolve_c0(IsingModel.from_terms(600)) == 1.0  # Lanczos on a zero operator

    def test_symplectic_energy_drift_bounded(self):
        # c0 = 0, a(t) = a0 constant: separable Hamiltonian
        # (a0/2) p^2 + q^4/4 is conserved up to bounded O(dt) wobble
        a0, dt, steps = 1.0, 0.01, 10_000
        Q = np.array([[0.5]])
        P = np.array([[0.0]])

        def sep_energy(q, p):
            return 0.5 * a0 * p ** 2 + 0.25 * q ** 4

        e0 = float(sep_energy(Q, P)[0, 0])
        B = np.zeros((1, 1))
        g = np.zeros(1)
        drift_first = drift_last = 0.0
        for half in range(2):
            Q, P = integrate(B, g, Q, P, dt, np.full(steps // 2, a0), a0, 0.0,
                             q_cap=np.inf)
            drift = abs(float(sep_energy(Q, P)[0, 0]) - e0)
            if half == 0:
                drift_first = drift
            else:
                drift_last = drift
        assert drift_last < 0.05 * e0 + 1e-12
        assert drift_last < 10 * max(drift_first, 1e-6)  # bounded, not growing

    def test_divergence_guard_clips(self):
        m = IsingModel.from_terms(1, h=[100.0])
        r = solve_sbm(m, SbmParams(steps=500, dt=0.1, replicas=2, seed=0, c0=5.0))
        assert r.best.energy == -100.0  # clipped run still lands on a spin

    def test_deterministic(self):
        m = gen_random("complete", "gaussian", 31, n=10)
        a = solve_sbm(m, SbmParams(steps=300, dt=0.05, replicas=4, seed=9))
        b = solve_sbm(m, SbmParams(steps=300, dt=0.05, replicas=4, seed=9))
        assert all(np.array_equal(x.state, y.state) for x, y in zip(a.samples, b.samples))


    def test_memory_grows_with_replicas_times_n(self):
        # float32 blocks Q and P (drawn straight into), W, F, H, the keep
        # mask and the CSR product, with the default c0's Lanczos vectors on
        # the model's own operator; the driver signs Q into int8 and frees
        # the blocks before scoring: 30 B per replica-spin
        m = tile64()
        assert traced_peak(solve_sbm, m, SbmParams(steps=10, replicas=64, seed=1)) < 32 * 64 * m.n

    def test_csr_operator_golden(self):
        # Recorded while the operator was still the dense matrix.
        r = solve_sbm(tile32(), SbmParams(steps=150, dt=0.05, replicas=8, seed=2))
        assert digest(r) == "4e7b73c6ab52e148"
        assert [s.replica for s in r.samples] == [7, 6, 4, 5, 0, 2, 3, 1]
        assert r.energies().tolist() == [-932.0, -866.0, -848.0, -840.0,
                                         -810.0, -802.0, -756.0, -754.0]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SaParams(sweeps=0).validate()
        with pytest.raises(ValidationError):
            PaParams(momentum=1.0).validate()
        with pytest.raises(ValidationError):
            SbmParams(dt=-0.1).validate()

    @pytest.mark.parametrize("params", [
        SaParams(sweeps=2.5), SaParams(replicas=True), PaParams(steps=2.5),
        PaParams(replicas=np.float64(4.0)), SbmParams(steps="10"), SbmParams(replicas=True),
        BBParams(pool_limit=2.5), BBParams(leaf_size=2.5), BBParams(leaf_size=False),
        BBParams(leaf_size=MAX_LEAF_SIZE + 1)])
    def test_counts_must_be_integers(self, params):
        with pytest.raises(ValidationError, match="must be an integer|must be <="):
            params.validate()

    @pytest.mark.parametrize("params", [
        SaParams(T_init=-2.0, T_final=-1.0), SaParams(T_final=-1.0), SaParams(T_init=0.0),
        SaParams(T_init=float("nan"))])
    def test_temperatures_must_be_positive(self, params):
        with pytest.raises(ValidationError, match="T_(init|final) must be positive"):
            params.validate()

    @pytest.mark.parametrize("params", [
        SaParams(T_init="1"), SaParams(T_init=float("inf")), SaParams(T_final=True),
        PaParams(learning_rate=float("inf")), PaParams(lambda0="2"),
        SbmParams(dt=float("inf")), SbmParams(a0=np.float64("nan")), SbmParams(c0=True),
        SbmParams(q_cap="1"), SbmParams(init_noise=-float("inf")),
        BBParams(time_limit=float("inf")), BBParams(time_limit="60")])
    def test_real_parameters_must_be_positive_finite_numbers(self, params):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            params.validate()

    @pytest.mark.parametrize("momentum", ["0.5", True, float("nan"), float("inf")])
    def test_momentum_must_be_a_number_in_range(self, momentum):
        with pytest.raises(ValidationError, match="momentum must lie in"):
            PaParams(momentum=momentum).validate()

    def test_finite_reals_and_no_time_limit_accepted(self):
        SaParams(T_init=np.float64(2.0), T_final=1).validate()
        SbmParams(dt=np.float32(0.1), c0=0.5).validate()
        PaParams(momentum=0, lambda0=3).validate()
        BBParams(time_limit=None).validate()

    @pytest.mark.parametrize("params", [SaParams(sweeps=5, T_init=1.0, T_final=2.0),
                                        SaParams(sweeps=5, T_final=1e6)])
    def test_sa_refuses_rising_temperature(self, params):
        # checked after the defaults resolve: T_final 1e6 is above the
        # automatic T_init of 2 * field scale
        m = gen_random("complete", "uniform", 0, n=6)
        with pytest.raises(ValidationError, match="need T_init >= T_final"):
            solve_sa(m, params)

    def test_sa_accepts_equal_temperatures(self):
        m = gen_random("complete", "uniform", 0, n=6)
        solve_sa(m, SaParams(sweeps=5, replicas=2, T_init=0.5, T_final=0.5))

    def test_integer_counts_accepted(self):
        SaParams(sweeps=np.int64(3), replicas=1).validate()
        BBParams(leaf_size=MAX_LEAF_SIZE, pool_limit=np.int32(1)).validate()

    @pytest.mark.parametrize("solve, params", [(solve_pa, PaParams(steps=5, replicas=2)),
                                               (solve_sbm, SbmParams(steps=5, replicas=2))])
    def test_field_scale_beyond_float32_refused(self, solve, params):
        # PA and SBM step in float32, where this coupling would be inf
        m = IsingModel.from_terms(3, couplings=[(0, 1, 1e39), (1, 2, -1.0)])
        with pytest.raises(ValidationError, match="overflows float32"):
            solve(m, params)

    @pytest.mark.parametrize("params", [
        PaParams(lambda0=1e39), SbmParams(c0=1e39), PaParams(learning_rate=1e39),
        SbmParams(dt=1e39), SbmParams(a0=1e39), SbmParams(q_cap=1e39),
        SbmParams(init_noise=1e39), SbmParams(dt=1e20, a0=1e19)])
    def test_scale_beyond_float32_refused(self, params):
        # each is inf cast to float32, the precision PA and SBM step in
        with pytest.raises(ValidationError, match=r"^(lambda0|c0|learning_rate|dt|a0|q_cap"
                                                  r"|init_noise|dt \* a0) 1e\+39 overflows float32"):
            params.validate()

    def test_json_round_trip(self):
        p = PaParams(steps=123, learning_rate=0.07, seed=5)
        back = params_from_dict("pa", dataclasses.asdict(p))
        assert back == p

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            params_from_dict("sa", {"swups": 10})


class TestSampleSet:
    def test_energies_match_model_energy_up_to_summation_order(self):
        m = gen_random("complete", "gaussian", 11, n=11)
        states = np.where(np.random.default_rng(3).random((64, 11)) < 0.5, -1, 1)
        sset = make_sampleset(m, states, seed=0)
        for sample in sset.samples:
            assert np.array_equal(sample.state, states[sample.replica])
            assert sample.energy == pytest.approx(m.energy(sample.state), rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: gen_wishart(96, 96, 1).model,
        lambda: gen_random("complete", "gaussian", 1, n=500),
        lambda: gen_random("chimera", "gaussian", 16, rows=16, cols=16),
    ], ids=["wishart-96", "complete-500", "chimera-16"])
    @pytest.mark.parametrize("solve, params", [
        (solve_sa, SaParams(sweeps=5, replicas=24, seed=2)),
        (solve_pa, PaParams(steps=20, replicas=24, seed=2)),
        (solve_sbm, SbmParams(steps=20, replicas=24, seed=2)),
    ], ids=["sa", "pa", "sbm"])
    def test_sample_energies_equal_model_energy_bitwise(self, build, solve, params):
        m = build()
        for sample in solve(m, params).samples:
            assert sample.energy == m.energy(sample.state)


# Replica r draws only from its own stream and no kernel mixes replicas, so
# its final state and energy cannot depend on how many replicas run beside
# it: the property that lets a solve split its replica range into blocks.
INDEPENDENCE_MODELS = {  # two CSR operators and a dense one
    "tile-L32": tile32,
    "chimera-8x8-gaussian": lambda: gen_random("chimera", "gaussian", 9, rows=8, cols=8),
    "wishart-n96": lambda: gen_wishart(96, 96, 3).model,
}
INDEPENDENCE_SOLVES = {
    "sa": (solve_sa, SaParams(sweeps=10, seed=4)),
    "pa": (solve_pa, PaParams(steps=30, seed=4)),
    "sbm": (solve_sbm, SbmParams(steps=30, dt=0.1, seed=4)),
}


@functools.lru_cache(maxsize=None)
def independence_model(model_id: str):
    return INDEPENDENCE_MODELS[model_id]()


@functools.lru_cache(maxsize=None)
def independence_samples(model_id: str, solver: str, replicas: int) -> dict:
    """The samples of one solve, keyed by replica."""
    solve, params = INDEPENDENCE_SOLVES[solver]
    sset = solve(independence_model(model_id), dataclasses.replace(params, replicas=replicas))
    return {s.replica: s for s in sset.samples}


@pytest.mark.parametrize("replicas", [1, 2, 3, 17])
@pytest.mark.parametrize("solver", list(INDEPENDENCE_SOLVES))
@pytest.mark.parametrize("model_id", list(INDEPENDENCE_MODELS))
def test_replica_independent_of_replica_count(model_id, solver, replicas):
    full = independence_samples(model_id, solver, 64)
    part = independence_samples(model_id, solver, replicas)
    assert sorted(part) == list(range(replicas))
    for r, sample in part.items():
        assert sample.state.tobytes() == full[r].state.tobytes()
        assert sample.energy == full[r].energy
