"""Tests for bound functions and the branch & bound solver."""

import numpy as np
import pytest

from qubokit import (
    BBParams,
    IsingModel,
    ValidationError,
    bound_base,
    bound_spd,
    solve_bb,
    solve_brute_force,
)
from qubokit.generators import gen_random
from qubokit.solvers import branch_bound
from qubokit.solvers.branch_bound import _descend, _select

from oracles import completion_min, descend_loop, ising_energy_naive


def with_fields(m, scale, seed):
    """``m`` with its fields replaced by ``scale`` times standard normals."""
    h = scale * np.random.default_rng(seed).normal(size=m.n)
    return IsingModel.from_arrays(m.n, m.rows, m.cols, m.values, h=h, offset=0.5)


class TestBoundBase:
    def test_empty_prefix_is_zero(self):
        m = gen_random("complete", "gaussian", 1, n=6)
        assert bound_base(m, []) == 0.0

    def test_full_prefix_is_total_energy(self):
        m = gen_random("complete", "gaussian", 2, n=6)
        s = np.array([1, -1, 1, 1, -1, -1], dtype=np.int8)
        assert bound_base(m, s) == pytest.approx(m.energy(s), abs=1e-12)

    def test_half_prefix_matches_induced_subgraph(self):
        m = gen_random("complete", "gaussian", 3, n=10)
        prefix = np.array([1, -1, -1, 1, 1], dtype=np.int8)
        sub = IsingModel.from_terms(
            5, h=m.h[:5],
            couplings=[(i, j, v) for i, j, v in m.couplings() if i < 5 and j < 5])
        assert bound_base(m, prefix) == pytest.approx(
            ising_energy_naive(sub, prefix), abs=1e-12)


class TestBoundSpd:
    def test_single_free_spin_admissible(self):
        m = gen_random("complete", "gaussian", 4, n=6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            prefix = rng.choice([-1, 1], size=5)
            b = bound_spd(m, prefix, epsilon=0.5, admissible=True)
            # closed form: best completion is prefix energy - |h~| + cross
            true = completion_min(m, prefix)
            assert b <= true + 1e-9

    def test_epsilon_branch_for_psd_remainder(self):
        # a single free spin has remaining matrix [[0]]: eigmin = 0, d = eps
        m = IsingModel.from_terms(2, h=[0.0, 3.0], couplings=[(0, 1, 1.0)])
        eps = 0.25
        # relaxed minimum is -h~^2 / (2 d) with d = eps, plus prefix
        h_eff = 3.0 + 1.0
        expected = 0.0 + (-h_eff ** 2 / (2 * eps))
        assert bound_spd(m, [1], epsilon=eps) == pytest.approx(expected, rel=1e-9)

    def test_admissible_never_exceeds_completion_min(self):
        m = gen_random("complete", "uniform", 999, n=18)
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 17))
            prefix = rng.choice([-1, 1], size=k)
            b = bound_spd(m, prefix, epsilon=1.0, admissible=True)
            assert b <= completion_min(m, prefix) + 1e-9

    def test_interlaced_d_still_admissible(self):
        from qubokit.solvers import eig_extreme
        m = gen_random("complete", "uniform", 51, n=12)
        d_root = max(0.0, -eig_extreme(m.coupling_matrix(), "min")) + 1.0
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(1, 11))
            prefix = rng.choice([-1, 1], size=k)
            b = bound_spd(m, prefix, epsilon=1.0, admissible=True, d=d_root)
            assert b <= completion_min(m, prefix) + 1e-9

    def test_empty_remaining_rejected(self):
        m = gen_random("complete", "gaussian", 6, n=4)
        with pytest.raises(ValidationError):
            bound_spd(m, [1, 1, 1, 1], 1.0)


class TestSolveBB:
    def test_trivial_single_variable(self):
        m = IsingModel.from_terms(1, h=[0.0])
        res = solve_bb(m, BBParams())
        assert res.energy == 0.0
        assert res.optimal

    def test_exact_on_random_instances(self):
        for trial in range(8):
            n = 14 + trial
            m = gen_random("complete", "uniform", 400 + trial, n=n)
            _, gs = solve_brute_force(m)
            res = solve_bb(m, BBParams(bound_kind="spd_admissible"))
            assert res.optimal
            assert res.energy == pytest.approx(gs, abs=1e-9)
            assert m.energy(res.state) == pytest.approx(res.energy, abs=1e-9)

    def test_base_mode_can_be_suboptimal_but_runs(self):
        m = gen_random("complete", "uniform", 888, n=30)
        res = solve_bb(m, BBParams(bound_kind="base", pool_limit=64))
        assert not res.optimal
        assert np.isfinite(res.energy)

    def test_eviction_clears_optimal_flag(self):
        m = gen_random("complete", "uniform", 21, n=18)
        res = solve_bb(m, BBParams(bound_kind="spd_admissible", pool_limit=4,
                                   leaf_size=2))
        assert res.evictions > 0
        assert not res.optimal

    def test_time_limit_returns_incumbent(self):
        # n=80 is far from a proof after 3 s, so 0.3 s cuts it on any host
        m = gen_random("complete", "uniform", 22, n=80)
        res = solve_bb(m, BBParams(bound_kind="spd_admissible", time_limit=0.3))
        assert res.timed_out
        assert not res.optimal
        assert np.isfinite(res.energy)
        assert res.lower_bound <= res.energy

    def test_timeout_at_every_chunk_certifies_lower_bound(self, monkeypatch):
        # one node per chunk, and a clock that passes the deadline after
        # ``ticks`` reads: the search stops before each chunk in turn, also
        # mid-level with some children already made
        class Clock:
            def __init__(self, ticks):
                self.reads, self.ticks = 0, ticks

            def perf_counter(self):
                self.reads += 1
                return 0.0 if self.reads <= self.ticks else 1e9

        # a model where some cut leaves the optimum below a child already
        # made and the incumbent, and another below the next node to expand
        m = with_fields(gen_random("complete", "gaussian", 29, n=18), 3.0, 29)
        _, gs = solve_brute_force(m)
        monkeypatch.setattr(branch_bound, "CHUNK_BYTES", 1)
        full = solve_bb(m, BBParams(leaf_size=3))
        assert full.optimal and full.energy == pytest.approx(gs, abs=1e-9)
        for ticks in range(1, full.expansions + 1):
            monkeypatch.setattr(branch_bound, "time", Clock(ticks))
            res = solve_bb(m, BBParams(leaf_size=3, time_limit=1.0))
            assert res.timed_out and not res.optimal
            assert res.expansions == ticks - 1
            assert res.lower_bound <= gs + 1e-9
            assert res.energy >= gs - 1e-9

    def test_deterministic(self):
        m = gen_random("complete", "uniform", 23, n=16)
        for params in (BBParams(bound_kind="spd_admissible"),
                       BBParams(bound_kind="spd_admissible", pool_limit=32, leaf_size=4),
                       BBParams(bound_kind="spd", pool_limit=32, leaf_size=4),
                       BBParams(bound_kind="base", pool_limit=32, leaf_size=4)):
            a, b = solve_bb(m, params), solve_bb(m, params)
            assert a.energy == b.energy
            assert np.array_equal(a.state, b.state)
            assert (a.expansions, a.evictions, a.prunes) == (b.expansions, b.evictions, b.prunes)
            assert a.lower_bound == b.lower_bound

    # n = 1 and n <= leaf_size: the root is a leaf; leaf_size + 1: one
    # internal level; larger n: several batches of mixed depths
    @pytest.mark.parametrize("n, leaf_size", [(1, 12), (7, 12), (12, 12), (13, 12),
                                              (17, 4), (22, 6)])
    def test_equals_brute_force_with_fields(self, n, leaf_size):
        for seed in range(3):
            m = with_fields(gen_random("complete", "gaussian", 70 + seed, n=n), 3.0, seed)
            _, gs = solve_brute_force(m)
            res = solve_bb(m, BBParams(leaf_size=leaf_size))
            assert res.optimal
            assert res.energy == pytest.approx(gs, abs=1e-9)
            assert res.lower_bound == res.energy

    def test_pool_smaller_than_batch_certifies_lower_bound(self):
        pool = 4
        # smaller than one chunk at every depth of n=18, where a node's
        # children hold 2n candidate spins
        assert pool < branch_bound.CHUNK_BYTES // (8 * 2 * 18)
        for seed in range(4):
            m = with_fields(gen_random("complete", "uniform", 80 + seed, n=18), 1.0, seed)
            _, gs = solve_brute_force(m)
            res = solve_bb(m, BBParams(pool_limit=pool, leaf_size=3))
            assert res.evictions > 0
            assert not res.optimal
            assert res.lower_bound <= gs + 1e-9
            assert res.energy >= gs - 1e-9

    # the exact-proof benchmark's instances: the proof's size is pinned
    @pytest.mark.parametrize("n, seed, expansions, prunes", [(24, 100, 190, 141),
                                                             (24, 101, 117, 94),
                                                             (26, 102, 347, 272)])
    def test_exact_proof_counts(self, n, seed, expansions, prunes):
        m = gen_random("complete", "int_uniform", seed, n=n, a=-31, b=31)
        res = solve_bb(m, BBParams(leaf_size=14))
        assert res.optimal
        assert (res.expansions, res.prunes) == (expansions, prunes)
        assert res.energy == solve_brute_force(m)[1]

    def test_prunes_counted_only_by_the_admissible_bound(self):
        m = gen_random("complete", "int_uniform", 25, n=20, a=-31, b=31)
        proved = solve_bb(m, BBParams(leaf_size=6))
        assert proved.optimal and proved.prunes > 0
        assert solve_bb(m, BBParams(bound_kind="spd", leaf_size=6)).prunes == 0

    def test_spd_heuristic_mode_finds_good_states(self):
        m = gen_random("complete", "uniform", 24, n=16)
        _, gs = solve_brute_force(m)
        res = solve_bb(m, BBParams(bound_kind="spd", pool_limit=256))
        assert res.energy <= gs + abs(gs) * 0.1


class TestSelect:
    @pytest.mark.parametrize("admissible", [False, True])
    @pytest.mark.parametrize("pool_limit", [1, 3, 7, 40])
    def test_matches_sorted_list(self, admissible, pool_limit):
        rng = np.random.default_rng(pool_limit)
        for _ in range(20):
            # few distinct values, so ties are common
            bounds = rng.integers(-5, 5, size=int(rng.integers(1, 30))).astype(float)
            bounds[rng.random(bounds.size) < 0.1] = -np.inf
            incumbent = float(rng.integers(-5, 6))
            order = sorted(range(bounds.size), key=lambda i: bounds[i])  # stable
            live = [i for i in order if not admissible or bounds[i] < incumbent]
            keep, pruned, evicted, least = _select(bounds, incumbent, pool_limit, admissible)
            assert keep.tolist() == live[:pool_limit]
            assert pruned == bounds.size - len(live)
            assert evicted == max(0, len(live) - pool_limit)
            assert least == min((bounds[i] for i in live[pool_limit:]), default=np.inf)


class TestPolish:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_loop_on_integer_model(self, seed):
        m = gen_random("complete", "int_uniform", 90 + seed, n=24, a=-31, b=31)
        A = m.coupling_matrix()
        X = np.where(np.random.default_rng(seed).random((m.n, 40)) < 0.5, -1.0, 1.0)
        E = m.energies(X.T)
        want_X, want_E = X.copy(), E.copy()
        for j in range(X.shape[1]):
            want_E[j] = descend_loop(A, m.h, want_X[:, j], E[j])
        _descend(A, m.h, X, E)
        assert np.array_equal(X, want_X)
        assert np.array_equal(E, want_E)

    def test_reaches_one_opt_minimum_on_float_model(self):
        m = with_fields(gen_random("complete", "gaussian", 95, n=30), 1.0, 5)
        A = m.coupling_matrix()
        X = np.where(np.random.default_rng(5).random((m.n, 40)) < 0.5, -1.0, 1.0)
        E = m.energies(X.T)
        _descend(A, m.h, X, E)
        for j in range(X.shape[1]):
            s = X[:, j]
            assert E[j] == pytest.approx(m.energy(s.astype(np.int8)), abs=1e-9)
            assert np.all(-2.0 * s * (A @ s + m.h) >= -1e-9)

    def test_expansion_polishes_alternate_children(self):
        # Expansions polish the rounded +1 child of every other parent and the
        # -1 child of the rest, with the parity running on over expansions
        # ((expansions + 1 + i) % 2).  Which child is polished decides the
        # incumbents a level is pruned against: the other parity gives
        # 286/132 here.
        m = gen_random("complete", "gaussian", 701, n=30)
        res = solve_bb(m, BBParams(leaf_size=10, pool_limit=16))
        assert (res.expansions, res.prunes) == (285, 131)
