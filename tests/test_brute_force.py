"""Tests for exhaustive search in binary order."""

import tracemalloc

import numpy as np
import pytest

from qubokit import IsingModel, SizeCapError, solve_brute_force
from qubokit.generators import gen_random

from oracles import binary_first_min_ising, exhaustive_min_ising, exhaustive_min_ising_fast
from oracles import all_spin_states
from qubokit.solvers.brute_force import LOW_BITS, _block_bounds, _low_table


class TestBruteForce:
    def test_antiferromagnetic_pair_first_found(self):
        m = IsingModel.from_terms(2, couplings=[(0, 1, 1.0)])
        state, energy = solve_brute_force(m)
        assert energy == -1.0
        assert np.array_equal(state, [1, -1])

    def test_zero_model(self):
        m = IsingModel.from_terms(5)
        _, energy = solve_brute_force(m)
        assert energy == 0.0

    def test_matches_naive_small(self):
        for seed in range(5):
            n = 6 + seed
            m = gen_random("complete", "gaussian", 60 + seed, n=n)
            bf_state, bf_energy = solve_brute_force(m)
            naive_state, naive_energy = exhaustive_min_ising(m)
            assert bf_energy == pytest.approx(naive_energy, abs=1e-12)
            assert m.energy(bf_state) == pytest.approx(bf_energy, abs=1e-12)

    def test_matches_independent_enumerator_n20(self):
        m = gen_random("complete", "uniform", 77, n=20)
        _, energy = solve_brute_force(m)
        assert energy == pytest.approx(exhaustive_min_ising_fast(m), abs=1e-9)

    def test_blocked_path_equals_single_block(self):
        # n=17 exercises the high/low block split against the naive oracle
        m = gen_random("complete", "gaussian", 88, n=17)
        _, energy = solve_brute_force(m)
        assert energy == pytest.approx(exhaustive_min_ising_fast(m), abs=1e-9)

    def test_offset_carried(self):
        m = IsingModel.from_terms(3, couplings=[(0, 1, -1.0)], offset=10.0)
        _, energy = solve_brute_force(m)
        assert energy == 9.0

    def test_cap_enforced(self):
        m = gen_random("complete", "uniform", 0, n=31)
        with pytest.raises(SizeCapError):
            solve_brute_force(m)
        # configurable cap
        m2 = gen_random("complete", "uniform", 0, n=12)
        with pytest.raises(SizeCapError):
            solve_brute_force(m2, cap=10)


def _int31(n, seed, with_biases=True):
    return gen_random("complete", "int_uniform", seed, n=n, a=-31, b=31,
                      with_biases=with_biases)


class TestGrayTieBreak:
    # n=5 and 12 are one block, 13 a two-block batch, 16 a batch of 16
    # blocks, 17 a partial batch of 32 and 20 four full batches of 64.
    @pytest.mark.parametrize("with_biases", [True, False], ids=["fields", "no-fields"])
    @pytest.mark.parametrize("n", [5, 12, 13, 16, 17, 20])
    def test_first_minimum_of_the_scan(self, n, with_biases):
        m = _int31(n, 500 + n, with_biases)
        state, energy = solve_brute_force(m)
        oracle_state, oracle_energy = binary_first_min_ising(m)
        assert np.array_equal(state, oracle_state)
        assert energy == oracle_energy

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("n", [13, 17])
    def test_real_valued_minimum_matches_enumeration(self, n, dist):
        m = gen_random("complete", dist, 700 + n, n=n)
        _, energy = solve_brute_force(m)
        assert energy == pytest.approx(exhaustive_min_ising_fast(m), rel=1e-12)

    def test_zero_field_golden_n22(self):
        # Both s and -s are optimal; the golden is the one first in binary order.
        m = _int31(22, 22, with_biases=False)
        state, energy = solve_brute_force(m)
        assert energy == -1376.0
        assert state.tolist() == [-1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1,
                                  1, -1, 1, -1, -1, 1, 1, -1, 1, -1]

    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_memory_bounded(self, n):
        m = _int31(n, n)
        tracemalloc.start()
        try:
            solve_brute_force(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _bounds(m):
    A = m.coupling_matrix()
    return _block_bounds(A, m.h, LOW_BITS, _low_table(A, LOW_BITS)[:, LOW_BITS])


def _ferromagnet(n):
    rows, cols = np.triu_indices(n, 1)
    return IsingModel.from_arrays(n, rows, cols, -np.ones(rows.size))


class TestBlockBound:
    @pytest.mark.parametrize("n", [16, 17, 18])
    @pytest.mark.parametrize("dist,a,b", [("int_uniform", -31, 31), ("int_uniform", -1, 1),
                                          ("gaussian", -1, 1)], ids=["int31", "int1", "gaussian"])
    def test_bound_below_every_block_minimum(self, dist, a, b, n):
        m = gen_random("complete", dist, 800 + n, n=n, a=a, b=b)
        lower, threshold = _bounds(m)
        n_high = n - LOW_BITS
        low = all_spin_states(LOW_BITS)
        block_min = np.empty(2 ** n_high)
        for block in range(2 ** n_high):
            high = np.array([2 * ((block >> t) & 1) - 1 for t in range(n_high)], dtype=np.int8)
            states = np.hstack([low, np.tile(high, (low.shape[0], 1))])
            block_min[block] = m.energies(states).min() - m.offset
        tol = 1e-9 if dist == "gaussian" else 0.0
        assert np.all(lower <= block_min + tol)
        # the threshold sits above an energy some state reaches
        assert threshold >= block_min.min()

    @pytest.mark.parametrize("n", [14, 20])
    def test_complete_ferromagnet_matches_scan(self, n):
        m = _ferromagnet(n)
        state, energy = solve_brute_force(m)
        oracle_state, oracle_energy = binary_first_min_ising(m)
        assert np.array_equal(state, oracle_state)
        assert energy == oracle_energy == -n * (n - 1) / 2

    @pytest.mark.parametrize("with_biases", [True, False], ids=["fields", "no-fields"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_int1_ties_match_scan(self, n, with_biases):
        m = gen_random("complete", "int_uniform", 850 + n, n=n, a=-1, b=1,
                       with_biases=with_biases)
        state, energy = solve_brute_force(m)
        oracle_state, oracle_energy = binary_first_min_ising(m)
        assert np.array_equal(state, oracle_state)
        assert energy == oracle_energy

    def test_zero_couplings_prune_nothing(self):
        m = IsingModel.from_terms(18, offset=2.5)
        lower, threshold = _bounds(m)
        assert np.all(lower <= threshold)
        state, energy = solve_brute_force(m)
        assert energy == 2.5
        assert np.array_equal(state, -np.ones(18))

    def test_gaussian_optimum_in_a_late_block(self):
        # The optimum lies in block 143 of 256, past the first half; the
        # golden is the state the scan over every block returns.
        m = gen_random("complete", "gaussian", 927, n=20)
        state, energy = solve_brute_force(m)
        assert state.tolist() == [-1, 1, -1, -1, -1, -1, 1, -1, -1, -1,
                                  1, -1, 1, 1, 1, 1, -1, -1, -1, 1]
        assert energy == pytest.approx(exhaustive_min_ising_fast(m), rel=1e-12)
