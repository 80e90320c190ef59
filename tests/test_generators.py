"""Tests for instance generators and their certificates."""

import itertools

import numpy as np
import pytest

from qubokit import ValidationError
from qubokit.generators import (
    TILE_COUPLING_SETS,
    PlantedInstance,
    apply_gauge,
    gauge_randomize,
    gen_3r3x,
    gen_chain3,
    gen_mw3s,
    gen_random,
    gen_tile,
    gen_wishart,
    generate,
    rng_stream,
)
from qubokit.solvers import solve_brute_force
from qubokit.transforms import reduce_cubic

from oracles import (all_spin_states, exhaustive_min_hubo, mw3s_loop, rng_stream_jumped,
                     tile_loop)


class TestChain3:
    def test_term_counts(self):
        h = gen_chain3(3, seed=0)
        orders = [len(t) for t, _ in h.terms()]
        assert orders.count(1) == 3
        assert orders.count(2) == 2
        assert orders.count(3) == 1

    def test_determinism(self):
        a = gen_chain3(12, seed=9)
        b = gen_chain3(12, seed=9)
        assert a.terms() == b.terms()

    def test_minimum_survives_reduction_round_trip(self):
        h = gen_chain3(10, seed=4)
        reduced, rmap = reduce_cubic(h)
        direct_min = exhaustive_min_hubo(h)
        S = all_spin_states(reduced.n)
        energies = reduced.energies(S)
        assert float(energies.min()) == pytest.approx(direct_min, abs=1e-9)
        lifted = rmap.lift(S[int(np.argmin(energies))])
        assert h.energy(lifted) == pytest.approx(direct_min, abs=1e-9)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            gen_chain3(2, seed=0)


class TestMw3s:
    def test_closed_form_single_clause(self):
        # w0 = 1, c = 0 everywhere: H = (1/8)(1+s0)(1+s1)(1+s2)
        h = gen_mw3s(3, seed=0)
        gen = rng_stream(0)
        omega = gen.random(1)[0]
        cbits = gen.integers(0, 2, size=3)
        signs = np.where(cbits == 0, 1.0, -1.0)
        for s in all_spin_states(3):
            expected = omega / 8 * np.prod(1 + signs * s)
            assert h.energy(s) == pytest.approx(float(expected), abs=1e-12)

    def test_all_positive_literals_endpoints(self):
        # directly build the c=0 clause to pin the closed form
        from qubokit.model import HuboModel
        terms = {}
        for r in range(4):
            for sub in itertools.combinations((0, 1, 2), r):
                terms[sub] = terms.get(sub, 0.0) + 1.0 / 8.0
        h = HuboModel.from_terms(3, "spin", terms.items(), max_order=3)
        assert h.energy([-1, -1, -1]) == pytest.approx(0.0)
        assert h.energy([1, 1, 1]) == pytest.approx(1.0)

    def test_expansion_term_count(self):
        h = gen_mw3s(10, seed=2)
        # 8 clauses x 8 monomials, with overlaps merging: at most 8 per clause
        assert h.num_terms <= 8 * 8
        assert max(len(t) for t, _ in h.terms()) == 3

    def test_expanded_matches_product_form(self):
        n = 9
        h = gen_mw3s(n, seed=7)
        omega = rng_stream(7).random(n - 2)
        gen = rng_stream(7)
        _ = gen.random(n - 2)
        cbits = gen.integers(0, 2, size=n)
        signs = np.where(cbits == 0, 1.0, -1.0)
        S = all_spin_states(n).astype(np.float64)
        product = np.zeros(S.shape[0])
        for i in range(n - 2):
            clause = np.ones(S.shape[0])
            for v in (i, i + 1, i + 2):
                clause *= 1 + signs[v] * S[:, v]
            product += omega[i] / 8 * clause
        expanded = h.energies(S)
        assert np.allclose(expanded, product, atol=1e-9)
        assert float(expanded.min()) == pytest.approx(float(product.min()), abs=1e-9)
        assert float(expanded.max()) == pytest.approx(float(product.max()), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 40, 200])
    def test_terms_match_dict_expansion_bitwise(self, n):
        for seed in range(10):
            h = gen_mw3s(n, seed)
            want = mw3s_loop(n, seed)
            assert [k for k, _ in h.terms()] == [k for k, _ in want]
            assert [c.hex() for _, c in h.terms()] == [c.hex() for _, c in want]
            assert h.max_order == 3


class TestR3X3:
    def test_planted_energy_is_minus_m(self):
        pi = gen_3r3x(9, seed=3)
        assert pi.planted_energy == -9.0
        assert pi.model.energy(pi.planted_state) == pytest.approx(-9.0)

    def test_regularity(self):
        pi = gen_3r3x(12, seed=8)
        counts = np.zeros(12, dtype=int)
        for t, _ in pi.model.terms():
            assert len(t) == 3
            for v in t:
                counts[v] += 1
        assert np.all(counts == 3)
        assert pi.model.num_terms == 12

    def test_global_minimum_by_enumeration(self):
        pi = gen_3r3x(6, seed=1)
        assert exhaustive_min_hubo(pi.model) == pytest.approx(-6.0)

    def test_determinism(self):
        a = gen_3r3x(10, seed=5)
        b = gen_3r3x(10, seed=5)
        assert a.model.terms() == b.model.terms()
        assert np.array_equal(a.planted_state, b.planted_state)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            gen_3r3x(5, seed=0)


class TestTile:
    def test_planted_is_unique_ground_state_all_c1(self):
        pi = gen_tile(4, (1.0, 0.0, 0.0, 0.0), seed=2)
        state, energy = solve_brute_force(pi.model)
        assert energy == pytest.approx(pi.planted_energy)
        # C1-only instances have exactly the +-planted pair as ground states
        S = all_spin_states(16)
        energies = pi.model.energies(S)
        ground = S[np.isclose(energies, energies.min())]
        assert len(ground) == 2
        assert any(np.array_equal(g, pi.planted_state) for g in ground)

    def test_tile_type_local_degeneracy(self):
        # cell Hamiltonian -sum J s s: type i has 2i minimizers of 16,
        # i per global-flip sector, ferromagnetic included
        states = np.array(list(itertools.product((-1, 1), repeat=4)), dtype=float)
        cyc = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for t, cset in TILE_COUPLING_SETS.items():
            energies = -sum(j * states[:, a] * states[:, b]
                            for (a, b), j in zip(cyc, cset))
            emin = energies.min()
            assert int(np.sum(np.isclose(energies, emin))) == 2 * t
            assert np.isclose(energies[-1], emin)  # all-ones state is last
            assert emin == -sum(cset)  # gen_tile's planted energy per tile

    @pytest.mark.parametrize("L", [4, 6, 16, 32])
    def test_matches_tile_loop(self, L):
        # the array draws decode the per-tile choice/integers stream bit for bit
        for p in [(0.2, 0.3, 0.3, 0.2), (0, 0.8, 0, 0.2), (1, 0, 0, 0), (0, 0, 0, 1)]:
            for seed in range(8):
                pi = gen_tile(L, p, seed)
                m = pi.model
                got = (m.rows, m.cols, m.values, m.h, m.offset,
                       pi.planted_state, pi.planted_energy)
                for a, b in zip(got, tile_loop(L, p, seed)):
                    a, b = np.asarray(a), np.asarray(b)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (L, p, seed)

    def test_edge_partition(self):
        L = 6
        pi = gen_tile(L, (0.0, 0.5, 0.0, 0.5), seed=4)
        # every lattice edge appears exactly once: periodic square lattice
        # has 2 L^2 edges and every coupling magnitude is nonzero
        assert pi.model.num_couplings == 2 * L * L

    def test_gauge_concealed_state_attains_planted_energy(self):
        pi = gen_tile(4, (0.0, 0.8, 0.0, 0.2), seed=6)
        assert pi.model.energy(pi.planted_state) == pytest.approx(pi.planted_energy)
        assert not np.all(pi.planted_state == 1)  # concealment happened

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            gen_tile(5, (0, 1, 0, 0), seed=0)
        with pytest.raises(ValidationError):
            gen_tile(4, (0.5, 0.2, 0, 0), seed=0)


class TestWishart:
    def test_orthogonality_and_trace_identity(self):
        # rebuild W the way the generator does and check both identities
        N, M, seed = 32, 16, 11
        rng = rng_stream(seed)
        t = np.ones(N)
        Z = rng.standard_normal((N, M))
        W = np.sqrt(N / (N - 1.0)) * (Z - np.outer(t, t @ Z) / N)
        col_norms = np.linalg.norm(W, axis=0)
        assert np.all(np.abs(W.T @ t) <= 1e-10 * col_norms)

        pi = gen_wishart(N, M, seed)
        assert pi.model.energy(pi.planted_state) == pytest.approx(
            pi.planted_energy, rel=1e-9)

    def test_global_minimum_small(self):
        pi = gen_wishart(12, 12, seed=3)
        _, energy = solve_brute_force(pi.model)
        assert energy == pytest.approx(pi.planted_energy, rel=1e-9)

    def test_alpha_recorded(self):
        pi = gen_wishart(10, 5, seed=1)
        assert pi.hardness["alpha"] == 0.5

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            gen_wishart(2, 2, seed=0)
        with pytest.raises(ValidationError):
            gen_wishart(8, 0, seed=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "1"])
    def test_alpha_must_be_finite(self, alpha):
        # nan and inf were numpy's ValueError and OverflowError from round()
        with pytest.raises(ValidationError, match="alpha"):
            generate("wishart", 1, n=8, alpha=alpha)


class TestRandom:
    def test_complete_counts(self):
        m = gen_random("complete", "uniform", 0, n=5)
        assert m.num_couplings == 10
        assert np.count_nonzero(m.h) == 5

    def test_chimera_sizes(self):
        m = gen_random("chimera", "uniform", 0, rows=2, cols=8)
        assert m.n == 128
        m = gen_random("chimera", "uniform", 0, rows=1, cols=1)
        assert m.n == 8
        assert m.num_couplings == 16

    def test_int_uniform_bounds(self):
        m = gen_random("complete", "int_uniform", 5, n=20, a=-31, b=31)
        vals = m.values
        assert np.all(vals == np.round(vals))
        assert np.all((vals >= -31) & (vals <= 31))

    @pytest.mark.parametrize("dist, a, b", [
        ("int_uniform", 3, 1),                # numpy's "low > high" ValueError
        ("int_uniform", 0.5, 0.7),            # truncated to [0, 0]: an all-zero model
        ("int_uniform", -1e300, 1e300),       # bounds beyond int64
        ("uniform", 1.0, -1.0),
        ("uniform", float("nan"), 1.0),
        ("uniform", -1e308, 1e308),           # numpy's "range exceeds valid bounds"
    ])
    def test_bad_bounds_rejected(self, dist, a, b):
        with pytest.raises(ValidationError, match=dist):
            gen_random("complete", dist, 1, n=4, a=a, b=b)

    def test_int_uniform_draws_the_integers_inside_the_bounds(self):
        m = gen_random("complete", "int_uniform", 5, n=30, a=0.5, b=2.5)
        assert set(np.concatenate([m.values, m.h]).tolist()) == {1.0, 2.0}

    def test_edge_list(self):
        m = gen_random("edge_list", "gaussian", 1, edges=[(0, 1), (1, 2)])
        assert m.n == 3
        assert m.num_couplings == 2

    def test_edge_array_builds_the_list_model(self):
        listed = gen_random("edge_list", "gaussian", 1, edges=[[0, 1], [1, 2]])
        arrayed = gen_random("edge_list", "gaussian", 1, edges=np.array([[0, 1], [1, 2]]))
        assert arrayed.n == listed.n
        for name in ("h", "rows", "cols", "values"):
            assert np.array_equal(getattr(arrayed, name), getattr(listed, name))

    @pytest.mark.parametrize("edges", [[], np.zeros((0, 2), dtype=np.int64), None])
    def test_empty_edge_list_rejected(self, edges):
        with pytest.raises(ValidationError):
            gen_random("edge_list", "gaussian", 1, edges=edges)

    def test_unknown_topology(self):
        with pytest.raises(ValidationError):
            gen_random("pegasus", "uniform", 0, n=4)


class TestGauge:
    def test_identity_gauge(self):
        m = gen_random("complete", "gaussian", 2, n=6)
        s = np.ones(6, dtype=np.int8)
        m2, s2, g = apply_gauge(m, s, np.ones(6, dtype=np.int8))
        assert np.array_equal(s2, s)
        assert m2.couplings() == m.couplings()

    def test_energy_preserved(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            m = gen_random("complete", "gaussian", 40 + trial, n=10)
            s = rng.choice(np.array([-1, 1], dtype=np.int8), size=10)
            m2, s2, g = gauge_randomize(m, s, seed=trial)
            assert abs(m2.energy(s2) - m.energy(s)) <= 1e-12

    def test_involution(self):
        m = gen_random("complete", "gaussian", 7, n=8)
        s = np.ones(8, dtype=np.int8)
        g = rng_stream(99).choice(np.array([-1, 1], dtype=np.int8), size=8)
        m2, s2, _ = apply_gauge(m, s, g)
        m3, s3, _ = apply_gauge(m2, s2, g)
        assert np.array_equal(s3, s)
        assert m3.couplings() == m.couplings()
        assert np.array_equal(m3.h, m.h)


class TestPlantedInstanceValidation:
    def test_wrong_certificate_rejected(self):
        m = gen_random("complete", "uniform", 1, n=5)
        s = np.ones(5, dtype=np.int8)
        with pytest.raises(ValidationError):
            PlantedInstance(model=m, planted_energy=m.energy(s) + 1.0,
                            planted_state=s, family="random")

    def test_ising_check_reads_the_arrays(self):
        # a sparse model's certificate is checked without its CSR operator
        pi = gen_tile(16, (0, 0.8, 0, 0.2), seed=5)
        assert "_csr" not in vars(pi.model)
        assert pi.planted_energy == pi.model.energy(pi.planted_state)
        with pytest.raises(ValidationError):
            PlantedInstance(model=pi.model, planted_energy=pi.planted_energy + 1.0,
                            planted_state=pi.planted_state, family="tile")

    def test_certificate_soundness_exhaustive(self):
        # every exact-certificate family: planted energy is the global min
        for pi, reduce_first in [(gen_3r3x(8, seed=2), True),
                                 (gen_tile(4, (0, 0.2, 0, 0.8), seed=3), False),
                                 (gen_wishart(10, 2, seed=4), False)]:
            if reduce_first:
                assert exhaustive_min_hubo(pi.model) == pytest.approx(pi.planted_energy)
            else:
                _, e = solve_brute_force(pi.model)
                assert e == pytest.approx(pi.planted_energy, rel=1e-9)


def test_streams_are_independent():
    a = rng_stream(42, 0).random(5)
    b = rng_stream(42, 1).random(5)
    assert not np.allclose(a, b)
    assert np.allclose(rng_stream(42, 1).random(5), b)


@pytest.mark.parametrize("seed", [0, 7, 100, 2**40])
@pytest.mark.parametrize("index", [0, 1, 5, 255, 1023])
def test_stream_equals_jumped_base_stream(seed, index):
    got, want = rng_stream(seed, index), rng_stream_jumped(seed, index)
    assert got.random(64).tobytes() == want.random(64).tobytes()
    assert got.integers(0, 2, size=256).tobytes() == want.integers(0, 2, size=256).tobytes()
    assert got.random((3, 5)).tobytes() == want.random((3, 5)).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, "1", None])
def test_stream_seed_must_be_a_64_bit_integer(seed):
    with pytest.raises(ValidationError, match="seed must be an integer in"):
        rng_stream(seed)


def test_stream_seed_accepts_every_64_bit_integer():
    top = rng_stream(2**64 - 1).random(4)
    assert rng_stream(np.uint64(2**64 - 1)).random(4).tobytes() == top.tobytes()
    assert rng_stream(np.int64(3)).random(4).tobytes() == rng_stream(3).random(4).tobytes()
