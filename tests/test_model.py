"""Tests for model types and energy evaluation."""


import numpy as np
import pytest
import scipy.sparse as sp

from qubokit import (
    HuboModel,
    IsingModel,
    QuboModel,
    ValidationError,
    as_bits,
    as_spins,
    sign_pm,
)
from qubokit.generators import apply_gauge, gen_3r3x, gen_mw3s, gen_random, gen_tile, gen_wishart
from qubokit.transforms import ising_to_qubo, reduce_cubic

from oracles import (
    all_bit_states,
    all_spin_states,
    colour_classes_loop,
    coo_csr,
    hubo_energy_naive,
    ising_energy_naive,
    qubo_energy_naive,
)
from peaks import traced_peak


class TestIsingEnergy:
    def test_single_field(self):
        m = IsingModel.from_terms(1, h=[1.0])
        assert m.energy([1]) == 1.0

    def test_ferromagnetic_pair(self):
        m = IsingModel.from_terms(2, couplings=[(0, 1, -1.0)])
        assert m.energy([1, 1]) == -1.0

    def test_dimension_mismatch(self):
        m = IsingModel.from_terms(2, couplings=[(0, 1, -1.0)])
        with pytest.raises(ValidationError):
            m.energy([1, 1, 1])

    def test_offset_included(self):
        m = IsingModel.from_terms(1, h=[0.0], offset=2.5)
        assert m.energy([-1]) == 2.5

    def test_minimum_matches_naive_enumeration(self):
        m = gen_random("complete", "gaussian", 11, n=10)
        states = all_spin_states(10)
        lib_min = m.energies(states).min()
        naive_min = min(ising_energy_naive(m, s) for s in states)
        assert lib_min == pytest.approx(naive_min, abs=1e-12)

    def test_batch_matches_scalar(self):
        m = gen_random("complete", "uniform", 3, n=8)
        states = all_spin_states(8)[:17]
        batch = m.energies(states)
        for s, e in zip(states, batch):
            assert m.energy(s) == pytest.approx(float(e), abs=1e-12)

    def test_batch_matches_scalar_on_sparse_operator(self):
        m = gen_tile(16, [0.0, 0.8, 0.0, 0.2], 4).model
        assert sp.issparse(m.coupling_operator())
        states = np.where(np.random.default_rng(4).random((9, m.n)) < 0.5, -1, 1)
        for s, e in zip(states, m.energies(states)):
            assert m.energy(s) == pytest.approx(float(e), rel=1e-12)

    def test_batch_memory_bounded_by_replicas_times_n(self):
        # Gathering both endpoints of every coupling would take two float64
        # (64, 44850) arrays, about 46 MB.
        m = gen_random("complete", "uniform", 8, n=300)
        states = np.where(np.random.default_rng(8).random((64, 300)) < 0.5, -1, 1)
        assert traced_peak(lambda: m.energies(states)) < 8e6

    def test_purity(self):
        m = gen_random("complete", "gaussian", 5, n=12)
        s = all_spin_states(12)[1234]
        assert m.energy(s) == m.energy(s)


def _tile(L):
    return gen_tile(L, [0.0, 0.8, 0.0, 0.2], L).model


def _reduced_3r3x(n):
    return reduce_cubic(gen_3r3x(n, n).model)[0]


class TestCouplingOperator:
    def test_sparse_lattice_gets_csr(self):
        m = _tile(32)  # 4-regular, n=1024: 0.39% of the entries are non-zero
        A = m.coupling_operator()
        assert sp.issparse(A)
        assert np.array_equal(A.toarray(), m.coupling_matrix())

    @pytest.mark.parametrize("build", [
        lambda: gen_wishart(96, 96, 1).model,
        lambda: _reduced_3r3x(48),  # n=96, 6.25% fill
        lambda: gen_random("complete", "uniform", 1, n=500),
    ], ids=["wishart-96", "3r3x-reduced-96", "complete-500"])
    def test_filled_models_get_dense(self, build):
        m = build()
        A = m.coupling_operator()
        assert isinstance(A, np.ndarray)
        assert A is m.coupling_matrix()


class TestColourClasses:
    @pytest.mark.parametrize("build", [
        lambda: _tile(8),
        lambda: _reduced_3r3x(24),
        lambda: gen_random("chimera", "gaussian", 2, rows=2, cols=3),
        lambda: gen_random("complete", "uniform", 2, n=9),
        lambda: IsingModel.from_terms(5, couplings=[(0, 4, 1.0), (2, 3, -1.0)]),
    ], ids=["tile-8", "3r3x-reduced", "chimera", "complete-9", "two-edges"])
    def test_greedy_independent_partition(self, build):
        m = build()
        A = m.coupling_matrix()
        classes = m.colour_classes()
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(m.n))
        colour = np.empty(m.n, dtype=int)
        for k, C in enumerate(classes):
            assert np.all(np.diff(C) > 0)
            assert not A[np.ix_(C, C)].any(), f"class {k} is not an independent set"
            colour[C] = k
        # Greedy in index order: spin i avoids exactly the colours of its
        # lower-indexed neighbours and takes the smallest colour left.
        for i in range(m.n):
            lower = np.flatnonzero(A[i, :i])
            assert set(range(colour[i])) <= set(colour[lower])

    @pytest.mark.parametrize("build", [
        lambda: _tile(32),
        lambda: _tile(256),
        lambda: gen_random("chimera", "gaussian", 4, rows=4, cols=4),
        lambda: _reduced_3r3x(48),
        lambda: gen_random("complete", "gaussian", 5, n=300),
        lambda: IsingModel.from_terms(7),
    ], ids=["tile-32", "tile-256", "chimera", "3r3x-reduced", "complete-300", "no-couplings"])
    def test_numpy_adjacency_matches_coo_csr(self, build):
        # the classes come from the pair columns sorted by column, the CSR
        # operator from the pairs stored both ways; both must be bitwise
        # what scipy's COO -> CSR and the colouring loop over it give
        m = build()
        oracle = coo_csr(m)
        csr = m._csr
        for name in ("indptr", "indices", "data"):
            got, want = getattr(csr, name), getattr(oracle, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert csr.has_canonical_format
        classes = m.colour_classes()
        expected = colour_classes_loop(m)
        assert len(classes) == len(expected)
        for C, want in zip(classes, expected):
            assert C.dtype == want.dtype and np.array_equal(C, want)

    def test_tile_lattice_is_two_coloured(self):
        assert len(_tile(8).colour_classes()) == 2

    def test_complete_graph_gives_singletons_in_index_order(self):
        classes = gen_random("complete", "gaussian", 3, n=12).colour_classes()
        assert [C.tolist() for C in classes] == [[i] for i in range(12)]

    def test_computed_once_per_model(self):
        m = _tile(8)
        assert m.colour_classes() is m.colour_classes()

    def test_memory_bounded_per_coupling(self):
        # the rows sorted by column take 16 B per coupling here; a CSR
        # layout of every pair stored both ways would take 80
        m = gen_random("complete", "gaussian", 6, n=1000)
        assert traced_peak(m.colour_classes) < 32 * m.num_couplings


class TestQuboEnergy:
    def test_zero_vector(self):
        q = QuboModel.from_terms(1, terms=[(0, 0, 1.0)])
        assert q.energy([0]) == 0.0

    def test_diagonal_is_linear(self):
        q = QuboModel.from_terms(1, terms=[(0, 0, 1.0)])
        assert q.energy([1]) == 1.0

    def test_full_enumeration_matches_oracle(self):
        rng = np.random.default_rng(7)
        n = 12
        terms = [(i, j, float(rng.normal())) for i in range(n) for j in range(i, n)
                 if rng.random() < 0.5]
        q = QuboModel.from_terms(n, terms=terms)
        bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
        lib_min = q.energies(bits).min()
        naive_min = min(qubo_energy_naive(q, x) for x in bits)
        assert lib_min == pytest.approx(naive_min, abs=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: ising_to_qubo(gen_random("complete", "gaussian", 9, n=40)),
        lambda: ising_to_qubo(gen_tile(16, [0.0, 0.8, 0.0, 0.2], 9).model),
    ], ids=["complete-40", "tile-16"])
    def test_batch_matches_naive(self, build):
        q = build()
        X = (np.random.default_rng(9).random((9, q.n)) < 0.5).astype(np.int8)
        for x, e in zip(X, q.energies(X)):
            assert float(e) == pytest.approx(qubo_energy_naive(q, x), rel=1e-12)

    def test_batch_memory_bounded_by_replicas_times_n(self):
        # Gathering both endpoints of every term would take two float64
        # (64, 45150) arrays, about 46 MB.
        q = ising_to_qubo(gen_random("complete", "uniform", 8, n=300))
        X = (np.random.default_rng(8).random((64, 300)) < 0.5).astype(np.int8)
        assert traced_peak(lambda: q.energies(X)) < 8e6

    def test_dimension_mismatch(self):
        q = QuboModel.from_terms(2, terms=[(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            q.energy([1])


class TestHuboEnergy:
    def test_all_up_product(self):
        h = HuboModel.from_terms(3, "spin", [((0, 1, 2), 1.0)])
        assert h.energy([1, 1, 1]) == 1.0

    def test_sign_flip(self):
        h = HuboModel.from_terms(3, "spin", [((0, 1, 2), 1.0)])
        assert h.energy([-1, 1, 1]) == -1.0

    def test_domain_mismatch(self):
        h = HuboModel.from_terms(3, "spin", [((0, 1, 2), 1.0)])
        with pytest.raises(ValidationError):
            h.energy([0, 1, 1])

    def test_random_cubic_enumeration_matches_oracle(self):
        rng = np.random.default_rng(3)
        n = 8
        terms = []
        for _ in range(25):
            order = int(rng.integers(1, 4))
            idx = tuple(sorted(rng.choice(n, size=order, replace=False)))
            terms.append((idx, float(rng.normal())))
        h = HuboModel.from_terms(n, "spin", terms)
        states = all_spin_states(n)
        lib_min = h.energies(states).min()
        naive_min = min(hubo_energy_naive(h, s) for s in states)
        assert lib_min == pytest.approx(naive_min, abs=1e-12)

    def test_constant_term(self):
        h = HuboModel.from_terms(2, "spin", [((), 4.0), ((0,), 1.0)])
        assert h.energy([-1, 1]) == 3.0

    @pytest.mark.parametrize("domain", ["spin", "binary"])
    def test_energies_match_naive_and_single_rows(self, domain):
        rng = np.random.default_rng(11)
        n = 9
        terms = [((), 0.75)]
        for _ in range(40):
            order = int(rng.integers(1, 5))
            terms.append((tuple(rng.choice(n, size=order, replace=False)), float(rng.normal())))
        h = HuboModel.from_terms(n, domain, terms)
        states = all_spin_states(n) if domain == "spin" else all_bit_states(n)
        E = h.energies(states)
        for s, e in zip(states[::7], E[::7]):
            assert e == pytest.approx(hubo_energy_naive(h, s), abs=1e-12)
            assert h.energy(s) == e  # the same bits alone as in the batch

    def test_replica_chunks_keep_the_bits(self, monkeypatch):
        import qubokit.model
        h = gen_mw3s(40, 2)
        q = ising_to_qubo(gen_random("complete", "gaussian", 2, n=40))
        states = np.where(np.random.default_rng(2).random((50, 40)) < 0.5, -1, 1)
        bits = ((states + 1) // 2).astype(np.int8)
        whole, qubo = h.energies(states), q.energies(bits)
        monkeypatch.setattr(qubokit.model, "TERM_CHUNK_ENTRIES", 7)
        assert h.energies(states).tobytes() == whole.tobytes()
        assert h.energies(states.astype(np.float64)).tobytes() == whole.tobytes()
        assert q.energies(bits).tobytes() == qubo.tobytes()
        assert q.energies(bits.astype(np.float64)).tobytes() == qubo.tobytes()

    def test_energies_memory_bounded_by_one_order(self):
        # A (replicas, terms, order) gather peaks at about 51 MB here; the
        # bound is twice one (replicas, cubic terms) float64 block, 10 MB.
        h = gen_mw3s(10 ** 4, 3)
        cubic = dict((idx.shape[1], c.size) for idx, c in h.blocks)[3]
        R = 64
        states = np.where(np.random.default_rng(3).random((R, h.n)) < 0.5, -1, 1).astype(np.int8)
        assert traced_peak(lambda: h.energies(states)) < 2 * 8 * R * cubic


def _chimera16():
    return gen_random("chimera", "gaussian", 16, rows=16, cols=16)


# (model, whether its coupling operator is CSR, None for a term product) for
# every model type, dense and CSR
EVALUATOR_MODELS = {
    "wishart-96": (lambda: gen_wishart(96, 96, 1).model, False),
    "complete-500": (lambda: gen_random("complete", "gaussian", 1, n=500), False),
    "chimera-16": (_chimera16, True),
    "qubo-wishart-96": (lambda: ising_to_qubo(gen_wishart(96, 96, 1).model), None),
    "qubo-chimera-16": (lambda: ising_to_qubo(_chimera16()), None),
    "mw3s-40": (lambda: gen_mw3s(40, 1), None),
}


class TestOneEvaluator:
    """A row has the same energy bits alone, in a batch of any size, and
    through ``energy``."""

    @pytest.mark.parametrize("name", list(EVALUATOR_MODELS))
    def test_energy_is_one_row_of_energies(self, name):
        build, sparse = EVALUATOR_MODELS[name]
        m = build()
        if sparse is not None:
            assert sp.issparse(m.coupling_operator()) == sparse
        binary = isinstance(m, QuboModel) or getattr(m, "domain", None) == "binary"
        rng = np.random.default_rng(17)
        for R in (1, 7, 64, 256):
            bits = (rng.random((R, m.n)) < 0.5).astype(np.int8)
            S = bits if binary else 2 * bits - 1
            batch = m.energies(S)
            for r in range(R):
                alone = m.energies(S[r:r + 1])[0]
                assert batch[r] == alone == m.energy(S[r]), (R, r)


class TestValidation:
    def test_duplicate_pairs_summed(self):
        m = IsingModel.from_terms(3, couplings=[(0, 1, 1.0), (1, 0, 2.0)])
        assert m.num_couplings == 1
        assert m.couplings() == [(0, 1, 3.0)]

    def test_diagonal_coupling_rejected(self):
        with pytest.raises(ValidationError):
            IsingModel.from_terms(2, couplings=[(1, 1, 1.0)])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            IsingModel.from_terms(2, couplings=[(0, 2, 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            IsingModel.from_terms(2, couplings=[(0, 1, np.inf)])
        with pytest.raises(ValidationError):
            IsingModel.from_terms(1, h=[np.nan])

    def test_hubo_duplicate_index(self):
        with pytest.raises(ValidationError):
            HuboModel.from_terms(3, "spin", [((0, 0, 1), 1.0)])

    def test_spin_vector_validation(self):
        with pytest.raises(ValidationError):
            as_spins([1, 0, -1])
        with pytest.raises(ValidationError):
            as_bits([0, 2])

    def test_models_immutable(self):
        m = IsingModel.from_terms(2, h=[1.0, 0.0], couplings=[(0, 1, 1.0)])
        with pytest.raises(ValueError):
            m.h[0] = 5.0


class TestGaugeCovariance:
    def test_energy_invariant_under_gauge(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            m = gen_random("complete", "gaussian", 30 + trial, n=12)
            s = rng.choice(np.array([-1, 1], dtype=np.int8), size=12)
            g = rng.choice(np.array([-1, 1], dtype=np.int8), size=12)
            m2, s2, _ = apply_gauge(m, s, g)
            assert m2.energy(s2) == pytest.approx(m.energy(s), abs=1e-12)


def test_sign_zero_is_plus_one():
    assert np.array_equal(sign_pm(np.array([0.0, -0.0, 1.5, -2.0])),
                          np.array([1, 1, 1, -1], dtype=np.int8))
