"""Tests for QUBO<->Ising conversion, spin/binary maps, and cubic reduction."""

import itertools

import numpy as np
import pytest

from qubokit import (
    HuboModel,
    IsingModel,
    QuboModel,
    UnsupportedOrderError,
    ValidationError,
    hubo_to_spin_domain,
    ising_to_qubo,
    qubo_to_ising,
    reduce_cubic,
)
from qubokit.model import ReductionMap, bits_to_spins, spins_to_bits

from oracles import all_bit_states, all_spin_states, exhaustive_min_hubo


def random_qubo(n, seed, density=0.6):
    rng = np.random.default_rng(seed)
    terms = [(i, j, float(rng.normal())) for i in range(n) for j in range(i, n)
             if rng.random() < density]
    return QuboModel.from_terms(n, terms=terms, offset=float(rng.normal()))


def random_ising(n, seed, density=0.6):
    rng = np.random.default_rng(seed)
    couplings = [(i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
    return IsingModel.from_terms(n, h=rng.normal(size=n), couplings=couplings,
                                 offset=float(rng.normal()))


class TestQuboToIsing:
    def test_single_variable_expansion(self):
        q = QuboModel.from_terms(1, terms=[(0, 0, 1.0)])
        m = qubo_to_ising(q)
        assert m.h[0] == pytest.approx(0.5)
        assert m.offset == pytest.approx(0.5)
        assert m.energy([-1]) == pytest.approx(0.0)   # x=0
        assert m.energy([1]) == pytest.approx(1.0)    # x=1

    def test_zero_map(self):
        q = QuboModel.from_terms(3)
        m = qubo_to_ising(q)
        assert m.num_couplings == 0
        assert np.all(m.h == 0)
        assert m.offset == 0.0

    def test_all_states_agree(self):
        q = random_qubo(14, seed=5)
        m = qubo_to_ising(q)
        X = all_bit_states(14)
        S = 2 * X - 1
        assert np.allclose(q.energies(X), m.energies(S), atol=1e-9)


class TestIsingToQubo:
    def test_single_field(self):
        m = IsingModel.from_terms(1, h=[1.0])
        q = ising_to_qubo(m)
        assert q.terms() == [(0, 0, 2.0)]
        assert q.offset == pytest.approx(-1.0)
        assert q.energy([0]) == pytest.approx(-1.0)
        assert q.energy([1]) == pytest.approx(1.0)

    def test_zero_map(self):
        m = IsingModel.from_terms(3)
        q = ising_to_qubo(m)
        assert q.num_terms == 0
        assert q.offset == 0.0

    def test_all_states_agree(self):
        m = random_ising(14, seed=9)
        q = ising_to_qubo(m)
        S = all_spin_states(14)
        X = (S + 1) // 2
        assert np.allclose(m.energies(S), q.energies(X), atol=1e-9)

    def test_round_trip_preserves_energies(self):
        m = random_ising(10, seed=13)
        back = qubo_to_ising(ising_to_qubo(m))
        S = all_spin_states(10)
        assert np.allclose(m.energies(S), back.energies(S), atol=1e-9)


class TestSpinBinaryConvert:
    def test_examples(self):
        assert np.array_equal(spins_to_bits([-1, 1]), [0, 1])
        assert np.array_equal(bits_to_spins([0, 0]), [-1, -1])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        v = rng.choice([-1, 1], size=20)
        assert np.array_equal(bits_to_spins(spins_to_bits(v)), v)
        x = rng.choice([0, 1], size=20)
        assert np.array_equal(spins_to_bits(bits_to_spins(x)), x)


class TestReduceCubic:
    def test_gadget_exact_for_both_signs(self):
        # min over the auxiliary reproduces the cubic monomial exactly
        for coeff in (1.0, -1.0):
            h = HuboModel.from_terms(3, "spin", [((0, 1, 2), coeff)])
            reduced, rmap = reduce_cubic(h)
            assert rmap.energy_scale == 1.0 and rmap.energy_shift == 0.0
            assert reduced.n == 4
            for s in all_spin_states(3):
                target = coeff * s[0] * s[1] * s[2]
                vals = [reduced.energy(np.concatenate([s, [a]])) for a in (-1, 1)]
                assert min(vals) == pytest.approx(target, abs=1e-12)

    def test_quadratic_passthrough_is_identity(self):
        h = HuboModel.from_terms(3, "spin", [((0,), 0.5), ((0, 2), -1.5)])
        reduced, rmap = reduce_cubic(h)
        assert rmap.aux_bindings == ()
        assert rmap.energy_scale == 1.0 and rmap.energy_shift == 0.0
        assert reduced.n == 3
        for s in all_spin_states(3):
            assert reduced.energy(s) == pytest.approx(h.energy(s), abs=1e-12)

    def test_non_unit_coefficients(self):
        rng = np.random.default_rng(11)
        h = HuboModel.from_terms(3, "spin", [((0, 1, 2), float(rng.normal()) * 3)])
        reduced, _ = reduce_cubic(h)
        for s in all_spin_states(3):
            target = h.energy(s)
            vals = [reduced.energy(np.concatenate([s, [a]])) for a in (-1, 1)]
            assert min(vals) == pytest.approx(target, abs=1e-12)

    def test_random_cubic_double_enumeration(self):
        rng = np.random.default_rng(17)
        n = 8
        terms = []
        for _ in range(20):
            order = int(rng.integers(1, 4))
            idx = tuple(sorted(rng.choice(n, size=order, replace=False)))
            terms.append((idx, float(rng.normal())))
        h = HuboModel.from_terms(n, "spin", terms)
        reduced, rmap = reduce_cubic(h)

        original_min = exhaustive_min_hubo(h)
        S = all_spin_states(reduced.n)
        reduced_energies = reduced.energies(S)
        reduced_min = float(reduced_energies.min())
        assert reduced_min == pytest.approx(
            rmap.energy_scale * original_min + rmap.energy_shift, abs=1e-9)

        argmin = S[int(np.argmin(reduced_energies))]
        lifted = rmap.lift(argmin)
        assert h.energy(lifted) == pytest.approx(original_min, abs=1e-9)

    def test_order_four_rejected(self):
        h = HuboModel.from_terms(4, "spin", [((0, 1, 2, 3), 1.0)])
        with pytest.raises(UnsupportedOrderError):
            reduce_cubic(h)

    def test_binary_domain_rejected(self):
        h = HuboModel.from_terms(3, "binary", [((0, 1, 2), 1.0)])
        with pytest.raises(ValidationError):
            reduce_cubic(h)


class TestLiftSolution:
    def test_identity_map(self):
        rmap = ReductionMap(original_n=4)
        s = np.array([1, -1, 1, -1], dtype=np.int8)
        assert np.array_equal(rmap.lift(s), s)

    def test_truncation(self):
        rmap = ReductionMap(original_n=5,
                            aux_bindings=((5, (0, 1, 2)), (6, (1, 2, 3))))
        s = np.array([1, -1, 1, -1, 1, -1, 1], dtype=np.int8)
        assert np.array_equal(rmap.lift(s), s[:5])

    def test_length_mismatch(self):
        rmap = ReductionMap(original_n=3)
        with pytest.raises(ValidationError):
            rmap.lift(np.array([1, -1], dtype=np.int8))


class TestHuboToSpinDomain:
    def test_energies_match_under_variable_map(self):
        rng = np.random.default_rng(23)
        n = 7
        terms = []
        for _ in range(15):
            order = int(rng.integers(1, 4))
            idx = tuple(sorted(rng.choice(n, size=order, replace=False)))
            terms.append((idx, float(rng.normal())))
        hb = HuboModel.from_terms(n, "binary", terms)
        hs = hubo_to_spin_domain(hb)
        X = all_bit_states(n)
        assert np.allclose(hb.energies(X), hs.energies(2 * X - 1), atol=1e-9)

    def test_order_never_grows(self):
        hb = HuboModel.from_terms(4, "binary", [((0, 1, 2), 2.0)])
        hs = hubo_to_spin_domain(hb)
        assert max(len(t) for t, _ in hs.terms()) <= 3


def test_conversion_energy_equality_many_models():
    # conversion equivalence property on a batch of random sizes
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(2, 11))
        q = random_qubo(n, seed=trial + 100)
        m = qubo_to_ising(q)
        X = all_bit_states(n)
        assert np.allclose(q.energies(X), m.energies(2 * X - 1), atol=1e-9)
        assert np.allclose(bits_to_spins(X[-1]), 2 * X[-1] - 1)
