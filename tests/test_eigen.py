"""Tests for extreme eigenvalue estimation."""

import numpy as np
import pytest
import scipy.sparse as sp

from qubokit import eig_extreme
from qubokit.generators import gen_tile
from qubokit.solvers.bifurcation import resolve_c0


class TestEigExtreme:
    def test_two_by_two_closed_form(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert eig_extreme(A, "min") == pytest.approx(-1.0)
        assert eig_extreme(A, "max") == pytest.approx(1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 20))
        A = (A + A.T) / 2
        c = 3.7
        assert eig_extreme(A + c * np.eye(20), "min") == pytest.approx(
            eig_extreme(A, "min") + c, abs=1e-9)

    def test_dense_matches_direct_50(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(50, 50))
        A = (A + A.T) / 2
        vals = np.linalg.eigvalsh(A)
        assert eig_extreme(A, "min") == pytest.approx(vals[0], abs=1e-6)
        assert eig_extreme(A, "max") == pytest.approx(vals[-1], abs=1e-6)

    def test_lanczos_path_large_sparse(self):
        rng = np.random.default_rng(2)
        n = 600
        A = sp.random(n, n, density=0.02, random_state=3, format="csr")
        A = (A + A.T) / 2
        dense_vals = np.linalg.eigvalsh(A.toarray())
        est_min = eig_extreme(A, "min")
        est_max = eig_extreme(A, "max")
        # min estimate stays a safe (not above) estimate, and close
        assert est_min <= dense_vals[0] + 1e-6
        assert est_min == pytest.approx(dense_vals[0], abs=1e-4)
        assert est_max >= dense_vals[-1] - 1e-6
        assert est_max == pytest.approx(dense_vals[-1], abs=1e-4)

    def test_lanczos_repeats_bitwise(self):
        # n=1024 takes the Lanczos path; its start vector must not depend on
        # how many calls ran before.
        m = gen_tile(32, [0.0, 0.8, 0.0, 0.2], 5).model
        c0 = [resolve_c0(m) for _ in range(3)]
        assert c0[0].hex() == c0[1].hex() == c0[2].hex()

    def test_gershgorin_fallback_is_conservative(self):
        from qubokit.solvers.eigen import _gershgorin
        rng = np.random.default_rng(4)
        A = rng.normal(size=(30, 30))
        A = (A + A.T) / 2
        vals = np.linalg.eigvalsh(A)
        for mat in (A, sp.csr_array(A)):
            assert _gershgorin(mat, "min") <= vals[0]
            assert _gershgorin(mat, "max") >= vals[-1]

    def test_single_entry(self):
        for mat in (np.array([[4.0]]), sp.csr_array([[4.0]])):
            assert eig_extreme(mat, "min") == 4.0
            assert eig_extreme(mat, "max") == 4.0

    def test_bad_which(self):
        with pytest.raises(ValueError):
            eig_extreme(np.eye(2), "middle")
