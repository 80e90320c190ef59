"""Tests for extreme eigenvalue estimation."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from qubokit import eig_extreme
from qubokit.generators import gen_random, gen_tile
from qubokit.solvers import eigen
from qubokit.solvers.bifurcation import resolve_c0


class CountingOperator:
    """A symmetric operator that counts its products ``op @ v``."""

    def __init__(self, mat):
        self.mat, self.shape, self.products = mat, mat.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.mat @ v


# n in 600-1024, above DENSE_LIMIT: two CSR operators and a dense array
LANCZOS_CASES = {
    "tile-L32-csr": lambda: gen_tile(32, [0.0, 0.8, 0.0, 0.2], 5).model.coupling_operator(),
    "chimera-8x12-csr": lambda: gen_random("chimera", "gaussian", 3, rows=8,
                                           cols=12).coupling_operator(),
    "complete-n600-dense": lambda: gen_random("complete", "uniform", 4,
                                              n=600).coupling_operator(),
}


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

    @pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
    def test_lanczos_matches_eigvalsh_on_the_safe_side(self, case):
        mat = LANCZOS_CASES[case]()
        assert mat.shape[0] > eigen.DENSE_LIMIT
        assert sp.issparse(mat) == case.endswith("csr")
        vals = np.linalg.eigvalsh(mat.toarray() if sp.issparse(mat) else mat)
        est_min, est_max = eig_extreme(mat, "min"), eig_extreme(mat, "max")
        assert est_min <= vals[0] + 1e-9
        assert est_max >= vals[-1] - 1e-9
        scale = max(abs(vals[0]), abs(vals[-1]))
        assert est_min == pytest.approx(vals[0], abs=1e-7 * scale)
        assert est_max == pytest.approx(vals[-1], abs=1e-7 * scale)

    @pytest.mark.parametrize("which", ["min", "max"])
    def test_lanczos_stops_when_beta_vanishes(self, which):
        # three distinct eigenvalues: the Krylov space is invariant after
        # three steps, long before the first periodic check
        values = np.repeat([-2.0, 0.5, 3.0], 200)
        op = CountingOperator(sp.diags_array(values, format="csr"))
        est = eig_extreme(op, which)
        assert est == pytest.approx(-2.0 if which == "min" else 3.0, abs=1e-9)
        # three steps in pass 1, two in pass 2, one residual product
        assert op.products == 6 < eigen._CHECK_EVERY

    @pytest.mark.parametrize("which", ["min", "max"])
    def test_lanczos_on_zero_operator(self, which):
        # the start vector is an eigenvector, so T is 1 x 1 and pass 2 adds
        # no vector to it
        assert eig_extreme(sp.csr_array((600, 600)), which) == 0.0

    def test_no_convergence_falls_back_to_gershgorin(self, monkeypatch):
        mat = gen_tile(32, [0.0, 0.8, 0.0, 0.2], 5).model.coupling_operator()
        monkeypatch.setattr(eigen, "LANCZOS_MAXITER", 2)
        for which in ("min", "max"):
            assert eig_extreme(mat, which) == eigen._gershgorin(mat, which)

    def test_lanczos_memory_is_a_few_vectors(self):
        # tile L=256: n = 65,536 spins; ARPACK's 20 Lanczos vectors alone
        # would take 160 B per spin
        mat = gen_tile(256, [0.0, 0.8, 0.0, 0.2], 1).model.coupling_operator()
        n = mat.shape[0]
        tracemalloc.start()
        try:
            est = eig_extreme(mat, "min")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est <= -5.49
        assert peak <= 10 * 8 * n

    def test_default_c0_copies_no_operator(self):
        # tile L=256: SBM's default c0 runs Lanczos on the model's own
        # operator, about 40 B per spin; a negated float64 copy of the
        # operator took it to 112
        m = gen_tile(256, [0.0, 0.8, 0.0, 0.2], 1).model
        m.coupling_operator()
        tracemalloc.start()
        try:
            resolve_c0(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * m.n

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
