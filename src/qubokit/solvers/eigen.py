"""Extreme eigenvalue estimation for symmetric coupling matrices.

Small matrices (n <= 512) go through direct dense tridiagonalization; larger
ones use ARPACK's Lanczos iteration under a fixed iteration/tolerance budget,
with the Ritz value pushed outward by its residual norm so the returned
minimum stays a safe (stabilizing) estimate.  Lanczos starts from a fixed
seeded Gaussian vector, so repeated calls on one matrix return the same
bits; a constant vector would be a poor start, since on symmetric lattices
its Krylov space can miss the extreme eigenvector.  Non-convergence falls
back to the Gershgorin disc bound rather than raising.
"""

from __future__ import annotations

import numpy as np

from ..model import is_sparse

DENSE_LIMIT = 512
LANCZOS_TOL = 1e-8
LANCZOS_MAXITER = 5000


def _gershgorin(mat, which: str) -> float:
    diag = mat.diagonal()
    radius = np.ravel(abs(mat).sum(axis=1)) - np.abs(diag)
    if which == "min":
        return float(np.min(diag - radius))
    return float(np.max(diag + radius))


def eig_extreme(mat, which: str = "min") -> float:
    """Extreme eigenvalue of a symmetric matrix (``which`` in {min, max})."""
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    n = mat.shape[0]
    if n <= DENSE_LIMIT:
        dense = mat.toarray() if is_sparse(mat) else np.asarray(mat, dtype=np.float64)
        vals = np.linalg.eigvalsh(dense)
        return float(vals[0] if which == "min" else vals[-1])

    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(mat, k=1, which="SA" if which == "min" else "LA",
                                tol=LANCZOS_TOL, maxiter=LANCZOS_MAXITER, v0=v0)
    except spla.ArpackNoConvergence:
        return _gershgorin(mat, which)
    theta = float(vals[0])
    v = vecs[:, 0]
    residual = float(np.linalg.norm(mat @ v - theta * v))
    return theta - residual if which == "min" else theta + residual
