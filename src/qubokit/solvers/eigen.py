"""Extreme eigenvalue estimation for symmetric coupling matrices.

Small matrices (n <= 512) go through direct dense tridiagonalization.
Larger ones use a two-pass Lanczos iteration in numpy under a fixed
step/tolerance budget.  It applies the operator only as ``mat @ v``, so a
dense array and a CSR operator are served alike, and it keeps about five
vectors of n float64, never a basis:

* pass 1 runs the three-term recurrence from a fixed seeded Gaussian vector
  and keeps only the tridiagonal T (its alphas and betas).  Every
  ``_CHECK_EVERY`` steps, and as soon as a beta is negligible next to its
  row of T (the Krylov space is then invariant), it takes T's extreme
  eigenpair (theta, y) and stops once ARPACK's convergence test
  |beta_k y_k| <= ``LANCZOS_TOL`` * max(|theta|, eps^(2/3)) holds;
* pass 2 runs the recurrence again with the stored alphas and betas, which
  reproduces pass 1's vectors bit for bit, and sums them into the Ritz
  vector x = Q y.

The Ritz value is pushed outward by the explicit residual ||Ax - theta x||
of the unit Ritz vector, so the returned minimum stays a safe (stabilizing)
estimate even where the recurrence has lost orthogonality.  T's extreme
eigenpair comes from O(k) scalar recurrences on the LDL^T pivots of
T - xI, not from a dense k x k eigensolver: Laguerre's iteration, which
from above the spectrum of a symmetric matrix falls monotonically to its
largest eigenvalue, then two steps of inverse iteration just above it.
The start vector is drawn afresh on every call, so repeated calls on one
matrix return the same bits; a constant vector would be a poor start, since
on symmetric lattices its Krylov space can miss the extreme eigenvector.
No convergence within ``LANCZOS_MAXITER`` steps falls back to the
Gershgorin disc bound rather than raising.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from ..model import is_sparse

DENSE_LIMIT = 512
LANCZOS_TOL = 1e-8
LANCZOS_MAXITER = 5000
# Lanczos steps between convergence checks: a check at step k costs O(k)
# scalar work, about 0.1 ms at k = 100 on a Xeon core, as much as seven
# Lanczos steps on a CSR tile lattice of n = 1024
_CHECK_EVERY = 10
# ARPACK's floor under |theta| in its convergence test (dsconv)
_EPS23 = np.finfo(np.float64).eps ** (2 / 3)


def _gershgorin(mat, which: str) -> float:
    diag = mat.diagonal()
    radius = np.ravel(abs(mat).sum(axis=1)) - np.abs(diag)
    if which == "min":
        return float(np.min(diag - radius))
    return float(np.max(diag + radius))


def _laguerre_sums(a, b2, x):
    """(G, H) = (sum 1/(x - l), sum 1/(x - l)^2) over the eigenvalues l of
    the tridiagonal T with diagonal ``a`` and squared off-diagonal ``b2``,
    from the pivots d of T - xI and their first two derivatives in x; None
    unless every pivot is negative, i.e. unless x lies above T's spectrum."""
    d = a[0] - x
    if d >= 0.0:
        return None
    u, v = -1.0 / d, 0.0  # d'/d and d''/d
    g, h = u, u * u
    for ai, bi2 in zip(a[1:], b2):
        c = bi2 / d
        d = ai - x - c
        if d >= 0.0:
            return None
        v = c * (v - 2.0 * u * u) / d
        u = (c * u - 1.0) / d
        g += u
        h += u * u - v
    return g, h


def _solve_shifted(a, b, b2, x, r):
    """(T - xI)^-1 r by the LDL^T recurrence, or None unless every pivot
    is negative; the pivots are those of ``_laguerre_sums``, bit for bit."""
    d = a[0] - x
    if d >= 0.0:
        return None
    pivots, w = [d], [r[0]]
    for ai, bi, bi2, ri in zip(a[1:], b, b2, r[1:]):
        w.append(ri - bi / d * w[-1])
        d = ai - x - bi2 / d
        if d >= 0.0:
            return None
        pivots.append(d)
    z = [w[-1] / d]
    for di, bi, wi in zip(pivots[-2::-1], b[::-1], w[-2::-1]):
        z.append((wi - bi * z[-1]) / di)
    return z[::-1]


def _unit(z):
    norm = math.sqrt(math.fsum(t * t for t in z))
    return [t / norm for t in z]


def _top_pair(a, b, guess: float | None):
    """Largest eigenvalue of the unreduced tridiagonal T (diagonal ``a``,
    off-diagonal ``b``, lists of floats) and its unit eigenvector.
    Laguerre starts from ``guess`` when that lies above T's spectrum."""
    k = len(a)
    if k == 1:
        return a[0], [1.0]
    b2 = [t * t for t in b]
    rad = [abs(t) for t in b]
    scale = max(map(abs, a)) + 2.0 * max(rad)
    x = guess
    sums = None if guess is None else _laguerre_sums(a, b2, x)
    if sums is None:
        # a full scale above the Gershgorin bound, so every pivot is negative
        x = scale + max(ai + r0 + r1 for ai, r0, r1 in zip(a, [0.0] + rad, rad + [0.0]))
        sums = _laguerre_sums(a, b2, x)
    above = x  # the last point known to lie above the spectrum
    for _ in range(100):
        if sums is None:
            break
        g, h = sums
        nx = x - k / (g + math.sqrt(max(0.0, (k - 1) * (k * h - g * g))))
        if not nx < x:
            break
        x = nx
        sums = _laguerre_sums(a, b2, x)
        if sums is not None:
            above = x
    # inverse iteration just above the eigenvalue x, from a vector of ones
    shift = x + 1e-10 * scale
    z = _solve_shifted(a, b, b2, shift, [1.0] * k) if shift < above else None
    if z is None:
        shift = above
        z = _solve_shifted(a, b, b2, shift, [1.0] * k)
    return x, _unit(_solve_shifted(a, b, b2, shift, _unit(z)))


def _lanczos_start(n: int) -> np.ndarray:
    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(q @ q)
    return q


def _lanczos(mat, which: str) -> float | None:
    """Two-pass Lanczos estimate of ``mat``'s extreme eigenvalue, or None
    when pass 1 does not converge within ``LANCZOS_MAXITER`` steps."""
    n = mat.shape[0]
    # the extreme pair of T for ``which`` is the largest pair of sign * T
    sign = 1.0 if which == "max" else -1.0
    alpha, beta = [], []
    q, prev, b = _lanczos_start(n), np.zeros(n), 0.0
    guess = None
    for k in range(1, LANCZOS_MAXITER + 1):
        w = mat @ q
        a = float(q @ w)
        w -= a * q
        w -= b * prev
        b, b_prev = math.sqrt(w @ w), b
        alpha.append(a)
        # a negligible beta means the Krylov space is (numerically) invariant
        if (b <= LANCZOS_TOL * (abs(a) + b_prev) or k % _CHECK_EVERY == 0
                or k == LANCZOS_MAXITER):
            top, y = _top_pair([sign * t for t in alpha], [sign * t for t in beta], guess)
            bound = abs(b * y[-1])
            if bound <= LANCZOS_TOL * max(abs(top), _EPS23):
                break
            # the next check's top eigenvalue usually lies below this
            guess = top + 2.0 * bound
        beta.append(b)
        w /= b
        q, prev = w, q
    else:
        return None
    del q, w, prev

    # pass 2: the same recurrence with the stored scalars
    q, prev = _lanczos_start(n), np.zeros(n)
    x = y[0] * q
    for a, b_prev, b, yk in zip(alpha, [0.0] + beta, beta, y[1:]):
        w = mat @ q
        w -= a * q
        w -= b_prev * prev
        w /= b
        q, prev = w, q
        x += yk * q
    q = w = prev = None  # w is unbound when T is 1 x 1 (an invariant start)
    x /= math.sqrt(x @ x)
    r = mat @ x
    r -= sign * top * x
    return sign * (top + math.sqrt(r @ r))


def eig_extreme(mat, which: str = "min") -> float:
    """Extreme eigenvalue of a symmetric matrix (``which`` in {min, max})."""
    if which not in ("min", "max"):
        raise ValidationError(f"which must be 'min' or 'max', got {which!r}")
    n = mat.shape[0]
    if n <= DENSE_LIMIT:
        dense = mat.toarray() if is_sparse(mat) else np.asarray(mat, dtype=np.float64)
        vals = np.linalg.eigvalsh(dense)
        return float(vals[0] if which == "min" else vals[-1])
    estimate = _lanczos(mat, which)
    return _gershgorin(mat, which) if estimate is None else estimate
