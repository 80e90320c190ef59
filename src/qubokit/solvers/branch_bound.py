"""Branch & bound over spin prefixes with prefix-energy and spectral bounds.

Nodes fix spins for a prefix U = {0, ..., k-1} of a fixed variable order
(descending |h_i| + sum_j |J_ij|).  The search runs level by level: depth k
is one (G, k) block of prefixes, with their prefix energies and bounds, and
its nodes' children, which fix the next variable to +-1, form depth k + 1.

With m free spins, the folded linear term c (the free spins' fields plus
their couplings to the fixed prefix) and the free block
A_rem = Q diag(lam) Q^T, every completion s in {-1, +1}^m satisfies, for
every shift d > -lam_min, since s^T s = m,

    1/2 s^T A_rem s + c^T s >= -1/2 sum_i (Q^T c)_i^2 / (lam_i + d) - d m / 2,

the minimum of the convex quadratic being reached at
r(d) = -Q (Q^T c / (lam + d)).  Bound kinds:

* ``base``: the prefix energy (no contribution from free spins).
* ``spd``: prefix energy plus the relaxed minimum
  -1/2 sum_i (Q^T c)_i^2 / (lam_i + d) at the fixed shift
  d_root = max(0, -lam_min(A)) + EPSILON of the whole matrix (positive
  definite at every depth by eigenvalue interlacing), without the -d m / 2
  term: a selection score, not a bound.
* ``spd_admissible``: the spherical bound (Poljak & Rendl 1995), the
  right-hand side above maximised over d.  It is concave in d with its
  maximum where ||r(d)|| = sqrt(m), the trust-region secular equation of
  Moré & Sorensen (1983).  Newton steps on 1/||r(d)|| - 1/sqrt(m), started
  at d = -lam_min + EPSILON, only increase d and stay left of that root,
  so every iterate is a true lower bound and pruning is exact.

The variable order is fixed, so A_rem depends on the depth alone: its
eigendecomposition is computed once per depth reached, with the
eigenvalues pushed down by a backward-error margin so the shifted blocks
stay positive definite despite rounding.  A node's bound then costs O(m^2).

In ``spd_admissible`` mode nodes whose bound reaches the incumbent are
pruned exactly (counted in ``BBResult.prunes``): children as they are made,
and the whole level again before it is expanded.  The heuristic modes treat
their score as a selection order only and discard nodes solely through the
level cap, so they search a beam of width ``pool_limit`` (an unsound premise
that can lose the optimum, which is the point of comparing them).  In the
SPD modes each expansion also rounds the relaxed minimizer of both children
into full assignments as incumbent candidates; one child per expansion,
alternating, and every candidate below the incumbent are polished by 1-opt
descent.

Each level is sorted by bound (stable, so ties keep their order) and capped
at its ``pool_limit`` lowest bounds; any eviction clears the ``optimal``
flag.  It is then expanded in chunks whose largest temporary stays near
``CHUNK_BYTES``.  The nodes of one depth share (lam, Q), so a chunk of G
nodes costs a few products with its (G, k) prefix block and one ``_relax``
call on the (m, 2G) folded fields of all its children (``_child_bounds``,
whose one-node case is ``bound_spd``); its candidates are scored and
polished together.  At depth ``n - leaf_size`` nodes are closed instead by
exact enumeration of the remaining block through brute force's scorer: one
product of the chunk's columns [H; 1; pe] (the free spins' folded fields, 1
and the prefix energy) with brute force's augmented table of the free
block's states gives each leaf's first best completion.  The deadline is
checked once per chunk, and a started chunk is always finished, so in
``spd_admissible`` mode the result's ``lower_bound``, the minimum of the
returned energy, every evicted bound and, after a timeout, the bounds of
the level's unexpanded rest and of the children already made, certifies
the ``gap`` of a truncated search too; it equals the energy when the
search proves optimality.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError, check_finite_real
from ..model import IsingModel, as_spins
from .brute_force import _best_rows, _low_table
from .common import BBParams

# Newton steps per spherical bound, and the relative excess of ||r||^2 over
# m below which the shift counts as converged (the bound is flat there)
_NEWTON_STEPS = 8
_NEWTON_RTOL = 1e-9
# Margin above -lam_min of the shifts solve_bb starts from, which keeps the
# shifted free blocks positive definite
EPSILON = 1e-6

# Nodes of one level are expanded in chunks whose largest temporary, the
# (n, 2G) candidate assignments of the children or the (G, 2^leaf) table of
# leaf energies, stays near 512 KB (4 leaves at leaf size 14): 1 MB leaf
# chunks raised the exact-proof benchmark's peak RSS by about 1 MB and were no
# faster, and sizing inner chunks by the (m, 2G) folded fields instead raised
# criterion 9's peak RSS by about 5 MB and was no faster
CHUNK_BYTES = 2 ** 19


def bound_base(model: IsingModel, prefix) -> float:
    """Energy of the prefix-induced subproblem (plus the model offset)."""
    u = as_spins(prefix).astype(np.float64)
    k = u.shape[0]
    if k > model.n:
        raise ValidationError("prefix longer than the model")
    A = model.coupling_matrix()
    return float(0.5 * u @ (A[:k, :k] @ u) + model.h[:k] @ u) + model.offset


def _spectrum(A_rem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a free block, ascending eigenvalues pushed down by
    a bound on eigh's backward error, as eigen.py pushes Lanczos values by
    their residual: -lam[0] + anything positive is a safe shift."""
    lam, Q = np.linalg.eigh(A_rem)
    margin = lam.shape[0] * np.finfo(np.float64).eps * float(np.abs(lam).max())
    return lam - margin, Q


def _relax(lam: np.ndarray, Q: np.ndarray, c: np.ndarray, d,
           admissible: bool) -> tuple[np.ndarray, np.ndarray]:
    """Relaxed value and minimiser r of the free block for each column of the
    folded linear terms ``c`` (shape (m, B)), at shift ``d`` (> -lam[0]).

    With ``admissible`` the shift is first raised by Newton steps towards the
    spherical optimum and the value includes -d m / 2, so it is a lower bound
    on every spin completion; otherwise it is the relaxed minimum at ``d``.
    """
    m = lam.shape[0]
    qc = Q.T @ c
    lam = lam[:, None]
    d = np.full(c.shape[1], d, dtype=np.float64)
    if admissible:
        for _ in range(_NEWTON_STEPS):
            inv = 1.0 / (lam + d)
            w2 = (qc * inv) ** 2
            norm2 = w2.sum(axis=0)
            # ||r|| > sqrt(m): left of the root, where Newton on the concave,
            # increasing 1/||r(d)|| steps right without overshooting
            left = norm2 > m * (1.0 + _NEWTON_RTOL)
            if not left.any():
                break
            q2 = np.where(left, (w2 * inv).sum(axis=0), 1.0)
            d = d + np.where(left, (np.sqrt(norm2 / m) - 1.0) * norm2 / q2, 0.0)
    w = qc / (lam + d)
    value = -0.5 * (qc * w).sum(axis=0)
    if admissible:
        value -= 0.5 * d * m
    return value, -(Q @ w)


def _child_bounds(A: np.ndarray, h: np.ndarray, U: np.ndarray, spectrum, epsilon: float,
                  admissible: bool, d: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Folded linear terms c (m, 2G), relaxed values and minimisers of the
    children s_k = +1 (columns :G) and -1 (G:) of the depth-k prefixes ``U``
    (G, k).  ``spectrum(depth)`` gives (lam, Q) of the free block; the shift
    is ``d``, by default -lam_min + epsilon when admissible, else
    max(0, -lam_min) + epsilon."""
    k = U.shape[1]
    col = A[k + 1:, k][:, None]
    base = h[k + 1:, None] + A[k + 1:, :k] @ U.T
    c = np.concatenate([base + col, base - col], axis=1)
    lam, Q = spectrum(k + 1)
    if d is None:
        d = (-lam[0] if admissible else max(0.0, -lam[0])) + epsilon
    value, R = _relax(lam, Q, c, d, admissible)
    return c, value, R


def bound_spd(model: IsingModel, prefix, epsilon: float, *,
              admissible: bool = False, d: float | None = None) -> float:
    """SPD relaxation bound below a nonempty prefix, in the model's own
    variable order: the one-node case of ``solve_bb``'s depth-group bound.

    Without ``admissible`` it is the prefix energy plus the relaxed minimum
    at shift ``d``; with it, the spherical bound that ``solve_bb`` prunes
    with, never above any completion's energy, with Newton steps from ``d``.
    A supplied ``d`` must exceed -lam_min of the remaining block (any shift
    derived from the full matrix by eigenvalue interlacing does).
    """
    check_finite_real("epsilon", epsilon, positive=True)
    u = as_spins(prefix).astype(np.float64)
    k = u.shape[0]
    if not 0 < k < model.n:
        raise ValidationError("SPD bound needs a nonempty prefix and a nonempty remaining set")
    A = model.coupling_matrix()
    spectrum = functools.cache(lambda depth: _spectrum(A[depth:, depth:]))
    lam_min = spectrum(k)[0][0]
    if d is not None and not d > -lam_min:  # NaN fails too
        raise ValidationError(f"shift d={d} must exceed -lam_min={-lam_min}")
    _, value, _ = _child_bounds(A, model.h, u[None, :-1], spectrum, epsilon, admissible, d)
    return bound_base(model, u) + float(value[0 if u[-1] > 0 else 1])


@dataclass
class BBResult:
    """Best state found; ``lower_bound`` is certified in ``spd_admissible``
    mode (else -inf) and equals ``energy`` when ``optimal``."""

    state: np.ndarray
    energy: float
    optimal: bool
    expansions: int = 0
    evictions: int = 0
    prunes: int = 0
    timed_out: bool = False
    lower_bound: float = -np.inf

    @property
    def gap(self) -> float:
        """Certified absolute gap ``energy - lower_bound`` (0 when optimal)."""
        return self.energy - self.lower_bound


def _select(bounds: np.ndarray, incumbent: float, pool_limit: int,
            admissible: bool) -> tuple[np.ndarray, int, int, float]:
    """The nodes of a level to expand, as indices into ``bounds`` in bound
    order (stable, so ties keep their order), with the counts pruned and
    evicted and the least evicted bound (inf when none is).

    Only a true lower bound may prune, every node at or above the
    incumbent; the heuristic scores order the level and lose nodes to the
    ``pool_limit`` cap alone.
    """
    order = np.argsort(bounds, kind="stable")
    live = int(np.searchsorted(bounds[order], incumbent)) if admissible else order.size
    kept = min(live, pool_limit)
    least = bounds[order[kept]] if live > kept else np.inf
    return order[:kept], order.size - live, live - kept, float(least)


def _descend(Ap: np.ndarray, hp: np.ndarray, X: np.ndarray, energy: np.ndarray) -> None:
    """1-opt polish of the columns of ``X`` (n, P) in place, ``energy`` (P,)
    alongside: each column flips its best-improving spin (the first on ties)
    until no flip improves it by more than 1e-12, at most 4n flips."""
    n = X.shape[0]
    F = Ap @ X + hp[:, None]
    active = np.arange(X.shape[1])
    for _ in range(4 * n):
        dE = -2.0 * X[:, active] * F[:, active]
        best = np.argmin(dE, axis=0)
        gain = dE[best, np.arange(active.size)]
        move = gain < -1e-12
        if not move.any():
            break
        active, best, gain = active[move], best[move], gain[move]
        X[best, active] = -X[best, active]
        energy[active] += gain
        F[:, active] += 2.0 * Ap[:, best] * X[best, active]


def solve_bb(model: IsingModel, params: BBParams) -> BBResult:
    """Level-by-level branch & bound; see module docstring for semantics."""
    params.validate()
    t0 = time.perf_counter()
    n = model.n
    A_full = model.coupling_matrix()

    perm = np.argsort(-model.row_weights, kind="stable")
    Ap = A_full[np.ix_(perm, perm)]
    hp = model.h[perm]

    spectrum = functools.cache(lambda depth: _spectrum(Ap[depth:, depth:]))
    mode = params.bound_kind
    spd = mode.startswith("spd")
    admissible = mode == "spd_admissible"
    d_root = 0.0
    if spd and not admissible:
        d_root = max(0.0, -spectrum(0)[0][0]) + EPSILON

    leaf = min(params.leaf_size, n)
    kc = n - leaf
    leaf_table = _low_table(Ap[kc:, kc:], leaf)  # [s | 1/2 s^T A s | 1] of every leaf state

    # Deterministic greedy completion seeds the incumbent so even truncated
    # runs return a full assignment.
    greedy = np.zeros(n)
    for t in range(n):
        f = hp[t] + Ap[t, :t] @ greedy[:t]
        greedy[t] = -1.0 if f >= 0 else 1.0
    greedy_e = np.array([float(0.5 * greedy @ (Ap @ greedy) + hp @ greedy) + model.offset])
    _descend(Ap, hp, greedy[:, None], greedy_e)
    incumbent_state, incumbent_energy = greedy, float(greedy_e[0])

    # the current level: prefixes of depth k, their prefix energies and bounds
    U = np.zeros((1, 0), dtype=np.int8)
    pe = np.array([model.offset])
    bounds = np.array([-np.inf])
    expansions = evictions = prunes = 0
    evicted_min = open_min = np.inf
    timed_out = False
    deadline = None if params.time_limit is None else t0 + params.time_limit

    for k in range(kc + 1):
        keep, pruned, evicted, least = _select(bounds, incumbent_energy, params.pool_limit,
                                               admissible)
        prunes += pruned
        evictions += evicted
        evicted_min = min(evicted_min, least)
        U, pe, bounds = U[keep], pe[keep], bounds[keep]

        width = 2 ** leaf if k == kc else 2 * n
        chunk = max(1, CHUNK_BYTES // (8 * width))
        children = []
        for a in range(0, bounds.size, chunk):
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                open_min = np.concatenate([bounds[a:]] + [c[2] for c in children]).min()
                break
            b = min(a + chunk, bounds.size)
            G = b - a
            Uc = U[a:b].astype(np.float64)
            X = None
            if k == kc:
                # column g: leaf a + g's fields on the free spins, 1 and its prefix energy
                W = np.vstack([hp[kc:, None] + Ap[kc:, :kc] @ Uc.T, np.ones(G), pe[a:b]])
                pos, E = _best_rows(leaf_table, W)
                X = np.empty((n, G))
                X[:kc] = Uc.T
                X[kc:] = leaf_table[pos, :leaf].T
                polish = np.zeros(G, dtype=bool)
            else:
                step = hp[k] + Uc @ Ap[k, :k]
                pe_children = np.concatenate([pe[a:b] + step, pe[a:b] - step])
                child_bounds = pe_children
                if spd:
                    # columns g and G + g hold node g's children s_k = +1 and -1
                    h_pair, relaxed, R = _child_bounds(Ap, hp, Uc, spectrum, EPSILON,
                                                       admissible, None if admissible else d_root)
                    child_bounds = pe_children + relaxed
                    # relaxation rounding: a full assignment candidate for
                    # free; quench one child per expansion so the tree
                    # doubles as a multi-start local search
                    V = np.where(R >= 0, 1.0, -1.0)
                    A_rem = Ap[k + 1:, k + 1:]
                    E = (pe_children + 0.5 * np.einsum("ij,ij->j", V, A_rem @ V)
                         + np.einsum("ij,ij->j", V, h_pair))
                    X = np.empty((n, 2 * G))
                    X[:k] = np.tile(Uc.T, 2)
                    X[k, :G] = 1.0
                    X[k, G:] = -1.0
                    X[k + 1:] = V
                    even = (expansions + 1 + np.arange(G)) % 2 == 0
                    polish = np.concatenate([even, ~even])
            expansions += G

            if X is not None:
                sel = np.flatnonzero(polish | (E < incumbent_energy))
                if sel.size:
                    X, E = X[:, sel], E[sel]
                    _descend(Ap, hp, X, E)
                    best = int(np.argmin(E))
                    if E[best] < incumbent_energy:
                        incumbent_energy = float(E[best])
                        incumbent_state = X[:, best].copy()

            if k < kc:
                sign = np.repeat(np.array([1, -1], dtype=np.int8), G)[:, None]
                kids = np.hstack([np.tile(U[a:b], (2, 1)), sign])
                if admissible:
                    below = child_bounds < incumbent_energy
                    prunes += 2 * G - int(below.sum())
                    kids, pe_children, child_bounds = (kids[below], pe_children[below],
                                                       child_bounds[below])
                children.append((kids, pe_children, child_bounds))
        if timed_out or not children:
            break
        U, pe, bounds = (np.concatenate(part) for part in zip(*children))

    state = np.empty(n, dtype=np.int8)
    state[perm] = incumbent_state.astype(np.int8)
    energy = model.energy(state)
    optimal = admissible and evictions == 0 and not timed_out
    lower_bound = min(energy, evicted_min, open_min) if admissible else -np.inf
    return BBResult(state=state, energy=energy, optimal=optimal, expansions=expansions,
                    evictions=evictions, prunes=prunes, timed_out=timed_out,
                    lower_bound=float(lower_bound))
