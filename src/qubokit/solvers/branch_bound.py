"""Branch & bound over spin prefixes with prefix-energy and spectral bounds.

Nodes fix spins for a prefix U = {0, ..., k-1} of a fixed variable order
(descending |h_i| + sum_j |J_ij|).  The search is best-first on the node
bound; children fix the next variable to +-1.

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
  d_root = max(0, -lam_min(A)) + epsilon of the whole matrix (positive
  definite at every depth by eigenvalue interlacing), without the -d m / 2
  term: a selection score, not a bound.
* ``spd_admissible``: the spherical bound (Poljak & Rendl 1995), the
  right-hand side above maximised over d.  It is concave in d with its
  maximum where ||r(d)|| = sqrt(m), the trust-region secular equation of
  Moré & Sorensen (1983).  Newton steps on 1/||r(d)|| - 1/sqrt(m), started
  at d = -lam_min + epsilon, only increase d and stay left of that root,
  so every iterate is a true lower bound and pruning is exact.
* ``spd_literal``: spd without cross-term folding (c is the bare fields of
  the free spins), kept for comparison.

The variable order is fixed, so A_rem depends on the depth alone: its
eigendecomposition is computed once per depth reached, with the
eigenvalues pushed down by a backward-error margin so the shifted blocks
stay positive definite despite rounding.  A node's bound then costs O(m^2).

In ``spd_admissible`` mode nodes whose bound reaches the incumbent are
pruned exactly; the heuristic modes treat their score as a selection order
only and discard nodes solely through pool eviction (an unsound premise
that can lose the optimum, which is the point of comparing them).  In the
SPD modes each expansion also rounds the relaxed minimizer into a full
assignment (polished by 1-opt descent) as an incumbent candidate.

Once ``leaf_size`` free variables remain, nodes are closed by exact
vectorized enumeration of the remaining block.  The frontier pool is capped
at ``pool_limit`` states with worst-bound eviction; any eviction (or
timeout) clears the ``optimal`` flag.  In ``spd_admissible`` mode the
result's ``lower_bound`` is the minimum of the returned energy, the bounds
left on the frontier and every evicted bound, so a truncated search still
certifies its ``gap``; it equals the energy when the search proves
optimality.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..model import IsingModel, as_spins, sign_pm
from .brute_force import _spin_table
from .common import BBParams

# Newton steps per spherical bound, and the relative excess of ||r||^2 over
# m below which the shift counts as converged (the bound is flat there)
_NEWTON_STEPS = 8
_NEWTON_RTOL = 1e-9


@dataclass
class BBNode:
    """Partial assignment over the first k variables of the model order."""

    fixed_prefix: np.ndarray
    prefix_energy: float
    bound: float = -np.inf

    @classmethod
    def from_prefix(cls, model: IsingModel, prefix) -> "BBNode":
        prefix = as_spins(np.asarray(prefix)) if len(prefix) else np.zeros(0, dtype=np.int8)
        node = cls(fixed_prefix=prefix, prefix_energy=0.0)
        node.prefix_energy = bound_base(model, node)
        return node


def bound_base(model: IsingModel, node: BBNode) -> float:
    """Energy of the prefix-induced subproblem (plus the model offset)."""
    u = np.asarray(node.fixed_prefix, dtype=np.float64)
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


def bound_spd(model: IsingModel, node: BBNode, epsilon: float, *,
              admissible: bool = False, fold_fixed: bool = True,
              d: float | None = None) -> float:
    """SPD relaxation bound for the remaining subproblem of a node.

    Without ``admissible`` this is the prefix energy plus the relaxed minimum
    at shift ``d``, by default max(0, -lam_min) + epsilon of the remaining
    block.  With ``admissible`` it is the spherical bound that ``solve_bb``
    prunes with, never above the energy of any spin completion; Newton steps
    start from ``d``, by default -lam_min + epsilon.  A supplied ``d`` must
    exceed -lam_min of the remaining block (any shift derived from the full
    matrix by eigenvalue interlacing does).
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    u = np.asarray(node.fixed_prefix, dtype=np.float64)
    k = u.shape[0]
    n = model.n
    if k >= n:
        raise ValidationError("SPD bound needs a nonempty remaining set")
    A = model.coupling_matrix()
    c = model.h[k:].copy()
    if fold_fixed and k:
        c += A[k:, :k] @ u
    lam, Q = _spectrum(A[k:, k:])
    if d is None:
        d = (-lam[0] if admissible else max(0.0, -lam[0])) + epsilon
    elif d <= -lam[0]:
        raise ValidationError(f"shift d={d} must exceed -lam_min={-lam[0]}")
    value, _ = _relax(lam, Q, c[:, None], d, admissible)
    return bound_base(model, node) + float(value[0])


@dataclass
class BBResult:
    """Best state found; ``lower_bound`` is certified in ``spd_admissible``
    mode (else -inf) and equals ``energy`` when ``optimal``."""

    state: np.ndarray
    energy: float
    optimal: bool
    expansions: int = 0
    evictions: int = 0
    timed_out: bool = False
    lower_bound: float = -np.inf

    @property
    def gap(self) -> float:
        """Certified absolute gap ``energy - lower_bound`` (0 when optimal)."""
        return self.energy - self.lower_bound


def _unpack_bits(bits: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros(0)
    raw = bits.to_bytes((k + 7) // 8, "little")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=k)
    return 2.0 * arr - 1.0


def solve_bb(model: IsingModel, params: BBParams) -> BBResult:
    """Best-first branch & bound; see module docstring for semantics."""
    params.validate()
    t0 = time.perf_counter()
    n = model.n
    A_full = model.coupling_matrix()

    weight = np.abs(model.h).copy()
    np.add.at(weight, model.rows, np.abs(model.values))
    np.add.at(weight, model.cols, np.abs(model.values))
    perm = np.argsort(-weight, kind="stable")
    Ap = A_full[np.ix_(perm, perm)]
    hp = model.h[perm]

    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def spectrum(depth: int) -> tuple[np.ndarray, np.ndarray]:
        if depth not in spectra:
            spectra[depth] = _spectrum(Ap[depth:, depth:])
        return spectra[depth]

    mode = params.bound_kind
    spd = mode.startswith("spd")
    admissible = mode == "spd_admissible"
    d_root = 0.0
    if spd and not admissible:
        d_root = max(0.0, -spectrum(0)[0][0]) + params.epsilon

    leaf = min(params.leaf_size, n)
    kc = n - leaf
    S_leaf = _spin_table(leaf)
    A_leaf = Ap[kc:, kc:]
    # 1/2 s^T A s of every leaf state, one spin at a time as the tree builds
    # pe: the first 2^(t+1) table rows are the first 2^t rows with s_t = -1,
    # then the same rows with s_t = +1
    quad_leaf = np.zeros(2 ** leaf)
    for t in range(leaf):
        m = 2 ** t
        cross = S_leaf[:m, :t] @ A_leaf[t, :t]
        quad_leaf[m:2 * m] = quad_leaf[:m] + cross
        quad_leaf[:m] -= cross

    incumbent_energy = np.inf
    incumbent_state: np.ndarray | None = None

    def descend(u: np.ndarray, energy: float) -> float:
        # 1-opt polish: flip best-improving spins until locally optimal
        f = Ap @ u + hp
        for _ in range(4 * n):
            dE = -2.0 * u * f
            best = int(np.argmin(dE))
            if dE[best] >= -1e-12:
                break
            u[best] = -u[best]
            energy += dE[best]
            f += 2.0 * Ap[:, best] * u[best]
        return energy

    def consider(full_u: np.ndarray, energy: float, polish: bool = False):
        nonlocal incumbent_energy, incumbent_state
        if polish or energy < incumbent_energy:
            full_u = full_u.copy()
            energy = descend(full_u, energy)
        if energy < incumbent_energy:
            incumbent_energy = energy
            incumbent_state = full_u

    # Deterministic greedy completion seeds the incumbent so even truncated
    # runs return a full assignment.
    greedy = np.zeros(n)
    for t in range(n):
        f = hp[t] + Ap[t, :t] @ greedy[:t]
        greedy[t] = -1.0 if f >= 0 else 1.0
    greedy_e = float(0.5 * greedy @ (Ap @ greedy) + hp @ greedy) + model.offset
    consider(greedy, greedy_e)

    counter = 0
    heap: list[tuple[float, int, int, int, float]] = [(-np.inf, counter, 0, 0, model.offset)]
    expansions = 0
    evictions = 0
    evicted_min = np.inf
    timed_out = False
    deadline = None if params.time_limit is None else t0 + params.time_limit

    while heap:
        if deadline is not None and expansions % 64 == 0 and time.perf_counter() > deadline:
            timed_out = True
            break
        bound, _, k, bits, pe = heapq.heappop(heap)
        # only a true lower bound may prune against the incumbent; the
        # heuristic scores order the pool and prune through eviction alone
        if admissible and bound >= incumbent_energy:
            continue
        expansions += 1
        u = _unpack_bits(bits, k)

        if k == kc:
            h_leaf = hp[kc:] + (Ap[kc:, :kc] @ u if kc else 0.0)
            completions = pe + quad_leaf + S_leaf @ h_leaf
            pos = int(np.argmin(completions))
            full = np.concatenate([u, S_leaf[pos]])
            consider(full, float(completions[pos]))
            continue

        cross = float(Ap[k, :k] @ u) if k else 0.0
        step = hp[k] + cross
        pe_children = (pe + step, pe - step)
        bits_children = (bits | (1 << k), bits)

        if spd:
            base_h = hp[k + 1:] + (Ap[k + 1:, :k] @ u if k else 0.0)
            col = Ap[k + 1:, k]
            if mode == "spd_literal":
                h_pair = np.stack([hp[k + 1:], hp[k + 1:]], axis=1)
            else:
                h_pair = np.stack([base_h + col, base_h - col], axis=1)
            lam, Q = spectrum(k + 1)
            d = -lam[0] + params.epsilon if admissible else d_root
            relaxed, R = _relax(lam, Q, h_pair, d, admissible)
            A_rem = Ap[k + 1:, k + 1:]
            child_bounds = []
            for c in range(2):
                child_bounds.append(pe_children[c] + float(relaxed[c]))
                # relaxation rounding: a full assignment candidate for free;
                # quench one child per expansion so the tree doubles as a
                # multi-start local search
                v = sign_pm(R[:, c]).astype(np.float64)
                h_round = base_h + col if c == 0 else base_h - col
                cand = pe_children[c] + 0.5 * float(v @ (A_rem @ v)) + float(v @ h_round)
                child_u = np.concatenate([u, [1.0 if c == 0 else -1.0], v])
                consider(child_u, cand, polish=(expansions % 2 == c))
        else:
            child_bounds = list(pe_children)

        for c in range(2):
            if admissible and child_bounds[c] >= incumbent_energy:
                continue
            counter += 1
            heapq.heappush(heap, (child_bounds[c], counter, k + 1, bits_children[c],
                                  pe_children[c]))

        if len(heap) > params.pool_limit:
            heap.sort()
            evictions += len(heap) - params.pool_limit
            evicted_min = min(evicted_min, heap[params.pool_limit][0])
            del heap[params.pool_limit:]

    state = np.empty(n, dtype=np.int8)
    state[perm] = incumbent_state.astype(np.int8)
    energy = model.energy(state)
    optimal = admissible and evictions == 0 and not timed_out
    lower_bound = -np.inf
    if admissible:
        lower_bound = min([energy, evicted_min] + [entry[0] for entry in heap])
    return BBResult(state=state, energy=energy, optimal=optimal, expansions=expansions,
                    evictions=evictions, timed_out=timed_out, lower_bound=lower_bound)
