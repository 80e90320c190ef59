"""Exact ground-state search by Gray-code enumeration.

States are visited in standard reflected-Gray-code order over bit vectors
(bit = 1 maps to spin +1, enumeration starts from the all -1 state), so
consecutive states differ by one spin flip, and ties on the minimum go to
the state that comes first in that order.

The sequence splits into blocks over the k = min(LOW_BITS, n) lowest spins:
state t of the sequence has its high spins at the Gray code of block
b = t >> k and its low spins at the Gray code of position p = t mod 2^k in
block b, run forward when b is even and reflected (p -> 2^k - 1 - p) when b
is odd.  With a fixed high part v, every low state s has energy

    E(s, v) = s . w(v) + quad_low(s) + c(v),
    w(v) = h_low + A_cross v,   c(v) = h_high . v + 1/2 v . A_high v,

a (k+2)-term dot product between the row [s | quad_low(s) | 1] of an
augmented table T, built once per call, and the column [w(v); 1; c(v)].

Most blocks cannot hold the minimum, and a first pass finds them without
scoring their states.  Since min over s of s . w = -|w|_1, every state of
block v has energy at least

    lb(v) = c(v) - |w(v)|_1 + min quad_low,

and the greedy low state s = -sign(w(v)) has the exact energy
c(v) - |w(v)|_1 + quad_low(s), read from the table.  The pass computes both
for every block, in chunks of _BOUND_CHUNK blocks built from the Gray codes
of their indices, keeps lb (8 bytes a block) and takes the least greedy
energy as the incumbent U.  Only the blocks with lb <= U + margin are
scored, where the margin, _MARGIN times the sum of |A| and |h|, lies far
above the rounding error of any of these sums.  A skipped block therefore
holds no state within the margin of the minimum.

The columns of BATCH_BLOCKS consecutive kept blocks, in ascending block
order, make one matrix W, and one product W^T T^T fills a reused
(BATCH_BLOCKS, 2^k) buffer with the energies of all their states, each row
in natural low-index order.

The first-found tie-break survives the batching without reordering the
rows: the batch minimum replaces the incumbent only when strictly lower
(batches come in sequence order), the first block of the batch that reaches
it precedes the others, and inside that block the row entries equal to it
are ranked by their position in the block's visiting order, the inverse
Gray code of the low index (reflected in odd blocks).  It survives the
skipping too: the state a one-flip-at-a-time scan would keep lies in a
kept block, so it is still the first of the kept states to reach the
minimum, and it is the state returned.
"""

from __future__ import annotations

import numpy as np

from ..errors import SizeCapError, check_count
from ..model import IsingModel

DEFAULT_CAP = 30
LOW_BITS = 12  # the (2^12, 14) table is 458 KB
BATCH_BLOCKS = 64  # the (64, 2^12) energy buffer is 2 MB
_BOUND_CHUNK = 1024  # blocks per chunk of the bound pass: (16, 1024) columns are 128 KB
_MARGIN = 1e-9  # relative to sum |A| + sum |h|


def _spin_table(k: int) -> np.ndarray:
    """(2^k, k) matrix of spin states; row b has spin +1 where bit t of b is 1."""
    raw = np.arange(2 ** k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(raw, axis=1, bitorder="little", count=k)
    return 2.0 * bits - 1.0


def _quad_table(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """1/2 s^T A s of every row s of the (2^k, k) spin table S, for a
    symmetric k x k block A with zero diagonal, built one spin at a time:
    the first 2^(t+1) rows are the first 2^t rows with s_t = -1, then the
    same rows with s_t = +1, so spin t adds -/+ its coupling to spins < t."""
    quad = np.zeros(S.shape[0])
    for t in range(S.shape[1]):
        m = 2 ** t
        cross = S[:m, :t] @ A[t, :t]
        quad[m:2 * m] = quad[:m] + cross
        quad[:m] -= cross
    return quad


def _low_table(A: np.ndarray, k: int) -> np.ndarray:
    """Augmented (2^k, k+2) table [S_low | quad_low | 1] over the k low spins."""
    table = np.empty((2 ** k, k + 2))
    S_low = table[:, :k]
    S_low[:] = _spin_table(k)
    table[:, k] = _quad_table(S_low, A[:k, :k])
    table[:, k + 1] = 1.0
    return table


def _columns(blocks: np.ndarray, A: np.ndarray, h: np.ndarray, k: int):
    """High spins V of ``blocks`` (from the Gray codes of their indices) and
    their columns w(V) = h_low + A_cross V and c(V) = h_high . V + 1/2 V . A_high V."""
    high_bits = np.arange(A.shape[0] - k, dtype=np.int64)[:, None]
    V = 2.0 * (((blocks ^ (blocks >> 1)) >> high_bits) & 1) - 1.0
    w = A[:k, k:] @ V
    w += h[:k, None]
    return V, w, h[k:] @ V + 0.5 * np.einsum("ib,ib->b", V, A[k:, k:] @ V)


def _block_bounds(A: np.ndarray, h: np.ndarray, k: int,
                  quad_low: np.ndarray) -> tuple[np.ndarray, float]:
    """The bound lb of every block, in block order, and the threshold
    U + margin above which a block cannot hold the minimum."""
    n_blocks = 2 ** (A.shape[0] - k)
    lower = np.empty(n_blocks)
    incumbent = np.inf
    bit_weights = 1 << np.arange(k, dtype=np.int64)
    for first in range(0, n_blocks, _BOUND_CHUNK):
        blocks = np.arange(first, min(first + _BOUND_CHUNK, n_blocks), dtype=np.int64)
        _, w, c = _columns(blocks, A, h, k)
        base = c - np.abs(w).sum(axis=0)
        greedy = bit_weights @ (w < 0)  # table row of s = -sign(w)
        incumbent = min(incumbent, float((base + quad_low[greedy]).min()))
        np.add(base, quad_low.min(), out=lower[first:first + blocks.size])
    return lower, incumbent + _MARGIN * (np.abs(A).sum() + np.abs(h).sum())


def solve_brute_force(model: IsingModel, cap: int = DEFAULT_CAP) -> tuple[np.ndarray, float]:
    """Exact global minimum of an Ising model (first-found on ties)."""
    check_count("cap", cap)
    n = model.n
    if n > cap:
        raise SizeCapError(
            f"brute force capped at {cap} variables (got {n}); "
            "use the heuristic solvers or branch & bound")

    A = model.coupling_matrix()
    h = model.h
    k = min(LOW_BITS, n)
    table = _low_table(A, k)
    low = np.arange(2 ** k, dtype=np.int64)
    gray_rank = np.empty_like(low)  # inverse Gray permutation
    gray_rank[low ^ (low >> 1)] = low
    lower, threshold = _block_bounds(A, h, k, table[:, k])
    kept = np.flatnonzero(lower <= threshold)
    del lower  # freed before the energy buffer is allocated

    batch = min(BATCH_BLOCKS, kept.size)
    W = np.empty((k + 2, batch))
    W[k] = 1.0
    E_buf = np.empty((batch, 2 ** k))
    best_energy = np.inf
    best_low = 0
    best_high = np.empty(n - k)

    for first in range(0, kept.size, batch):
        blocks = kept[first:first + batch]
        m = blocks.size
        V, W[:k, :m], W[k + 1, :m] = _columns(blocks, A, h, k)
        E = E_buf[:m]
        np.matmul(W[:, :m].T, table.T, out=E)
        row_min = E.min(axis=1)
        b = int(np.argmin(row_min))
        if row_min[b] < best_energy:
            best_energy = float(row_min[b])
            ties = np.flatnonzero(E[b] == row_min[b])
            rank = gray_rank[ties]
            if blocks[b] % 2:
                rank = 2 ** k - 1 - rank
            best_low = int(ties[np.argmin(rank)])
            best_high = V[:, b].copy()

    state = np.empty(n, dtype=np.int8)
    state[:k] = table[best_low, :k]
    state[k:] = best_high
    return state, model.energy(state)
