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
augmented table T, built once per call, and the column [w(v); 1; c(v)].  The
columns of BATCH_BLOCKS consecutive blocks, built together from the Gray
codes of their block indices, make one matrix W, and one product W^T T^T
fills a reused (BATCH_BLOCKS, 2^k) buffer with the energies of all their
states, each row in natural low-index order.

The first-found tie-break survives the batching without reordering the
rows: the batch minimum replaces the incumbent only when strictly lower
(batches come in sequence order), the first block of the batch that reaches
it precedes the others, and inside that block the row entries equal to it
are ranked by their position in the block's visiting order, the inverse
Gray code of the low index (reflected in odd blocks).  The result is the
state a one-flip-at-a-time scan would keep.
"""

from __future__ import annotations

import numpy as np

from ..errors import SizeCapError
from ..model import IsingModel

DEFAULT_CAP = 30
LOW_BITS = 12  # the (2^12, 14) table is 458 KB
BATCH_BLOCKS = 64  # the (64, 2^12) energy buffer is 2 MB


def _spin_table(k: int) -> np.ndarray:
    """(2^k, k) matrix of spin states; row b has spin +1 where bit t of b is 1."""
    raw = np.arange(2 ** k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(raw, axis=1, bitorder="little", count=k)
    return 2.0 * bits - 1.0


def solve_brute_force(model: IsingModel, cap: int = DEFAULT_CAP) -> tuple[np.ndarray, float]:
    """Exact global minimum of an Ising model (first-found on ties)."""
    n = model.n
    if n > cap:
        raise SizeCapError(
            f"brute force capped at {cap} variables (got {n}); "
            "use the heuristic solvers or branch & bound")

    A = model.coupling_matrix()
    h = model.h
    k = min(LOW_BITS, n)
    n_high = n - k
    n_blocks = 2 ** n_high
    batch = min(BATCH_BLOCKS, n_blocks)

    table = np.empty((2 ** k, k + 2))
    S_low = table[:, :k]
    S_low[:] = _spin_table(k)
    table[:, k] = 0.5 * np.einsum("bi,ij,bj->b", S_low, A[:k, :k], S_low)
    table[:, k + 1] = 1.0
    low = np.arange(2 ** k, dtype=np.int64)
    gray_rank = np.empty_like(low)  # inverse Gray permutation
    gray_rank[low ^ (low >> 1)] = low

    A_cross = A[:k, k:]
    A_high = A[k:, k:]
    h_high = h[k:]
    high_bits = np.arange(n_high, dtype=np.int64)[:, None]

    W = np.empty((k + 2, batch))
    W[k] = 1.0
    E = np.empty((batch, 2 ** k))
    best_energy = np.inf
    best_low = 0
    best_high = np.empty(n_high)

    for first in range(0, n_blocks, batch):
        blocks = np.arange(first, first + batch, dtype=np.int64)
        V = 2.0 * (((blocks ^ (blocks >> 1)) >> high_bits) & 1) - 1.0
        np.matmul(A_cross, V, out=W[:k])
        W[:k] += h[:k, None]
        W[k + 1] = h_high @ V + 0.5 * np.einsum("ib,ib->b", V, A_high @ V)
        np.matmul(W.T, table.T, out=E)
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
    state[:k] = S_low[best_low]
    state[k:] = best_high
    return state, model.energy(state)
