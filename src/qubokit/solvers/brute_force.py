"""Exact ground-state search by enumeration in binary order.

State t of the sequence has spin i at +1 where bit i of t is set and at -1
where it is clear, so the sequence starts from the all -1 state, and ties on
the minimum go to the smallest t.

The sequence splits into blocks over the k = min(LOW_BITS, n) lowest spins:
state t = b 2^k + p has its high spins at the bits of block b and its low
spins at the bits of position p.  With a fixed high part v, every low state
s has energy

    E(s, v) = s . w(v) + quad_low(s) + c(v),
    w(v) = h_low + A_cross v,   c(v) = h_high . v + 1/2 v . A_high v,

a (k+2)-term dot product between the row [s | quad_low(s) | 1] of an
augmented table T, built once per call, and the column [w(v); 1; c(v)].
``_best_rows`` scores a matrix W of such columns with one product W^T T^T
and keeps each column's first best row; branch & bound closes its leaves
with it too.

Most blocks cannot hold the minimum, and a first pass finds them without
scoring their states.  Since min over s of s . w = -|w|_1, every state of
block v has energy at least

    lb(v) = c(v) - |w(v)|_1 + min quad_low,

and the greedy low state s = -sign(w(v)) has the exact energy
c(v) - |w(v)|_1 + quad_low(s), read from the table.  The pass computes both
for every block, in chunks of _BOUND_CHUNK blocks, keeps lb (8 bytes a
block) and takes the least greedy energy as the incumbent U.  Only the
blocks with lb <= U + margin are scored, where the margin, _MARGIN times
the sum of |A| and |h|, lies far above the rounding error of any of these
sums.  A skipped block therefore holds no state within the margin of the
minimum, and the first minimum in binary order lies in a kept block.

The columns of BATCH_BLOCKS consecutive kept blocks, in ascending block
order, are scored into a reused (BATCH_BLOCKS, 2^k) buffer, each row in
low-index order.  Each row's first minimum, the first row that reaches the
batch minimum and, across batches, only a strictly lower minimum give the
first minimum in binary order.
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


def _low_table(A: np.ndarray, k: int) -> np.ndarray:
    """Augmented (2^k, k+2) table [S | quad | 1] over the first k spins: row
    p has spin t at +1 where bit t of p is set, and quad = 1/2 s^T A s for
    the symmetric zero-diagonal block A[:k, :k].  Built one spin at a time:
    the first 2^(t+1) rows are the first 2^t rows with s_t = -1, then the
    same rows with s_t = +1, so spin t adds -/+ its coupling to spins < t."""
    table = np.empty((2 ** k, k + 2))
    table[0, k] = 0.0
    for t in range(k):
        m = 2 ** t
        top, bottom = table[:m], table[m:2 * m]
        bottom[:, :t] = top[:, :t]
        cross = top[:, :t] @ A[t, :t]
        bottom[:, k] = top[:, k] + cross
        top[:, k] -= cross
        top[:, t] = -1.0
        bottom[:, t] = 1.0
    table[:, k + 1] = 1.0
    return table


def _best_rows(table: np.ndarray, W: np.ndarray,
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each column [w; 1; c] of W (k+2, m), the first row [s | quad | 1]
    of ``table`` that minimises s . w + quad + c, and that energy, from the
    one product W^T T^T (into ``out``, (m, 2^k), when given)."""
    E = np.matmul(W.T, table.T, out=out)
    rows = np.argmin(E, axis=1)
    return rows, E[np.arange(rows.size), rows]


def _columns(blocks: np.ndarray, A: np.ndarray, h: np.ndarray, k: int):
    """High spins V of ``blocks`` (the bits of their indices) and their
    columns w(V) = h_low + A_cross V and c(V) = h_high . V + 1/2 V . A_high V."""
    high_bits = np.arange(A.shape[0] - k, dtype=np.int64)[:, None]
    V = 2.0 * ((blocks >> high_bits) & 1) - 1.0
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
    """Exact global minimum of an Ising model (first in binary order on ties)."""
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
        m = min(batch, kept.size - first)
        V, W[:k, :m], W[k + 1, :m] = _columns(kept[first:first + m], A, h, k)
        rows, energies = _best_rows(table, W[:, :m], E_buf[:m])
        b = int(np.argmin(energies))
        if energies[b] < best_energy:
            best_energy = float(energies[b])
            best_low = int(rows[b])
            best_high = V[:, b].copy()

    state = np.empty(n, dtype=np.int8)
    state[:k] = table[best_low, :k]
    state[k:] = best_high
    return state, model.energy(state)
