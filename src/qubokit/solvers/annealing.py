"""Simulated annealing with single-spin-flip Metropolis sweeps.

Spins are updated in fixed index order within each sweep, vectorized across
replicas; flipping spin i changes the energy by dE = -2 s_i f_i where
f = h + A s is the local field, and accepted flips update neighbor fields
in O(degree).  Temperature decays geometrically from T_init to T_final.
Each replica reports the best state seen along its trajectory.
"""

from __future__ import annotations

import numpy as np

from ..model import IsingModel
from .common import SampleSet, SaParams, make_sampleset, replica_streams

# Uniform draws are pre-generated in chunks of this many sweeps per replica
# (stream order is unchanged; chunking only batches generator calls).
_CHUNK_TARGET = 8192


def solve_sa(model: IsingModel, params: SaParams) -> SampleSet:
    params.validate()
    n, R = model.n, params.replicas
    indptr, indices, data = model.neighbor_lists()

    T_init = params.T_init if params.T_init is not None else 2.0 * max(model.field_scale, 1e-12)
    T_final = params.T_final if params.T_final is not None else 1e-3 * T_init
    sweeps = params.sweeps
    if sweeps > 1:
        ratio = (T_final / T_init) ** (1.0 / (sweeps - 1))
        temps = T_init * ratio ** np.arange(sweeps)
    else:
        temps = np.array([T_init])

    streams = replica_streams(params.seed, R)
    S = np.stack([2 * g.integers(0, 2, size=n) - 1 for g in streams]).astype(np.float64)
    A = model.coupling_operator()
    F = S @ A + model.h

    E = model.energies(S) - model.offset
    best_E = E.copy()
    best_S = S.copy()

    chunk = max(1, _CHUNK_TARGET // max(n, 1))
    sweep = 0
    while sweep < sweeps:
        block = min(chunk, sweeps - sweep)
        U = np.stack([g.random((block, n)) for g in streams])  # (R, block, n)
        for b in range(block):
            T = temps[sweep + b]
            for i in range(n):
                dE = -2.0 * S[:, i] * F[:, i]
                accept = U[:, b, i] < np.exp(np.minimum(-dE / T, 0.0))
                acc = np.nonzero(accept)[0]
                if acc.size == 0:
                    continue
                S[acc, i] *= -1.0
                E[acc] += dE[acc]
                nbr = indices[indptr[i]:indptr[i + 1]]
                vals = data[indptr[i]:indptr[i + 1]]
                if nbr.size:
                    F[np.ix_(acc, nbr)] += 2.0 * np.outer(S[acc, i], vals)
            improved = E < best_E
            if np.any(improved):
                best_E[improved] = E[improved]
                best_S[improved] = S[improved]
        sweep += block

    return make_sampleset(model, best_S.astype(np.int8), params.seed)
