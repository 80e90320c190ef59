"""Simulated annealing with single-spin-flip Metropolis sweeps.

Each sweep visits the colour classes of the coupling graph
(``IsingModel.colour_classes``: greedy colouring in index order) in colour
order, vectorized across replicas.  Flipping spin i changes the energy by
dE = -2 s_i f_i, where f = h + A s is the local field.  No two spins of a
class are coupled, so no flip in a class changes the field of another spin
in it: one vectorized Metropolis step over the whole class accepts exactly
what single-spin steps over its spins in any order would accept, and a sweep
equals a sequential sweep in class order (Isakov et al., Comput. Phys.
Commun. 192, 2015).  Accepted flips update the fields of the replicas that
flipped with one operator product per class, F += dS[:, C] @ A[C].  On a
complete graph every class is a single spin and the order is the index order.

A one-spin class {i} of a dense operator takes a shorter step: it reads the
column views S[:, i], F[:, i] and U[:, t, i], and updates only the replicas
that flip, S[hit, i] += dS, E[hit] += dE[hit] and F[hit] += dS ⊗ A[i].  The
general step's (k, 1) @ (1, n) product and its one-term row sums compute the
same single products and additions, so states, energies and replica order
are bitwise those of the general step; only the sign of a zero in F or E,
which no decision reads differently, can differ.

Spin i at sweep t uses the uniform draw U[r, t, i] of replica r's stream,
whatever its class.  Temperature decays geometrically from T_init to
T_final.  Each replica reports the best state seen along its trajectory.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..model import IsingModel, is_sparse
from .common import SampleSet, SaParams, make_sampleset, replica_streams

# Uniform draws are pre-generated in chunks of this many sweeps per replica
# (stream order is unchanged; chunking only batches generator calls).
_CHUNK_TARGET = 8192


def solve_sa(model: IsingModel, params: SaParams) -> SampleSet:
    params.validate()
    n, R = model.n, params.replicas

    T_init = params.T_init if params.T_init is not None else 2.0 * max(model.field_scale, 1e-12)
    T_final = params.T_final if params.T_final is not None else 1e-3 * T_init
    if not T_init >= T_final:
        raise ValidationError(f"need T_init >= T_final, got T_init {T_init:g} "
                              f"and T_final {T_final:g}")
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
    sparse = is_sparse(A)
    # a one-spin class of a dense operator is held as its spin index i, so
    # S[:, i], F[:, i] and its row A[i] are views
    classes = [int(C[0]) if C.size == 1 and not sparse else C
               for C in model.colour_classes()]
    # a CSR operator keeps each class's rows transposed, so the field update
    # (A[C]^T dS^T)^T runs scipy's native CSR product, not the transpose copy
    # of dS @ csr; both add each entry's terms in ascending column order
    class_rows = [A[C].T.tocsr() if sparse else A[C] for C in classes]

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
            U_b = U[:, b]
            for C, A_C in zip(classes, class_rows):
                s = S[:, C]
                dE = -2.0 * s * F[:, C]
                flip = U_b[:, C] < np.exp(np.minimum(-dE / T, 0.0))
                if isinstance(C, int):  # one spin: touch only the replicas that flip
                    hit = np.flatnonzero(flip)
                    if hit.size:
                        dS = -2.0 * s[hit]
                        S[hit, C] += dS
                        E[hit] += dE[hit]
                        F[hit] += np.multiply.outer(dS, A_C)
                    continue
                hit = np.flatnonzero(flip.any(axis=1))
                if hit.size == 0:
                    continue
                dS = np.where(flip, -2.0 * s, 0.0)
                S[:, C] = s + dS
                E += np.where(flip, dE, 0.0).sum(axis=1)
                F[hit] += (A_C @ dS[hit].T).T if sparse else dS[hit] @ A_C
            improved = E < best_E
            if np.any(improved):
                best_E[improved] = E[improved]
                best_S[improved] = S[improved]
        sweep += block

    return make_sampleset(model, best_S.astype(np.int8), params.seed)
