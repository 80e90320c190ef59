"""Simulated annealing with single-spin-flip Metropolis sweeps.

Each sweep visits the colour classes of the coupling graph
(``IsingModel.colour_classes``: greedy colouring in index order) in colour
order, vectorized across replicas.  Flipping spin i changes the energy by
dE = -2 s_i f_i, where f = h + A s is the local field.  No two spins of a
class are coupled, so no flip in a class changes the field of another spin
in it: one vectorized Metropolis step over the whole class accepts exactly
what single-spin steps over its spins in any order would accept, and a sweep
equals a sequential sweep in class order (Isakov et al., Comput. Phys.
Commun. 192, 2015).  Accepted flips update the fields with one operator
product per class, F += dS @ A[C], for a dense or a CSR operator alike.  On
a complete graph every class is a single spin and the order is the index
order.

The (replicas, n) states and fields are held in the memory order the
coupling operator's product wants (``block_order``), as in parallel
annealing and simulated bifurcation: C order for a dense operator,
spin-major for CSR.  On a spin-major dS scipy runs dS @ A[C] as the CSC
product of A[C]^T on the C-contiguous dS^T, without a copy, and adds each
field's terms in ascending class order.  A class's energy increments are
summed over C-contiguous rows in either layout: a strided row sum adds them
in another order, and E picks each replica's best state.

Consecutive one-spin classes of a dense operator (every class of a complete
graph, the tail classes of a dense G(n, p)) are stepped in runs of at most
``_RUN`` spins with delayed field updates (Alvarez et al., SC 2008).  A run C
copies its fields, -2 S and draws spin-major, decides spin t with the same
expressions as a class step, and adds its accepted flips D[t] only to the
fields of the spins after it in the run, one product and one addition each
(none after its last spin), so every field the run reads is the sequential
sum.  Each spin's dE goes to row t + 1 of a block whose row 0 is E and its
decision to a boolean block; after the run the rejected rows are zeroed and
one reduce down the rows gives E.  numpy reduces a C-ordered block down its
rows element by element, row after row, so E gets the sequential sum's bits;
a zero pad column keeps it so for one replica, whose lone column numpy
would otherwise sum pairwise.  Then S[:, C] += D^T and F += D^T @ A[C]: one
(R, k) @ (k, n) GEMM in place of k row updates.  The fields outside the run
therefore get the run's updates as one BLAS sum, whose last bits can differ
from the sequential sum's; on integer-valued models every sum is exact and
nothing changes, and otherwise a decision can change only where a uniform
draw lies within an ulp of its acceptance threshold.

Spin i at sweep t uses the uniform draw U[r, t, i] of replica r's stream,
whatever its class.  The draws fill one block of whole sweeps allocated per
solve, each replica's slab in place from its stream, holding at most
``_DRAW_BYTES`` over all replicas and never less than one sweep, so the
draws add a bounded amount to the (replicas, n) blocks whatever the sweep
count.  A spin flips when U < exp(dE / -T).  Where dE / -T >= 0 the
exponential is at least 1 > U, so no clamp at 0 is needed, and where it
overflows to inf the flip is accepted all the same; the sweeps run under
``np.errstate(over="ignore")`` for that.  Temperature decays geometrically
from T_init to T_final.  Each replica reports the best state seen along its
trajectory.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from ..errors import ValidationError
from ..model import IsingModel, is_sparse
from .common import SampleSet, SaParams, run_replicas

# Uniform draws are pre-generated in blocks of whole sweeps of at most this
# many bytes over all replicas, and never less than one sweep (each replica's
# stream order is unchanged; the block only batches generator calls)
_DRAW_BYTES = 2 * 2 ** 20

# Longest run of one-spin classes of a dense operator stepped as one block
_RUN = 16


def solve_sa(model: IsingModel, params: SaParams) -> SampleSet:
    params.validate()
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

    A = model.coupling_operator()
    # (spins, their operator rows, their in-run coupling block or None): a
    # class, or a run of consecutive one-spin classes of a dense operator
    steps = []
    for single, group in groupby(model.colour_classes(),
                                 key=lambda C: C.size == 1 and not is_sparse(A)):
        if not single:
            steps += [(C, A[C], None) for C in group]
            continue
        spins = np.concatenate(list(group))
        for a in range(0, spins.size, _RUN):
            C = spins[a:a + _RUN]
            # a contiguous run (every run of a complete graph) reads a view
            rows = A[C[0]:C[-1] + 1] if np.all(np.diff(C) == 1) else A[C]
            steps.append((C, rows, A[np.ix_(C, C)]))

    def anneal(A, h, S, streams):
        R, n = S.shape
        F = S @ A + h
        E = model.energies(S) - model.offset
        best_E = E.copy()
        best_S = S.astype(np.int8)      # +-1 only

        chunk = min(sweeps, max(1, _DRAW_BYTES // (8 * R * max(n, 1))))
        U = np.empty((R, chunk, n))
        sweep = 0
        with np.errstate(over="ignore"):  # exp(dE / -T) = inf accepts, as >= 1 does
            while sweep < sweeps:
                block = min(chunk, sweeps - sweep)
                for r, g in enumerate(streams):
                    g.random(out=U[r, :block])
                for b in range(block):
                    T = temps[sweep + b]
                    U_b = U[:, b]
                    for C, A_C, A_CC in steps:
                        if A_CC is not None:
                            _run_step(S, F, E, U_b, T, C, A_C, A_CC)
                            continue
                        s = S[:, C]
                        dE = -2.0 * s * F[:, C]
                        flip = U_b[:, C] < np.exp(dE / -T)
                        if not flip.any():
                            continue
                        dS = np.where(flip, -2.0 * s, 0.0)
                        S[:, C] = s + dS
                        E += np.ascontiguousarray(np.where(flip, dE, 0.0)).sum(axis=1)
                        F += dS @ A_C
                    improved = E < best_E
                    if np.any(improved):
                        best_E[improved] = E[improved]
                        best_S[improved] = S[improved]
                sweep += block
        return best_S

    return run_replicas(model, params, np.float64,
                        (lambda g, n: 2 * g.integers(0, 2, size=n) - 1,), anneal)


def _run_step(S, F, E, U_b, T, C, A_C, A_CC):
    """Metropolis steps over the run C of one-spin classes, in order, with
    the fields outside the run updated once at the end (module docstring)."""
    k, R = C.size, E.size
    Fb = F[:, C].T.copy()
    M2S = S[:, C].T * -2.0
    Ub = U_b[:, C].T.copy()
    D = np.empty_like(M2S)
    FL = np.empty((k, R), dtype=bool)
    # row 0 is E and row t + 1 spin t's dE, plus a zero pad column, so the
    # reduce below adds the rows in order (module docstring)
    X = np.zeros((k + 1, R + 1))
    X[0, :R] = E
    dEs = X[1:, :R]
    for t in range(k):
        dE = np.multiply(M2S[t], Fb[t], out=dEs[t])
        # dE / -T is -dE / T bit for bit: IEEE division is sign-symmetric
        np.less(Ub[t], np.exp(dE / -T), out=FL[t])
        np.multiply(M2S[t], FL[t], out=D[t])
        if t + 1 < k:
            Fb[t + 1:] += np.multiply.outer(A_CC[t, t + 1:], D[t])
    dEs *= FL
    E[:] = np.add.reduce(X, axis=0)[:R]
    S[:, C] += D.T
    F += D.T @ A_C
