"""Parallel annealing: analog spins driven by a straight-through gradient.

The time-dependent cost lambda(t) * (1/2) sum x_i^2 + H_target is descended
with the target gradient evaluated at binarized spins,

    grad = lambda(t) * x + A sign(x) + h,       sign(0) = +1,

using momentum m <- alpha m - eta grad, then x <- clip(x + m, -1, 1).
lambda(t) = lambda0 (1 - t / T) decreases linearly to zero; the final state
of each replica is sign(x).

The dynamics run in single precision: ``run_replicas`` casts the coupling
operator and h to float32 once per solve (refusing a model whose
``field_scale`` float32 cannot hold) and casts each replica's float64
uniform draws into its row of the float32 block, and every scalar operand
enters as a Python float, so each product and elementwise pass runs a
float32 loop.  Only sign(x) leaves the loop: the kernel returns its final
x, which ``run_replicas`` signs, lambda0 is resolved in float64, and the
reported energies are the model's float64 energies of the final spins.

The (replicas, n) state is held in the memory order the coupling operator's
product wants (``block_order``): spin-major (Fortran) when the operator is
CSR, C order when it is dense.  Every step runs in place on buffers
allocated once (only a CSR product returns a new block), in the arithmetic
order of the expressions above, so the results do not depend on the layout.
h is added from a block in that order filled once, so no step broadcasts it.
"""

from __future__ import annotations

import numpy as np

from ..model import IsingModel, block_product
from .common import PaParams, SampleSet, run_replicas


def resolve_lambda0(model: IsingModel) -> float:
    """Auto lambda0 = max_i (|h_i| + sum_j |J_ij|)."""
    return max(model.field_scale, 1e-12)


def solve_pa(model: IsingModel, params: PaParams) -> SampleSet:
    params.validate()
    T = params.steps
    lam0 = float(params.lambda0 if params.lambda0 is not None else resolve_lambda0(model))
    eta, alpha = float(params.learning_rate), float(params.momentum)

    def descend(A, h, X, streams):
        M = np.zeros_like(X)
        S = np.empty_like(X)      # sign(x) as +-1.0
        G = np.empty_like(X)      # gradient
        F = np.empty_like(X)      # dense product buffer
        H = np.empty_like(X)      # h in every row
        H[...] = h

        for t in range(T):
            lam = lam0 * (1.0 - t / T)
            np.greater_equal(X, 0.0, out=S)     # S = 2 [x >= 0] - 1: sign(0) = +1
            S += S
            S -= 1.0
            np.multiply(X, lam, out=G)
            G += block_product(S, A, F)
            G += H
            M *= alpha
            G *= eta
            M -= G
            X += M
            np.clip(X, -1.0, 1.0, out=X)
        return X

    return run_replicas(model, params, np.float32,
                        (lambda g, n: g.uniform(-1.0, 1.0, size=n),), descend)
