"""Parallel annealing: analog spins driven by a straight-through gradient.

The time-dependent cost lambda(t) * (1/2) sum x_i^2 + H_target is descended
with the target gradient evaluated at binarized spins,

    grad = lambda(t) * x + A sign(x) + h,       sign(0) = +1,

using momentum m <- alpha m - eta grad, then x <- clip(x + m, -1, 1).
lambda(t) = lambda0 (1 - t / T) decreases linearly to zero; the final state
of each replica is sign(x).
"""

from __future__ import annotations

import numpy as np

from ..model import IsingModel, sign_pm
from .common import PaParams, SampleSet, make_sampleset, replica_streams


def resolve_lambda0(model: IsingModel) -> float:
    """Auto lambda0 = max_i (|h_i| + sum_j |J_ij|)."""
    return max(model.field_scale, 1e-12)


def solve_pa(model: IsingModel, params: PaParams) -> SampleSet:
    params.validate()
    n, R, T = model.n, params.replicas, params.steps
    lam0 = params.lambda0 if params.lambda0 is not None else resolve_lambda0(model)
    eta, alpha = params.learning_rate, params.momentum

    streams = replica_streams(params.seed, R)
    X = np.stack([g.uniform(-1.0, 1.0, size=n) for g in streams])
    M = np.zeros_like(X)
    A = model.coupling_operator()
    h = model.h

    for t in range(T):
        lam = lam0 * (1.0 - t / T)
        grad = lam * X + sign_pm(X).astype(np.float64) @ A + h
        M = alpha * M - eta * grad
        X = np.clip(X + M, -1.0, 1.0)

    return make_sampleset(model, sign_pm(X), params.seed)
