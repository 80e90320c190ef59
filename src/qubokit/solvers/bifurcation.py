"""Simulated bifurcation: Hamilton equations for quartic oscillators.

Semi-implicit Euler integration (momentum first, then position) of

    dq_i/dt = a0 p_i
    dp_i/dt = -[q_i^2 + a0 - a(t)] q_i + c0 (sum_j B_ij q_j + g_i)

with a(t) ramping linearly 0 -> a0.  The dynamics drive q toward maximizing
its coupling term, so the solver feeds (B, g) = (-A, -h): all engines then
minimize the same Ising objective.  Positions breaching the cap are clipped
with momenta zeroed (inelastic walls); final spins are sign(q), sign(0)=+1.
"""

from __future__ import annotations

import numpy as np

from ..model import IsingModel, sign_pm
from .common import SampleSet, SbmParams, make_sampleset, replica_streams
from .eigen import eig_extreme


def resolve_c0(model: IsingModel) -> float:
    """Auto c0 = 1 / lambda_max of the dynamics coupling matrix (-A).

    Falls back to 1.0 when the matrix has no positive top eigenvalue
    (coupling-free models).
    """
    if model.num_couplings == 0:
        return 1.0
    lam_max = eig_extreme(-model.coupling_operator(), "max")
    return 1.0 / lam_max if lam_max > 1e-12 else 1.0


def integrate(B, g, Q, P, dt: float, a_schedule, a0: float, c0: float,
              q_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Core symplectic loop; exposed for integrator-invariant checks."""
    for a_t in a_schedule:
        P += dt * (-(Q * Q + a0 - a_t) * Q + c0 * (Q @ B + g))
        Q += dt * a0 * P
        over = np.abs(Q) > q_cap
        if np.any(over):
            np.clip(Q, -q_cap, q_cap, out=Q)
            P[over] = 0.0
    return Q, P


def solve_sbm(model: IsingModel, params: SbmParams) -> SampleSet:
    params.validate()
    n, R, T = model.n, params.replicas, params.steps
    c0 = params.c0 if params.c0 is not None else resolve_c0(model)

    B = -model.coupling_operator()
    g = -model.h
    amp = params.init_noise
    streams = replica_streams(params.seed, R)
    Q = np.stack([s.uniform(-amp, amp, size=n) for s in streams])
    P = np.stack([s.uniform(-amp, amp, size=n) for s in streams])

    a_schedule = np.linspace(0.0, params.a0, T)
    Q, P = integrate(B, g, Q, P, params.dt, a_schedule, params.a0, c0, params.q_cap)

    return make_sampleset(model, sign_pm(Q), params.seed)
