"""Simulated bifurcation: Hamilton equations for quartic oscillators.

Semi-implicit Euler integration (momentum first, then position) of

    dq_i/dt = a0 p_i
    dp_i/dt = -[q_i^2 + a0 - a(t)] q_i + c0 (sum_j B_ij q_j + g_i)

with a(t) ramping linearly 0 -> a0.  The dynamics drive q toward maximizing
its coupling term, so the solver feeds (B, g) = (-A, -h): all engines then
minimize the same Ising objective.  Positions breaching the cap are clipped
with momenta zeroed (inelastic walls); final spins are sign(q), sign(0)=+1.

``integrate`` computes in its operator's dtype (float32 or wider): it casts
Q, P, g and the a(t) schedule to that dtype and takes every scalar as a
Python float, so each ufunc runs one loop of that dtype, and a float64
caller gets float64 blocks and the float64 bits.  ``solve_sbm`` runs it
under ``run_replicas``, which casts the coupling operator and h to float32
once per solve (refusing a model whose ``field_scale`` float32 cannot hold)
and casts each replica's float64 uniform draws, its Q row then its P row,
into float32 blocks; the schedule is built in float64 and cast by
``integrate``, so SBM integrates in single precision.  c0 is resolved in
float64, and the reported energies are the model's float64 energies of
sign(q).

The (replicas, n) positions and momenta are held in the memory order the
coupling operator's product wants (``block_order``): spin-major (Fortran)
when the operator is CSR, C order when it is dense.  Every step runs in
place on buffers allocated once (only a CSR product returns a new block), in
the arithmetic order of the equations above, so the results do not depend on
the layout.  g is added from a block in that order filled once, so no step
broadcasts it, and -(Q^2 + a0 - a) is computed as a - (Q^2 + a0), which
IEEE subtraction makes the same bits.

The walls run on every step without a test or a boolean index: the mask
keep = |Q| <= q_cap is taken before Q is clipped, and P *= keep zeroes the
momenta at the wall.  Where P was negative that leaves -0.0, not 0.0.  No Q
bit moves for it: such a Q sits at +-q_cap, (dt a0) P adds a signed zero to
it until P turns non-zero, and P + w is w for any non-zero w whatever the
sign of P's zero.  One P += 0.0 after the last step turns the remaining
-0.0 into 0.0, so the final momenta are the bits of zeroing by index.
"""

from __future__ import annotations

import numpy as np

from ..model import IsingModel, block_order, block_product, sign_pm
from .common import SampleSet, SbmParams, run_replicas
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
    """Core symplectic loop; exposed for integrator-invariant checks.

    Every array, g and the schedule included, is taken in the operator's
    dtype (float32 or wider): Q and P are (replicas, n) blocks updated in
    place when they are of that dtype in ``block_order(B)``, else copied
    first; the final (Q, P) are returned either way.  The scalars enter as
    Python floats, so the loops run in that dtype too.
    """
    dtype, order = np.result_type(B.dtype, np.float32), block_order(B)
    Q = np.asarray(Q, dtype=dtype, order=order)
    P = np.asarray(P, dtype=dtype, order=order)
    g = np.asarray(g, dtype=dtype)
    dt, a0, c0, q_cap = float(dt), float(a0), float(c0), float(q_cap)
    W = np.empty_like(Q)                  # work block
    F = np.empty_like(Q)                  # dense product buffer
    G = np.empty_like(Q)                  # g in every row
    G[...] = g
    keep = np.empty(Q.shape, dtype=bool, order=order)
    step = dt * a0
    for a_t in np.asarray(a_schedule, dtype=dtype):
        # P += dt * (-(Q * Q + a0 - a_t) * Q + c0 * (Q @ B + g))
        np.multiply(Q, Q, out=W)
        W += a0
        np.subtract(a_t, W, out=W)        # a - b is -(b - a) bit for bit
        W *= Q
        BQ = block_product(Q, B, F)
        BQ += G
        BQ *= c0
        W += BQ
        W *= dt
        P += W
        # Q += (dt * a0) * P
        np.multiply(P, step, out=W)
        Q += W
        np.abs(Q, out=W)
        np.less_equal(W, q_cap, out=keep)
        np.clip(Q, -q_cap, q_cap, out=Q)
        np.multiply(P, keep, out=P)
    P += 0.0                              # -0.0 from the walls to 0.0
    return Q, P


def solve_sbm(model: IsingModel, params: SbmParams) -> SampleSet:
    params.validate()
    c0 = params.c0 if params.c0 is not None else resolve_c0(model)
    amp = params.init_noise
    a_schedule = np.linspace(0.0, params.a0, params.steps)

    def bifurcate(A, h, Q, P, streams):
        Q, P = integrate(-A, -h, Q, P, params.dt, a_schedule, params.a0, c0, params.q_cap)
        return sign_pm(Q)

    # each replica draws its Q row, then its P row, from its stream
    return run_replicas(model, params, np.float32,
                        (lambda g, n: g.uniform(-amp, amp, size=n),) * 2, bifurcate)
