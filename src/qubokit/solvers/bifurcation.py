"""Simulated bifurcation: Hamilton equations for quartic oscillators.

Semi-implicit Euler integration (momentum first, then position) of

    dq_i/dt = a0 p_i
    dp_i/dt = -[q_i^2 + a0 - a(t)] q_i - c0 (sum_j A_ij q_j + h_i)

with a(t) ramping linearly 0 -> a0.  The coupling term is minus the gradient
of the Ising objective (1/2) q.A q + h.q in the model's own coupling
operator A and fields h, so the dynamics descend the objective every engine
minimizes.  Positions breaching the cap are clipped with momenta zeroed
(inelastic walls); final spins are sign(q), sign(0)=+1.

``integrate`` computes in its operator's dtype (float32 or wider): it casts
Q, P, h and the a(t) schedule to that dtype and takes every scalar as a
Python float, so each ufunc runs one loop of that dtype, and a float64
caller gets float64 blocks and the float64 bits.  ``solve_sbm`` runs it
under ``run_replicas``, which casts the coupling operator and h to float32
once per solve (refusing a model whose ``field_scale`` float32 cannot hold)
and casts each replica's float64 uniform draws, its Q row then its P row,
into float32 blocks; the schedule is built in float64 and cast by
``integrate``, so SBM integrates in single precision.  c0 is resolved in
float64, and the reported energies are the model's float64 energies of
sign(q), which ``run_replicas`` takes from the final Q.

The (replicas, n) positions and momenta are held in the memory order the
coupling operator's product wants (``block_order``): spin-major (Fortran)
when the operator is CSR, C order when it is dense.  Every step runs in
place on buffers allocated once (only a CSR product returns a new block), in
the arithmetic order of the equations above, so the results do not depend on
the layout.  h is added from a block in that order filled once, so no step
broadcasts it; -(Q^2 + a0 - a) is computed as a - (Q^2 + a0), and
-c0 (Q A + h) as (-c0) (Q A + h), which IEEE subtraction and multiplication
make the same bits.

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

from ..model import IsingModel, block_order, block_product
from .common import SampleSet, SbmParams, run_replicas
from .eigen import eig_extreme


def resolve_c0(model: IsingModel) -> float:
    """Auto c0 = -1 / lambda_min of the model's coupling operator A.

    Falls back to 1.0 when A has no negative bottom eigenvalue
    (coupling-free models).
    """
    lam_min = eig_extreme(model.coupling_operator(), "min")
    return -1.0 / lam_min if lam_min < -1e-12 else 1.0


def integrate(A, h, Q, P, dt: float, a_schedule, a0: float, c0: float,
              q_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Core symplectic loop on the coupling operator A and fields h;
    exposed for integrator-invariant checks.

    Every array, h and the schedule included, is taken in the operator's
    dtype (float32 or wider): Q and P are (replicas, n) blocks updated in
    place when they are of that dtype in ``block_order(A)``, else copied
    first; the final (Q, P) are returned either way.  The scalars enter as
    Python floats, so the loops run in that dtype too.
    """
    dtype, order = np.result_type(A.dtype, np.float32), block_order(A)
    Q = np.asarray(Q, dtype=dtype, order=order)
    P = np.asarray(P, dtype=dtype, order=order)
    dt, a0, c0, q_cap = float(dt), float(a0), float(c0), float(q_cap)
    W = np.empty_like(Q)                  # work block
    F = np.empty_like(Q)                  # dense product buffer
    H = np.empty_like(Q)                  # h in every row
    H[...] = h
    keep = np.empty(Q.shape, dtype=bool, order=order)
    step = dt * a0
    for a_t in np.asarray(a_schedule, dtype=dtype):
        # P += dt * (-(Q * Q + a0 - a_t) * Q - c0 * (Q @ A + h))
        np.multiply(Q, Q, out=W)
        W += a0
        np.subtract(a_t, W, out=W)        # a - b is -(b - a) bit for bit
        W *= Q
        AQ = block_product(Q, A, F)
        AQ += H
        AQ *= -c0
        W += AQ
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
        return integrate(A, h, Q, P, params.dt, a_schedule, params.a0, c0, params.q_cap)[0]

    # each replica draws its Q row, then its P row, from its stream
    return run_replicas(model, params, np.float32,
                        (lambda g, n: g.uniform(-amp, amp, size=n),) * 2, bifurcate)
