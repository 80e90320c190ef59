"""Domain conversions: QUBO <-> Ising, binary <-> spin, cubic reduction.

``to_ising`` is the one normaliser from any model type to the Ising form the
solvers take, paired with a ``Lift`` back to the input's own variables.

All conversions are done by exact polynomial expansion of the variable maps
x_i = (1 + s_i) / 2 and s_i = 2 x_i - 1, with every constant folded into the
model offset, so converted models agree in energy on all states (not merely
up to an affine constant).

The QUBO <-> Ising conversions are array code with a fixed summation order:
each field or diagonal entry adds its contributions in the order of one
pass over the sorted terms (entries where the variable is the column, then
its diagonal, then entries where it is the row), and the offset adds them
left to right, so the results are bitwise those of that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import UnsupportedOrderError, ValidationError
from .model import (
    BINARY_DOMAIN,
    SPIN_DOMAIN,
    HuboModel,
    IsingModel,
    QuboModel,
    ReductionMap,
    as_spins,
    spins_to_bits,
)

__all__ = [
    "qubo_to_ising",
    "ising_to_qubo",
    "reduce_cubic",
    "hubo_to_spin_domain",
    "to_ising",
    "Lift",
]


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Convert a QUBO to an Ising model under x_i = (1 + s_i) / 2.

    Each Q_ij x_i x_j expands to Q_ij (1 + s_i)(1 + s_j) / 4 and each
    diagonal Q_ii x_i to Q_ii (1 + s_i) / 2, so output energies equal input
    energies on all mapped states.
    """
    diag = q.rows == q.cols
    off = ~diag
    # Each term's share of its fields and of the offset.
    share = np.where(diag, q.values / 2.0, q.values / 4.0)
    r, c, quarter = q.rows[off], q.cols[off], share[off]
    # On sorted terms, field i collects its column entries (rows < i), then
    # its diagonal, then its row entries: the order of one pass over the terms.
    h = np.zeros(q.n)
    np.add.at(h, c, quarter)
    np.add.at(h, q.rows[diag], share[diag])
    np.add.at(h, r, quarter)
    return IsingModel.from_arrays(q.n, r, c, quarter, h=h, offset=_running_sum(q.offset, share))


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Convert an Ising model to a QUBO under s_i = 2 x_i - 1."""
    diag = np.zeros(m.n)
    np.subtract.at(diag, m.cols, 2.0 * m.values)
    np.subtract.at(diag, m.rows, 2.0 * m.values)
    diag += 2.0 * m.h
    offset = _running_sum(m.offset, m.values) - float(np.sum(m.h))
    lin = np.flatnonzero(diag != 0.0)
    return QuboModel.from_arrays(m.n, np.concatenate([m.rows, lin]),
                                 np.concatenate([m.cols, lin]),
                                 np.concatenate([4.0 * m.values, diag[lin]]), offset=offset)


def _running_sum(start: float, parts: np.ndarray) -> float:
    """start + parts[0] + parts[1] + ..., added left to right (np.sum is
    pairwise and can differ in the last bits)."""
    return float(np.cumsum(np.concatenate([[start], parts]))[-1])


def reduce_cubic(h: HuboModel) -> tuple[IsingModel, ReductionMap]:
    """Reduce a spin HUBO of order <= 3 to an Ising model with auxiliaries.

    Every cubic term K s_i s_j s_k gets one auxiliary spin through the gadget

        +-(s_i s_j s_k) -> 3 +- (s_i + s_j + s_k + 2 s_aux)
                           + 2 s_aux (s_i + s_j + s_k)
                           + s_i s_j + s_j s_k + s_i s_k,

    scaled by |K|, with the sign chosen by sign(K).  Minimizing over the
    auxiliary reproduces the cubic value exactly for all 8 assignments, so
    the recorded affine relation is scale 1, shift 0.  Quadratic, linear and
    constant terms pass through unchanged, and then per non-zero cubic term
    come its couplings (i, aux), (j, aux), (k, aux), (i, j), (j, k), (i, k):
    repeated entries are summed as in one pass over the sorted terms.
    """
    if h.domain != SPIN_DOMAIN:
        raise ValidationError("cubic reduction expects a spin-domain HUBO")
    blocks = {idx.shape[1]: (idx, c) for idx, c in h.blocks}
    order = max(blocks, default=0)
    if order > 3:
        raise UnsupportedOrderError(f"reduction supports order <= 3, model has order {order}")
    empty = (np.zeros((0, 3), dtype=np.int64), np.zeros(0))
    constant = blocks.get(0, empty)[1]
    lin, lin_c = blocks.get(1, empty)
    quad, quad_c = blocks.get(2, empty)
    cubic, coeff = blocks.get(3, empty)
    keep = coeff != 0.0
    cubic, coeff = cubic[keep], coeff[keep]
    w = np.abs(coeff)
    sgn = np.where(coeff > 0, 1.0, -1.0)
    aux = h.n + np.arange(cubic.shape[0])
    fields = np.zeros(h.n + aux.size)
    np.add.at(fields, lin[:, 0], lin_c)
    np.add.at(fields, cubic.ravel(), np.repeat(w * sgn, 3))
    fields[aux] = 2.0 * w * sgn
    i, j, k = cubic.T
    rows = np.concatenate([quad[:, 0], np.stack([i, j, k, i, j, i], axis=1).ravel()])
    cols = np.concatenate([quad[:, 1], np.stack([aux, aux, aux, j, k, k], axis=1).ravel()])
    values = np.concatenate([quad_c, np.stack([2.0 * w] * 3 + [w] * 3, axis=1).ravel()])
    reduced = IsingModel.from_arrays(h.n + aux.size, rows, cols, values, h=fields,
                                     offset=_running_sum(0.0, np.concatenate([constant, 3.0 * w])))
    rmap = ReductionMap(original_n=h.n,
                        aux_bindings=tuple(zip(aux.tolist(), map(tuple, cubic.tolist()))))
    return reduced, rmap


def hubo_to_spin_domain(h: HuboModel) -> HuboModel:
    """Expand a binary-domain HUBO into the equivalent spin-domain HUBO.

    Each product of bits expands through x_i = (1 + s_i) / 2 into 2^k spin
    monomials of order <= k, so the polynomial order never grows; they come
    term by term, then by subset, so sums run as one pass over the terms.
    """
    if h.domain == SPIN_DOMAIN:
        return h
    blocks = []
    for idx, c in h.blocks:
        k = idx.shape[1]
        base = c / 2.0 ** k
        for r in range(k + 1):
            subsets = np.array(list(combinations(range(k), r)), dtype=np.int64)
            m = idx.shape[0] * subsets.shape[0]
            blocks.append((idx[:, subsets].reshape(m, r), np.repeat(base, subsets.shape[0])))
    return HuboModel.from_arrays(h.n, SPIN_DOMAIN, blocks, max_order=h.max_order)


@dataclass(frozen=True)
class Lift:
    """Maps a state of ``to_ising``'s output back to the input model's
    variables: through ``reduction`` (HUBO inputs only), then to bits if
    ``binary``."""

    binary: bool
    reduction: ReductionMap | None = None

    def __call__(self, state) -> np.ndarray:
        s = self.reduction.lift(state) if self.reduction is not None else as_spins(state)
        return spins_to_bits(s) if self.binary else s


def to_ising(model) -> tuple[IsingModel, Lift]:
    """Ising form of any model (an Ising input is returned as the same
    object), with the lift of its states back to the input's domain."""
    if isinstance(model, IsingModel):
        return model, Lift(binary=False)
    if isinstance(model, QuboModel):
        return qubo_to_ising(model), Lift(binary=True)
    if isinstance(model, HuboModel):
        reduced, rmap = reduce_cubic(hubo_to_spin_domain(model))
        return reduced, Lift(binary=model.domain == BINARY_DOMAIN, reduction=rmap)
    raise ValidationError(f"unsupported model type {type(model).__name__}")
