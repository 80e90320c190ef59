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
    "lift_solution",
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
    constant terms pass through unchanged.
    """
    if h.domain != SPIN_DOMAIN:
        raise ValidationError("cubic reduction expects a spin-domain HUBO")
    order = max((len(t) for t in h.term_index), default=0)
    if order > 3:
        raise UnsupportedOrderError(f"reduction supports order <= 3, model has order {order}")

    cubic = [(t, float(c)) for t, c in h.terms() if len(t) == 3 and c != 0.0]
    total_n = h.n + len(cubic)
    fields = np.zeros(total_n)
    couplings: list[tuple[int, int, float]] = []
    offset = 0.0

    for t, c in h.terms():
        if len(t) == 0:
            offset += c
        elif len(t) == 1:
            fields[t[0]] += c
        elif len(t) == 2:
            couplings.append((t[0], t[1], c))

    bindings = []
    for pos, ((i, j, k), coeff) in enumerate(cubic):
        aux = h.n + pos
        w = abs(coeff)
        sgn = 1.0 if coeff > 0 else -1.0
        offset += 3.0 * w
        for v in (i, j, k):
            fields[v] += w * sgn
            couplings.append((v, aux, 2.0 * w))
        fields[aux] += 2.0 * w * sgn
        couplings.append((i, j, w))
        couplings.append((j, k, w))
        couplings.append((i, k, w))
        bindings.append((aux, (i, j, k)))

    reduced = IsingModel.from_terms(total_n, h=fields, couplings=couplings, offset=offset)
    rmap = ReductionMap(original_n=h.n, aux_bindings=tuple(bindings))
    return reduced, rmap


def lift_solution(rmap: ReductionMap, reduced) -> np.ndarray:
    """Project a reduced-model spin state back to the original variables."""
    return rmap.lift(reduced)


def hubo_to_spin_domain(h: HuboModel) -> HuboModel:
    """Expand a binary-domain HUBO into the equivalent spin-domain HUBO.

    Each product of bits expands through x_i = (1 + s_i) / 2 into 2^k spin
    monomials of order <= k, so the polynomial order never grows.
    """
    if h.domain == SPIN_DOMAIN:
        return h
    from itertools import combinations

    acc: dict[tuple[int, ...], float] = {}
    for t, c in h.terms():
        k = len(t)
        base = c / (2.0 ** k)
        for r in range(k + 1):
            for sub in combinations(t, r):
                acc[sub] = acc.get(sub, 0.0) + base
    return HuboModel.from_terms(h.n, SPIN_DOMAIN, acc.items(), max_order=h.max_order)


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
