"""Shared solver types: samples, parameter records, and the replica driver.

``run_replicas`` is the one place the replica samplers (SA, PA, SBM) set up
and score their replicas.  Replica r of a solver seeded with ``seed`` always
draws from the Philox stream ``rng_stream(seed, r)``, so results are
independent of how replicas are scheduled and bitwise reproducible for a
fixed (model, params, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ValidationError, check_count, check_finite_real, is_finite_real
from ..generators import rng_stream
from ..model import IsingModel, block_order, sign_pm


class Sample(NamedTuple):
    state: np.ndarray
    energy: float
    replica: int


@dataclass
class SampleSet:
    """Seeded, replica-indexed ensemble of (state, energy), best-first."""

    samples: list[Sample]
    seed: int | None

    @property
    def replica_count(self) -> int:
        return len(self.samples)

    @property
    def best(self) -> Sample:
        return self.samples[0]

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def __len__(self) -> int:
        return len(self.samples)


def make_sampleset(model: IsingModel, states: np.ndarray, seed) -> SampleSet:
    """Assemble a SampleSet from per-replica final states.

    Energies are re-evaluated through the model in one batch, and a row's
    energy does not depend on the batch, so every recorded energy equals
    ``model.energy`` of its state exactly; ordering is ascending by energy
    with replica index as the stable tie-break.
    """
    states = np.asarray(states, dtype=np.int8)
    energies = model.energies(states)
    order = np.argsort(energies, kind="stable")
    samples = [Sample(states[r].copy(), float(energies[r]), int(r)) for r in order]
    return SampleSet(samples=samples, seed=seed)


def fits_dtype(name: str, value: float, dtype=np.float32):
    """Refuse a scale that ``dtype``, the precision a solver steps in, cannot
    hold: cast, it would be inf and the dynamics NaN."""
    if value > float(np.finfo(dtype).max):
        raise ValidationError(f"{name} {value:.6g} overflows {np.dtype(dtype).name}, "
                              "the precision of the solver's dynamics")


def run_replicas(model: IsingModel, params, dtype, draws, kernel) -> SampleSet:
    """Run the ``params.replicas`` replicas of a sampler and score them.

    The coupling operator and h are cast to ``dtype`` (a model whose
    ``field_scale`` that dtype cannot hold is refused).  Replica r draws
    from ``rng_stream(params.seed, r)``: each callable of ``draws`` maps a
    stream and the spin count to the replica's row of one (replicas, n)
    block of ``dtype`` in the operator's ``block_order``, and a replica's
    draws are made in the order of ``draws``.  ``kernel(A, h, *blocks,
    streams)`` steps the blocks and returns its final (replicas, n) block,
    whose sign (sign(0) = +1) is each replica's spins.  The driver signs
    that block once into int8 and drops the blocks and the cast operator
    before ``make_sampleset`` scores the spins, so the scoring's
    temporaries do not stack on the dynamics' arrays.
    """
    fits_dtype("field scale", model.field_scale, dtype)
    A = model.coupling_operator().astype(dtype, copy=False)
    h = model.h.astype(dtype, copy=False)
    streams = [rng_stream(params.seed, r) for r in range(params.replicas)]
    blocks = [np.empty((params.replicas, model.n), dtype, block_order(A)) for _ in draws]
    for r, stream in enumerate(streams):
        for block, draw in zip(blocks, draws):
            block[r] = draw(stream, model.n)
    spins = sign_pm(kernel(A, h, *blocks, streams))
    del A, h, blocks
    return make_sampleset(model, spins, params.seed)


# The largest B&B leaf: its table of every leaf state holds 2^leaf_size rows
# of leaf_size float64 (168 MB at 20)
MAX_LEAF_SIZE = 20


@dataclass
class SaParams:
    """Simulated annealing: Metropolis sweeps with geometric cooling."""

    sweeps: int = 1000
    T_init: float | None = None      # None: 2 * model field scale
    T_final: float | None = None     # None: 1e-3 * resolved T_init
    replicas: int = 32
    seed: int = 0

    def validate(self):
        check_count("sweeps", self.sweeps)
        check_count("replicas", self.replicas)
        for name in ("T_init", "T_final"):
            if getattr(self, name) is not None:
                check_finite_real(name, getattr(self, name), positive=True)


@dataclass
class PaParams:
    """Parallel annealing: straight-through gradient descent with momentum.

    lambda0 None resolves to max_i (|h_i| + sum_j |J_ij|); the ramp
    lambda(t) = lambda0 * (1 - t / steps) decreases to zero.
    """

    steps: int = 1000
    learning_rate: float = 0.05
    momentum: float = 0.9
    lambda0: float | None = None
    replicas: int = 32
    seed: int = 0

    def validate(self):
        check_count("steps", self.steps)
        check_finite_real("learning_rate", self.learning_rate, positive=True)
        fits_dtype("learning_rate", self.learning_rate)
        if not (is_finite_real(self.momentum) and 0 <= self.momentum < 1):
            raise ValidationError("momentum must lie in [0, 1)")
        if self.lambda0 is not None:
            check_finite_real("lambda0", self.lambda0, positive=True)
            fits_dtype("lambda0", self.lambda0)
        check_count("replicas", self.replicas)


@dataclass
class SbmParams:
    """Simulated bifurcation: Hamilton equations with a linear a(t) ramp.

    c0 None resolves to -1 / lambda_min of the model's coupling operator,
    from ``eig_extreme``: dense ``eigvalsh`` up to n=512, a
    seeded numpy two-pass Lanczos above that (about five vectors of n
    float64, no scipy solver), and the Gershgorin bound if Lanczos does
    not converge.
    """

    steps: int = 10_000
    dt: float = 0.01
    a0: float = 1.0
    c0: float | None = None
    q_cap: float = 1.0
    init_noise: float = 1.0
    replicas: int = 32
    seed: int = 0

    def validate(self):
        check_count("steps", self.steps)
        if self.c0 is not None:
            check_finite_real("c0", self.c0, positive=True)
            fits_dtype("c0", self.c0)
        for name in ("dt", "a0", "q_cap", "init_noise"):
            check_finite_real(name, getattr(self, name), positive=True)
            fits_dtype(name, getattr(self, name))
        fits_dtype("dt * a0", self.dt * self.a0)
        check_count("replicas", self.replicas)


@dataclass
class BBParams:
    """Branch & bound configuration.

    ``bound_kind``: ``base`` (prefix energy), ``spd`` (folded SPD
    relaxation score at the whole matrix's shift), ``spd_admissible`` (the
    spherical bound: the relaxation maximised over the shift, a true lower
    bound that prunes exactly and certifies ``BBResult.lower_bound``).  The
    SPD kinds read one eigendecomposition of the free block per depth.
    ``leaf_size`` (at most ``MAX_LEAF_SIZE``) closes nodes by exact
    enumeration once that many free variables remain.  ``pool_limit`` caps
    each level of the search: before a depth is expanded, only its
    ``pool_limit`` lowest bounds are kept, so a level never holds more than
    that many nodes and its children at most twice that.
    """

    bound_kind: str = "spd_admissible"
    pool_limit: int = 2 ** 20
    time_limit: float | None = None
    leaf_size: int = 12

    def validate(self):
        if self.bound_kind not in ("base", "spd", "spd_admissible"):
            raise ValidationError(f"unknown bound_kind {self.bound_kind!r}")
        check_count("pool_limit", self.pool_limit)
        if self.time_limit is not None:
            check_finite_real("time_limit", self.time_limit, positive=True)
        check_count("leaf_size", self.leaf_size)
        if self.leaf_size > MAX_LEAF_SIZE:
            raise ValidationError(f"leaf_size must be <= {MAX_LEAF_SIZE}, got {self.leaf_size}")


def params_from_dict(solver_id: str, data: dict, **defaults):
    """Parameter record of a solver from a dict, rejecting unknown keys; each
    non-None ``defaults`` entry fills a record field that ``data`` leaves unset."""
    from . import SOLVERS  # imported here: the package imports every solver module

    if solver_id not in SOLVERS:
        raise ValidationError(f"unknown solver id {solver_id!r}")
    cls = SOLVERS[solver_id].params
    known = {f.name for f in dataclasses.fields(cls)} if cls is not None else set()
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown {solver_id} parameters: {sorted(unknown)}")
    if cls is None:
        return None
    fill = {k: v for k, v in defaults.items() if k in known and k not in data and v is not None}
    params = cls(**data, **fill)
    params.validate()
    return params
