"""Shared solver types: samples, parameter records, replica RNG streams.

Replica r of a solver seeded with ``seed`` always draws from the Philox
stream ``rng_stream(seed, r)``, so results are independent of how replicas
are scheduled and bitwise reproducible for a fixed (model, params, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ValidationError, check_count, check_finite_real, is_finite_real
from ..generators import rng_stream
from ..model import IsingModel


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


def replica_streams(seed, count: int) -> list[np.random.Generator]:
    return [rng_stream(seed, r) for r in range(count)]


def fits_float32(name: str, value: float):
    """Refuse a scale that float32, the precision PA and SBM step in, cannot
    hold: cast, it would be inf and the dynamics NaN."""
    if value > float(np.finfo(np.float32).max):
        raise ValidationError(f"{name} {value:.6g} overflows float32, "
                              "the precision of the PA and SBM dynamics")


def single_precision(model: IsingModel):
    """The coupling operator and fields of ``model`` cast to float32, for
    PA and SBM; a model whose ``field_scale`` float32 cannot hold is refused."""
    fits_float32("field scale", model.field_scale)
    return model.coupling_operator().astype(np.float32), model.h.astype(np.float32)


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
        if not (is_finite_real(self.momentum) and 0 <= self.momentum < 1):
            raise ValidationError("momentum must lie in [0, 1)")
        if self.lambda0 is not None:
            check_finite_real("lambda0", self.lambda0, positive=True)
            fits_float32("lambda0", self.lambda0)
        check_count("replicas", self.replicas)


@dataclass
class SbmParams:
    """Simulated bifurcation: Hamilton equations with a linear a(t) ramp.

    c0 None resolves to 1 / lambda_max of the coupling matrix driving the
    dynamics, from ``eig_extreme``: dense ``eigvalsh`` up to n=512, seeded
    Lanczos above that, and the Gershgorin bound if Lanczos does not
    converge.
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
        check_finite_real("dt", self.dt, positive=True)
        check_finite_real("a0", self.a0, positive=True)
        if self.c0 is not None:
            check_finite_real("c0", self.c0, positive=True)
            fits_float32("c0", self.c0)
        check_finite_real("q_cap", self.q_cap, positive=True)
        check_finite_real("init_noise", self.init_noise, positive=True)
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
