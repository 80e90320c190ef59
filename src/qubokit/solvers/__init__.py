"""Optimization engines over Ising models, and ``SOLVERS``: solver id ->
parameter record and a run returning the common ``SolveResult``."""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, NamedTuple

import numpy as np

from ..model import IsingModel
from .annealing import solve_sa
from .bifurcation import integrate, resolve_c0, solve_sbm
from .branch_bound import BBResult, bound_base, bound_spd, solve_bb
from .brute_force import DEFAULT_CAP, solve_brute_force
from .common import (
    BBParams,
    PaParams,
    Sample,
    SampleSet,
    SaParams,
    SbmParams,
    make_sampleset,
    params_from_dict,
)
from .eigen import eig_extreme
from .parallel_annealing import resolve_lambda0, solve_pa

__all__ = [
    "solve_sa", "solve_pa", "solve_sbm", "solve_brute_force", "solve_bb",
    "bound_base", "bound_spd", "eig_extreme", "integrate",
    "resolve_c0", "resolve_lambda0",
    "BBResult", "Sample", "SampleSet",
    "SaParams", "PaParams", "SbmParams", "BBParams",
    "default_config", "make_sampleset", "params_from_dict",
    "DEFAULT_CAP",
    "SOLVERS", "SolveResult", "run_solver",
]


class SolveResult(NamedTuple):
    """Best state and energy, sample count, proof of optimality, solve seconds,
    and a certified lower bound on the optimum (None: the solver gives none)."""
    state: np.ndarray
    energy: float
    samples: int
    optimal: bool
    wall_time: float = 0.0
    lower_bound: float | None = None


class Solver(NamedTuple):
    params: type | None   # parameter record; None: the solver takes no parameters
    run: Callable         # (model, params, brute-force cap) -> SolveResult


def _sampler(solve) -> Callable:
    def run(model, params, cap):
        sset = solve(model, params)
        return SolveResult(sset.best.state, sset.best.energy, len(sset), False)
    return run


def _bf(model, params, cap):
    state, energy = solve_brute_force(model, cap=cap)
    return SolveResult(state, energy, 1, True)


def _bb(model, params, cap):
    result = solve_bb(model, params)
    bound = result.lower_bound if np.isfinite(result.lower_bound) else None
    return SolveResult(result.state, result.energy, 1, result.optimal, lower_bound=bound)


SOLVERS: dict[str, Solver] = {
    "sa": Solver(SaParams, _sampler(solve_sa)),
    "pa": Solver(PaParams, _sampler(solve_pa)),
    "sbm": Solver(SbmParams, _sampler(solve_sbm)),
    "bf": Solver(None, _bf),
    "bb": Solver(BBParams, _bb),
}


def run_solver(solver_id: str, model: IsingModel, data: dict, *,
               replicas: int | None = None, seed: int | None = None,
               cap: int = DEFAULT_CAP) -> SolveResult:
    """Run a solver on parameters ``data``, where ``replicas`` and ``seed``
    fill the record's fields that ``data`` leaves unset; ``wall_time`` times
    the solve call alone.  ``cap`` bounds brute force's variable count."""
    params = params_from_dict(solver_id, data, replicas=replicas, seed=seed)
    t0 = time.perf_counter()
    result = SOLVERS[solver_id].run(model, params, cap)
    return result._replace(wall_time=time.perf_counter() - t0)


def default_config() -> str:
    """JSON dump of every solver's default parameter record."""
    return json.dumps({sid: dataclasses.asdict(s.params()) for sid, s in SOLVERS.items()
                       if s.params is not None}, indent=2)
