"""The spherical B&B bound that both ``bound_spd(admissible=True)`` and
``solve_bb`` use: admissibility, dominance over the scalar-shift bound it
replaced, the search size it buys, and the certified lower bound."""

import numpy as np
import pytest

from qubokit import BBParams, bound_base, bound_spd, solve_bb, solve_brute_force
from qubokit.solvers.branch_bound import EPSILON as EPS
from qubokit.generators import gen_random

from oracles import completion_min


def int_model(seed, n):
    # the exact-proof and criterion-9 distribution: complete, integers in [-31, 31]
    return gen_random("complete", "int_uniform", seed, n=n, a=-31, b=31)


def scalar_shift_bound(model, prefix, epsilon):
    """Reference: prefix energy + relaxed minimum at the whole matrix's shift
    d_root = max(0, -lam_min(A)) + epsilon, minus d_root * |remaining|."""
    A = model.coupling_matrix()
    k = len(prefix)
    u = np.asarray(prefix, dtype=np.float64)
    c = model.h[k:] + A[k:, :k] @ u
    d_root = max(0.0, -np.linalg.eigvalsh(A)[0]) + epsilon
    m = model.n - k
    r = np.linalg.solve(A[k:, k:] + d_root * np.eye(m), -c)
    return bound_base(model, prefix) + 0.5 * c @ r - d_root * m


def random_prefixes(count, n, rng):
    for _ in range(count):
        k = int(rng.integers(1, n))
        yield rng.choice([-1, 1], size=k)


def test_admissible_and_dominates_scalar_shift_on_int_models():
    rng = np.random.default_rng(12)
    checked = 0
    for seed in range(10):
        m = int_model(1200 + seed, 12)
        for prefix in random_prefixes(60, 12, rng):
            b = bound_spd(m, prefix, EPS, admissible=True)
            assert b <= completion_min(m, prefix) + 1e-9
            assert b >= scalar_shift_bound(m, prefix, EPS) - 1e-9
            checked += 1
    assert checked >= 600


@pytest.mark.parametrize("seed", [2400, 2401])
def test_proof_needs_fewer_expansions_than_full_tree(seed):
    # n=24 with leaf 14 has 2^11 - 1 = 2047 nodes down to leaf depth
    m = int_model(seed, 24)
    res = solve_bb(m, BBParams(bound_kind="spd_admissible", leaf_size=14))
    assert res.optimal
    assert res.expansions < 2047
    assert res.lower_bound == res.energy
    assert res.gap == 0.0


@pytest.mark.parametrize("kind", ["base", "spd", "spd_admissible"])
def test_lower_bound_never_above_energy(kind):
    m = int_model(2200, 16)
    res = solve_bb(m, BBParams(bound_kind=kind, pool_limit=64))
    assert res.lower_bound <= res.energy
    assert res.gap == res.energy - res.lower_bound


def test_truncated_runs_certify_a_bound_on_the_optimum():
    m = int_model(2201, 22)
    _, optimum = solve_brute_force(m)
    evicting = solve_bb(m, BBParams(pool_limit=4, leaf_size=2))
    assert evicting.evictions > 0 and not evicting.optimal
    assert np.isfinite(evicting.lower_bound)
    assert evicting.lower_bound <= optimum + 1e-9
    timed = solve_bb(m, BBParams(leaf_size=1, time_limit=1e-3))
    assert timed.timed_out and not timed.optimal
    assert timed.lower_bound <= optimum + 1e-9
