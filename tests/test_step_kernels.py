"""The PA, SBM and SA kernels against the loops they replaced.

``solve_pa`` and ``integrate`` hold the replica block in the coupling
operator's memory order and step in place; the loops in ``oracles`` are the
allocating C-ordered versions they replaced, in the same float32 precision
as the solvers.  ``solve_sa`` also holds its replicas in the operator's
memory order, updates every replica's fields of a class at once, and steps
runs of one-spin classes of a dense operator with delayed field updates;
``sa_loop`` is the C-ordered loop that updated only the replicas with a
flip in the class, one class at a time.  The PA, SBM and SA loops run as
kernels of ``run_replicas`` from C-ordered copies of the blocks it hands
them, so they share the solvers' streams, draws, casts and scoring, and a
comparison isolates the kernel.  States, energies, replica order and the
final positions must be the same bits.
"""

import numpy as np
import pytest

from oracles import integrate_loop, pa_loop, sa_loop, sbm_loop
from qubokit import IsingModel, PaParams, SaParams, SbmParams, solve_pa, solve_sa, solve_sbm
from qubokit.generators import gen_3r3x, gen_random, gen_tile, gen_wishart, rng_stream
from qubokit.solvers import integrate, make_sampleset, resolve_c0
from qubokit.solvers.annealing import _run_step
from qubokit.transforms import reduce_cubic


def tile_with_fields():
    m = gen_tile(16, [0.0, 0.8, 0.0, 0.2], 4).model
    h = np.random.default_rng(4).normal(size=m.n)
    return IsingModel.from_arrays(m.n, m.rows, m.cols, m.values, h=h, offset=1.5)


def tile_gaussian():
    # a CSR model with float couplings, unlike the integer tile models
    m = gen_tile(32, [0.0, 0.8, 0.0, 0.2], 6).model
    values = m.values * np.random.default_rng(6).normal(size=m.values.size)
    return IsingModel.from_arrays(m.n, m.rows, m.cols, values)


def gaussian_g80():
    # a dense operator with 22 colour classes, two of them one spin: every SA
    # sweep runs both the run step and the multi-spin class step
    i, j = np.triu_indices(80, k=1)
    keep = np.random.default_rng(80).random(i.size) < 0.6
    return gen_random("edge_list", "gaussian", 8, n=80,
                      edges=np.stack([i[keep], j[keep]], axis=1))


MODELS = {
    "tile-L32": lambda: gen_tile(32, [0.0, 0.8, 0.0, 0.2], 5).model,
    "wishart-n96": lambda: gen_wishart(96, 96, 3).model,
    # dense GEMM bits depend on the output's memory order at this size
    "gaussian-n300": lambda: gen_random("complete", "gaussian", 5, n=300),
    "3r3x-reduced-96": lambda: reduce_cubic(gen_3r3x(48, 7).model)[0],
    "3r3x-reduced-400": lambda: reduce_cubic(gen_3r3x(200, 7).model)[0],
    "tile-L16-fields": tile_with_fields,
    "tile-L32-gaussian": tile_gaussian,
    "gaussian-G80": gaussian_g80,
    # CSR with float couplings and three large classes (192, 192, 128 spins)
    "chimera-8x8-gaussian": lambda: gen_random("chimera", "gaussian", 9, rows=8, cols=8),
    # integer couplings and fields: every field sum is exact, and the SA runs
    # of one-spin classes (16, 16, 5 spins) do not divide n
    "int31-n37": lambda: gen_random("complete", "int_uniform", 37, n=37, a=-31, b=31),
    # one SA run, shorter than the run length
    "gaussian-n2": lambda: gen_random("complete", "gaussian", 2, n=2),
    "gaussian-n3": lambda: gen_random("complete", "gaussian", 3, n=3),
}


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    return MODELS[request.param]()


def assert_same_samples(got, want):
    assert [s.replica for s in got.samples] == [s.replica for s in want.samples]
    assert [s.energy for s in got.samples] == [s.energy for s in want.samples]
    assert np.stack([s.state for s in got.samples]).tobytes() == \
        np.stack([s.state for s in want.samples]).tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_pa_equals_allocating_loop(model, seed):
    params = PaParams(steps=60, replicas=64, seed=seed)
    assert_same_samples(solve_pa(model, params), pa_loop(model, params))


@pytest.mark.parametrize("seed", [1, 2])
def test_sbm_equals_allocating_loop(model, seed):
    params = SbmParams(steps=80, dt=0.1, replicas=64, seed=seed)
    assert_same_samples(solve_sbm(model, params), sbm_loop(model, params))


@pytest.mark.parametrize("seed", [1, 2])
def test_sa_equals_class_update_loop(model, seed):
    params = SaParams(sweeps=30, replicas=64, seed=seed)
    assert_same_samples(solve_sa(model, params), sa_loop(model, params))


def test_sa_one_replica_equals_class_update_loop(model):
    params = SaParams(sweeps=30, replicas=1, seed=3)
    assert_same_samples(solve_sa(model, params), sa_loop(model, params))


def test_int31_n37_is_dense_with_integer_fields():
    m = MODELS["int31-n37"]()
    assert isinstance(m.coupling_operator(), np.ndarray)
    assert [C.size for C in m.colour_classes()] == [1] * 37
    assert np.all(m.h == np.round(m.h)) and np.any(m.h != 0)
    assert np.all(m.values == np.round(m.values))


def test_gaussian_g80_mixes_one_spin_and_multi_spin_classes():
    m = gaussian_g80()
    sizes = [C.size for C in m.colour_classes()]
    assert isinstance(m.coupling_operator(), np.ndarray)
    assert sizes.count(1) == 2 and len(sizes) == 22


@pytest.mark.parametrize("order, dtype", [("C", np.float64), ("F", np.float64),
                                          ("C", np.float32), ("F", np.float32)],
                         ids=["C", "F", "C-float32", "F-float32"])
def test_integrate_equals_allocating_loop_in_either_order(model, order, dtype):
    # 64 replicas: at 32 the dense GEMM's output orders happen to agree
    streams = [rng_stream(3, r) for r in range(64)]
    Q = np.stack([s.uniform(-1.0, 1.0, size=model.n) for s in streams]).astype(dtype)
    P = np.stack([s.uniform(-1.0, 1.0, size=model.n) for s in streams]).astype(dtype)
    B, g, c0 = -model.coupling_operator().astype(dtype), -model.h.astype(dtype), resolve_c0(model)
    schedule = np.linspace(0.0, 1.0, 80).astype(dtype)
    want_Q, want_P = integrate_loop(B, g, Q.copy(), P.copy(), 0.1, schedule, 1.0, c0, 1.0)
    got_Q, got_P = integrate(-B, -g, np.array(Q, order=order), np.array(P, order=order),
                             0.1, schedule, 1.0, c0, 1.0)
    assert got_Q.dtype == got_P.dtype == dtype
    assert got_Q.tobytes() == want_Q.tobytes()
    assert got_P.tobytes() == want_P.tobytes()


@pytest.mark.parametrize("build, replicas", [
    (lambda: gen_wishart(96, 96, 3).model, 256),
    (lambda: gen_random("complete", "gaussian", 5, n=300), 64),
], ids=["wishart-n96", "gaussian-n300"])
def test_sampleset_energies_independent_of_state_layout(build, replicas):
    m = build()
    states = np.where(np.random.default_rng(8).random((replicas, m.n)) < 0.5, -1, 1)
    c_order = make_sampleset(m, np.ascontiguousarray(states), seed=0)
    f_order = make_sampleset(m, np.asfortranarray(states), seed=0)
    assert_same_samples(f_order, c_order)


def run_step_per_spin(S, F, E, U_b, T, C, A_C, A_CC):
    """The run step that added each spin's energy change to E as it went."""
    Fb = F[:, C].T.copy()
    M2S = S[:, C].T * -2.0
    Ub = U_b[:, C].T.copy()
    D = np.empty_like(M2S)
    for t in range(C.size):
        dE = M2S[t] * Fb[t]
        flip = Ub[t] < np.exp(np.minimum(-dE / T, 0.0))
        np.multiply(M2S[t], flip, out=D[t])
        E += dE * flip
        Fb[t + 1:] += np.multiply.outer(A_CC[t, t + 1:], D[t])
    S[:, C] += D.T
    F += D.T @ A_C


@pytest.mark.parametrize("replicas", [1, 64])
@pytest.mark.parametrize("T", [3.0, 0.3, 1e-3], ids=["hot", "cold", "overflow"])
@pytest.mark.parametrize("run", [[7], [2, 3, 4, 5, 6], list(range(4, 20)),
                                 [0, 3, 8, 9, 14, 21, 22, 23, 25, 30, 31, 33, 34, 36, 38, 39]],
                         ids=["1", "5", "16", "16-scattered"])
def test_run_step_equals_per_spin_reference(run, T, replicas):
    # float couplings, fields and energies, so the order of E's sum shows in
    # its last bits; at T=1e-3 exp(dE / -T) overflows for every downhill flip
    n, rng = 40, np.random.default_rng(len(run) + replicas)
    A = np.triu(rng.normal(size=(n, n)), 1)
    A += A.T
    C = np.array(run)
    S = np.where(rng.random((replicas, n)) < 0.5, -1.0, 1.0)
    h = rng.normal(size=n)
    # the run's first spin points along its field, so flipping it lowers the
    # energy and is accepted at every T
    S[:, C[0]] = np.where((S @ A + h)[:, C[0]] >= 0, 1.0, -1.0)
    F = S @ A + h
    E = rng.normal(size=replicas) * 100.0
    U_b = rng.random((replicas, n))
    want = [S.copy(), F.copy(), E.copy()]
    run_step_per_spin(*want, U_b, T, C, A[C], A[np.ix_(C, C)])
    got = [S.copy(), F.copy(), E.copy()]
    with np.errstate(over="ignore"):
        _run_step(*got, U_b, T, C, A[C], A[np.ix_(C, C)])
    assert np.all(got[0][:, C[0]] == -S[:, C[0]])
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
