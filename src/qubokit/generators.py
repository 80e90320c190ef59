"""Planted and random instance generators with ground-state certificates.

All generators are pure functions of (parameters, seed).  Randomness comes
from counter-based Philox streams: ``rng_stream(seed)`` is the base stream
and ``rng_stream(seed, index)`` is the stream for sub-instance / replica
``index`` (the base stream as ``index`` jumps would leave it), so instances
can be generated independently and in parallel with reproducible results.

``GENERATORS`` maps each family name to its generator; ``generate`` is the
one keyword-checked entry point that the CLI and the bench harness share.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (GenerationError, ValidationError, check_count, check_finite_real,
                     is_finite_real)
from .model import BINARY_DOMAIN, SPIN_DOMAIN, HuboModel, IsingModel, _as_indices, as_spins
from .transforms import hubo_to_spin_domain

__all__ = [
    "PlantedInstance",
    "rng_stream",
    "gen_chain3",
    "gen_mw3s",
    "gen_3r3x",
    "gen_tile",
    "gen_wishart",
    "gen_random",
    "gauge_randomize",
    "apply_gauge",
    "TILE_COUPLING_SETS",
    "GENERATORS",
    "generate",
]


def rng_stream(seed, index: int = 0) -> np.random.Generator:
    """Counter-based stream ``index`` of the Philox generator keyed by seed:
    the counter starts at index * 2^128 (word 2), which is where ``index``
    jumps of the base stream would leave it, without making the jumps.
    ``seed`` is the 64-bit key: an integer in [0, 2^64), bools refused."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return np.random.Generator(
        np.random.Philox(counter=[0, 0, index, 0], key=np.uint64(seed)))


@dataclass(frozen=True)
class PlantedInstance:
    """A model bundled with its certified ground-state energy and state.

    ``planted_state`` is the post-gauge state; for the exact-certificate
    families (3r3x, tile, wishart) ``planted_energy`` is a true global
    minimum by construction.  The energy certificate is re-checked here.
    """

    model: IsingModel | HuboModel
    planted_energy: float
    planted_state: np.ndarray
    family: str
    hardness: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        check_finite_real("planted_energy", self.planted_energy)
        state = as_spins(self.planted_state, self.model.n)
        object.__setattr__(self, "planted_state", state)
        m = self.model
        if isinstance(m, IsingModel):  # from the arrays: no coupling operator built
            s = state.astype(np.float64)
            e = float(m.offset + m.h @ s + m.values @ (s[m.rows] * s[m.cols]))
        else:
            e = m.energy(state)
        tol = 1e-9 * max(1.0, abs(self.planted_energy))
        if abs(e - self.planted_energy) > tol:
            raise ValidationError(
                f"planted state evaluates to {e}, certificate says {self.planted_energy}")


def gen_chain3(n: int, seed) -> HuboModel:
    """Random 3-body chain: fields, nearest-neighbor pairs, and consecutive
    triples, all coefficients i.i.d. standard normal."""
    check_count("chain3 n", n, 3)
    rng = rng_stream(seed)
    h = rng.standard_normal(n)
    J = rng.standard_normal(n - 1)
    K = rng.standard_normal(n - 2)
    i = np.arange(n)
    blocks = [(i[:, None], h), (np.stack([i[:-1], i[1:]], axis=1), J),
              (np.stack([i[:-2], i[1:-1], i[2:]], axis=1), K)]
    return HuboModel.from_arrays(n, SPIN_DOMAIN, blocks, max_order=3)


def gen_mw3s(n: int, seed) -> HuboModel:
    """Weighted MAX-3-SAT chain cost expanded exactly into spin terms.

    Clause i covers the sliding window (i, i+1, i+2) and contributes
    (w_i / 8) * prod_{v in window} (1 + a_v s_v) with a_v = (-1)^{c_v},
    w_i uniform on [0, 1] and c_v uniform on {0, 1}: the binary clause
    w_i x_i x_{i+1} x_{i+2} in spins, gauged by a.
    """
    check_count("mw3s n", n, 3)
    rng = rng_stream(seed)
    omega = rng.random(n - 2)
    c = rng.integers(0, 2, size=n)
    a = np.where(c == 0, 1.0, -1.0)
    windows = np.arange(n - 2)[:, None] + np.arange(3)
    spin = hubo_to_spin_domain(
        HuboModel.from_arrays(n, BINARY_DOMAIN, [(windows, omega)], max_order=3))
    return _hubo_gauge(spin, a)


def _hubo_gauge(h: HuboModel, g: np.ndarray) -> HuboModel:
    """``h`` with every term's coefficient times the product of g over its indices."""
    blocks = [(idx, c * g[idx].prod(axis=1)) for idx, c in h.blocks]
    return HuboModel.from_arrays(h.n, h.domain, blocks, max_order=h.max_order)


# Random incidences drawn before gen_3r3x gives up on finding a simple one
MAX_INCIDENCE_TRIES = 1000


def gen_3r3x(n: int, seed) -> PlantedInstance:
    """3-regular 3-XORSAT planted instance as a cubic spin HUBO.

    Builds a random incidence where every equation touches exactly three
    distinct variables and every variable sits in exactly three equations
    (configuration model with rejection of repeated-variable and duplicate
    clauses), plants a random spin state, and sets each clause coupling to
    the planted product so the planted energy is exactly -m with m = n.
    """
    check_count("3r3x n", n, 6)
    rng = rng_stream(seed)
    stubs = np.repeat(np.arange(n), 3)
    triples = None
    for _ in range(MAX_INCIDENCE_TRIES):
        cand = np.sort(rng.permutation(stubs).reshape(n, 3), axis=1)
        if np.any(cand[:, 0] == cand[:, 1]) or np.any(cand[:, 1] == cand[:, 2]):
            continue
        if len(np.unique(cand, axis=0)) != n:
            continue
        triples = cand
        break
    if triples is None:
        raise GenerationError(
            f"no simple 3-regular incidence found in {MAX_INCIDENCE_TRIES} tries")

    planted = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    clause_J = planted[triples].prod(axis=1).astype(np.float64)
    model = HuboModel.from_arrays(n, SPIN_DOMAIN, [(triples, -clause_J)], max_order=3)

    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    model = _hubo_gauge(model, g)
    state = (planted * g).astype(np.int8)
    return PlantedInstance(model=model, planted_energy=-float(n), planted_state=state,
                           family="r3x3", hardness={"m": n}, seed=seed)


# Plaquette coupling sets, cyclically ordered around the 4-cycle.  With the
# cell Hamiltonian -sum J s s, type i has 2i minimizing states of the 16
# (i states per global-flip sector), always including the ferromagnetic pair.
TILE_COUPLING_SETS: dict[int, tuple[float, float, float, float]] = {
    1: (1.0, 1.0, 1.0, 1.0),
    2: (2.0, 2.0, 1.0, -1.0),
    3: (2.0, 1.0, 1.0, -1.0),
    4: (1.0, 1.0, 1.0, -1.0),
}


def gen_tile(L: int, p, seed) -> PlantedInstance:
    """Tile-planted Ising instance on the periodic L x L square lattice.

    Plaquettes are selected checkerboard-fashion so each edge belongs to
    exactly one tile and each vertex to two.  Every tile draws its type from
    the probability 4-vector ``p``; the drawn coupling set is applied in a
    random rotation/reflection around the cell cycle.  The ferromagnetic
    state minimizes every tile simultaneously, so the planted energy is the
    sum of per-tile minima, -(sum of each drawn set); the planted state is
    then concealed by gauge randomization.
    """
    check_count("tile L", L, 4)
    if L % 2 != 0:
        raise ValidationError("tile planting needs even L >= 4")
    # each entry checked before numpy converts it: a string would parse, a
    # ragged list would raise numpy's own ValueError
    entries = list(p) if isinstance(p, (list, tuple, np.ndarray)) else []
    if len(entries) != 4 or not all(map(is_finite_real, entries)):
        raise ValidationError("p must be a length-4 probability vector")
    p = np.array(entries, dtype=np.float64)
    if not np.all(p >= 0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ValidationError("p must be a length-4 probability vector")
    p = p / p.sum()
    rng = rng_stream(seed)
    n = L * L

    # the even-parity cells in row-major order, each with its cell cycle
    # (r,c) -> (r,c+1) -> (r+1,c+1) -> (r+1,c) -> back
    r, c = np.nonzero(np.add.outer(np.arange(L), np.arange(L)) % 2 == 0)
    r1, c1 = (r + 1) % L, (c + 1) % L
    verts = np.stack([r * L + c, r * L + c1, r1 * L + c1, r1 * L + c], axis=1)

    # Tile t's type, rotation and flip are the draws rng.choice(4, p=p),
    # rng.integers(0, 4) and rng.integers(0, 2), decoded from the raw words
    # as numpy decodes them: the choice is the double (word 2t >> 11) * 2^-53
    # searched in the normalised cdf; the two integers take the low and then
    # the high 32-bit half of word 2t + 1 by Lemire's method,
    # (half * range) >> 32, which never rejects for ranges 4 and 2 (2^32 mod
    # range is 0).  So the gauge draw below starts from the generator state
    # that those per-tile calls would leave.
    words = rng.bit_generator.random_raw(2 * len(r)).reshape(-1, 2)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    types = cdf.searchsorted((words[:, 0] >> 11) * 2.0 ** -53, "right")
    rot = (((words[:, 1] & 0xFFFFFFFF) * 4) >> 32).astype(np.int64)
    flip = (words[:, 1] >> 63).astype(bool)

    # edge e of the cycle gets set[(rot + e) % 4], or set[(rot + 3 - e) % 4]
    # when flipped; the tile Hamiltonian is -J s s, the model's +J s s
    sets = np.array(list(TILE_COUPLING_SETS.values()))
    e = np.arange(4)
    js = sets[types[:, None], (rot[:, None] + np.where(flip[:, None], 3 - e, e)) % 4]
    model = IsingModel.from_arrays(n, verts.ravel(), np.roll(verts, -1, axis=1).ravel(),
                                   -js.ravel())
    planted_energy = -float(sets.sum(axis=1)[types].sum())
    state = np.ones(n, dtype=np.int8)
    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    model, state, _ = apply_gauge(model, state, g)
    return PlantedInstance(model=model, planted_energy=planted_energy, planted_state=state,
                           family="tile", hardness={"p": [float(x) for x in p]}, seed=seed)


def gen_wishart(N: int, M: int, seed) -> PlantedInstance:
    """Wishart-planted dense Ising instance with exact certificate.

    Columns of W are built by exact projection, w = sqrt(N/(N-1)) *
    (z - (t.z / N) t) for standard-normal z, which enforces w^T t = 0 and
    realizes the covariance N/(N-1) [1 - t t^T / N].  With
    J~ = -(1/N) W W^T and zero-diagonal J, the Hamiltonian
    -(1/2) s^T J s has global minimum at s = t with energy (1/2) Tr(J~);
    the planted state is concealed by gauge randomization.
    """
    check_count("wishart N", N, 3)
    check_count("wishart M", M)
    rng = rng_stream(seed)
    t = np.ones(N)
    Z = rng.standard_normal((N, M))
    W = np.sqrt(N / (N - 1.0)) * (Z - np.outer(t, t @ Z) / N)
    Jt = -(W @ W.T) / N
    energy = 0.5 * float(np.trace(Jt))
    rows, cols = np.triu_indices(N, k=1)
    model = IsingModel.from_arrays(N, rows, cols, -Jt[rows, cols])
    state = np.ones(N, dtype=np.int8)
    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=N)
    model, state, _ = apply_gauge(model, state, g)
    return PlantedInstance(model=model, planted_energy=energy, planted_state=state,
                           family="wishart", hardness={"alpha": M / N, "M": M}, seed=seed)


def _chimera_edges(rows: int, cols: int) -> tuple[int, np.ndarray]:
    """Standard Chimera graph: rows x cols grid of K_{4,4} cells with chains.

    Edges come as an (m, 2) array, cell by cell in row-major order: the 16
    in-cell edges (k, k') of side 0 to side 1, then the 4 chain edges to the
    cell below on side 0, then the 4 to the cell on the right on side 1.
    """
    k = np.arange(4)
    cell = 8 * np.arange(rows * cols).reshape(rows, cols)
    edges = np.zeros((rows, cols, 24, 2), dtype=np.int64)
    edges[:, :, :16, 0] = cell[..., None] + np.repeat(k, 4)
    edges[:, :, :16, 1] = cell[..., None] + 4 + np.tile(k, 4)
    edges[:, :, 16:20, 0] = cell[..., None] + k
    edges[:-1, :, 16:20, 1] = cell[1:, :, None] + k
    edges[:, :, 20:, 0] = cell[..., None] + 4 + k
    edges[:, :-1, 20:, 1] = cell[:, 1:, None] + 4 + k
    keep = np.zeros((rows, cols, 24), dtype=bool)
    keep[:, :, :16] = True
    keep[:-1, :, 16:20] = True
    keep[:, :-1, 20:] = True
    return rows * cols * 8, edges[keep]


def gen_random(topology: str, coupling_dist: str, seed, *, n: int | None = None,
               rows: int | None = None, cols: int | None = None,
               edges: list[tuple[int, int]] | None = None,
               a: float = -1.0, b: float = 1.0,
               with_biases: bool = True) -> IsingModel:
    """Random Ising model on a chosen topology.

    Topologies: ``complete`` (needs n), ``chimera`` (needs rows, cols),
    ``edge_list`` (needs edges, integer (i, j) pairs; n optional, inferred
    from edges).
    Distributions: ``uniform`` on [a, b], ``int_uniform`` on integers in
    [a, b], ``gaussian`` (standard normal).  ``uniform`` needs finite
    a <= b, and ``int_uniform`` an int64 integer between them.  Couplings
    are drawn first, then biases, from a single seeded stream.
    """
    if topology == "complete":
        check_count("complete n", n)
        edge_list = np.stack(np.triu_indices(n, k=1), axis=1)
        nvars = n
    elif topology == "chimera":
        check_count("chimera rows", rows)
        check_count("chimera cols", cols)
        nvars, edge_list = _chimera_edges(rows, cols)
    elif topology == "edge_list":
        if edges is None or len(edges) == 0:
            raise ValidationError("edge_list topology needs a nonempty edge list")
        try:
            pairs = np.asarray(edges)
        except ValueError:  # ragged
            pairs = np.empty(0)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
            raise ValidationError("edge_list entries must be (i, j) pairs of numbers")
        edge_list, non_integer = _as_indices(pairs)
        if non_integer.any():
            raise ValidationError(f"edge {tuple(pairs[non_integer.argmax()].tolist())} "
                                  "is not a pair of integers")
        if n is not None:
            check_count("edge_list n", n)
        nvars = n if n is not None else int(edge_list.max()) + 1
    else:
        raise ValidationError(f"unknown topology {topology!r}")

    if coupling_dist in ("uniform", "int_uniform"):
        check_finite_real(f"{coupling_dist} low", a)
        check_finite_real(f"{coupling_dist} high", b)
        if not (a <= b and float(b) - float(a) < math.inf):
            raise ValidationError(f"{coupling_dist} needs finite low <= high, got {a!r}, {b!r}")
    if coupling_dist == "int_uniform":
        low, high = math.ceil(a), math.floor(b)
        if not -2 ** 63 <= low <= high < 2 ** 63:
            raise ValidationError(f"int_uniform needs int64 bounds with an integer between "
                                  f"them, got {a!r}, {b!r}")
    rng = rng_stream(seed)

    def draw(size):
        if coupling_dist == "uniform":
            return rng.uniform(a, b, size=size)
        if coupling_dist == "int_uniform":
            return rng.integers(low, high + 1, size=size).astype(np.float64)
        if coupling_dist == "gaussian":
            return rng.standard_normal(size)
        raise ValidationError(f"unknown coupling distribution {coupling_dist!r}")

    vals = draw(len(edge_list))
    h = draw(nvars) if with_biases else np.zeros(nvars)
    return IsingModel.from_arrays(nvars, edge_list[:, 0], edge_list[:, 1], vals, h=h)


def apply_gauge(m: IsingModel, s, g) -> tuple[IsingModel, np.ndarray, np.ndarray]:
    """Transform (model, state) by the sign vector g; energies are preserved."""
    g = as_spins(g, m.n)
    s = as_spins(s, m.n)
    h = m.h * g
    vals = m.values * g[m.rows] * g[m.cols]
    model = IsingModel(n=m.n, h=h, rows=m.rows, cols=m.cols, values=vals, offset=m.offset)
    return model, (s * g).astype(np.int8), g


def gauge_randomize(m: IsingModel, s, seed) -> tuple[IsingModel, np.ndarray, np.ndarray]:
    """Gauge-conceal a state with a random sign vector drawn from the seed."""
    rng = rng_stream(seed)
    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=m.n)
    return apply_gauge(m, s, g)


def _tile(seed, L, p=None, p2=None) -> PlantedInstance:
    if p is None:
        if p2 is None:
            raise ValidationError("tile needs p or p2")
        check_finite_real("tile p2", p2)
        p = (0.0, p2, 0.0, 1.0 - p2)
    return gen_tile(L, p, seed)


def _wishart(seed, n, M=None, alpha=None) -> PlantedInstance:
    if M is None:
        if alpha is None:
            raise ValidationError("wishart needs M or alpha")
        check_finite_real("wishart alpha", alpha)
        check_count("wishart N", n, 3)
        M = max(1, int(round(alpha * n)))
    return gen_wishart(n, M, seed)


def _random(seed, n=None, topology="complete", dist="uniform", rows=None, cols=None,
            edges=None, a=-1.0, b=1.0, with_biases=True) -> IsingModel:
    return gen_random(topology, dist, seed, n=n, rows=rows, cols=cols, edges=edges,
                      a=a, b=b, with_biases=with_biases)


class Family(NamedTuple):
    size: str        # the keyword that a suite's "sizes" list sweeps
    make: Callable   # (seed, **keywords) -> model or PlantedInstance


GENERATORS: dict[str, Family] = {
    "chain3": Family("n", lambda seed, n: gen_chain3(n, seed)),
    "mw3s": Family("n", lambda seed, n: gen_mw3s(n, seed)),
    "3r3x": Family("n", lambda seed, n: gen_3r3x(n, seed)),
    "tile": Family("L", _tile),
    "wishart": Family("n", _wishart),
    "random": Family("n", _random),
}


def generate(family: str, seed, **params) -> tuple[IsingModel | HuboModel, PlantedInstance | None]:
    """(model, planted certificate or None) of one instance of a family.

    Keywords are those of the family's builder; an unknown or missing one is
    a ValidationError.  Tile's ``p2`` means ``p = (0, p2, 0, 1 - p2)`` and
    wishart's ``alpha`` means ``M = max(1, round(alpha * n))``.
    """
    if family not in GENERATORS:
        raise ValidationError(f"unknown generator family {family!r}")
    make = GENERATORS[family].make
    try:
        inspect.signature(make).bind(seed, **params)
    except TypeError as exc:
        raise ValidationError(f"{family}: {exc}") from None
    made = make(seed, **params)
    if isinstance(made, PlantedInstance):
        return made.model, made
    return made, None
