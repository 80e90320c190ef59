"""Independent reference evaluators used as test oracles.

These re-implement energy evaluation and exhaustive search with plain
per-term Python loops and binary-order enumeration, sharing no code path
with the library implementations they check.
"""

import itertools
import json

import numpy as np


def ising_energy_naive(model, s) -> float:
    e = model.offset
    for i in range(model.n):
        e += model.h[i] * s[i]
    for i, j, v in zip(model.rows, model.cols, model.values):
        e += v * s[i] * s[j]
    return float(e)


def qubo_energy_naive(model, x) -> float:
    e = model.offset
    for i, j, v in zip(model.rows, model.cols, model.values):
        e += v * x[i] * x[j]
    return float(e)


def hubo_energy_naive(model, v) -> float:
    e = 0.0
    for idx, c in model.terms():
        prod = 1.0
        for i in idx:
            prod *= v[i]
        e += c * prod
    return float(e)


def all_spin_states(n: int) -> np.ndarray:
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def all_bit_states(n: int) -> np.ndarray:
    return (((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1)).astype(np.int8)


def exhaustive_min_ising(model) -> tuple[np.ndarray, float]:
    """Binary-order exhaustive minimum via naive per-state evaluation."""
    best_e = np.inf
    best_s = None
    for bits in itertools.product((0, 1), repeat=model.n):
        s = np.array([2 * b - 1 for b in bits], dtype=np.int8)
        e = ising_energy_naive(model, s)
        if e < best_e:
            best_e, best_s = e, s
    return best_s, best_e


def exhaustive_min_ising_fast(model) -> float:
    """Vectorized exhaustive minimum (batch evaluation)."""
    S = all_spin_states(model.n)
    return float(model.energies(S).min())


def exhaustive_min_hubo(model) -> float:
    states = all_spin_states(model.n) if model.domain == "spin" else all_bit_states(model.n)
    return float(model.energies(states).min())


def completion_min(model, prefix) -> float:
    """Exact minimum energy over all completions of a fixed prefix."""
    k = len(prefix)
    nrem = model.n - k
    V = all_spin_states(nrem)
    full = np.concatenate([np.tile(np.asarray(prefix, dtype=np.int8), (2 ** nrem, 1)), V],
                          axis=1)
    return float(model.energies(full).min())


def binary_first_min_ising(model) -> tuple[np.ndarray, float]:
    """First minimum in binary order: state t has spin i at +1 where bit i
    of t is set, and a later state replaces the best only when strictly
    lower.  Dense J from the pair columns, states scored in chunks of 2^14;
    exact on integer-valued models, where every partial sum is an integer."""
    n = model.n
    J = np.zeros((n, n))
    for i, j, v in zip(model.rows, model.cols, model.values):
        J[i, j] = J[j, i] = v
    best_e, best_s = np.inf, None
    for first in range(0, 2 ** n, 2 ** 14):
        t = np.arange(first, min(first + 2 ** 14, 2 ** n))
        S = 2.0 * ((t[:, None] >> np.arange(n)) & 1) - 1.0
        E = 0.5 * ((S @ J) * S).sum(axis=1) + S @ model.h + model.offset
        i = int(np.argmin(E))
        if E[i] < best_e:
            best_e, best_s = float(E[i]), S[i]
    return best_s.astype(np.int8), best_e


# Construction oracles: the per-term loops that built models, converted
# them and formatted files before the array construction core.  Each returns
# plain arrays or text, so no library constructor sits between the loop and
# the assertion.

def canonical_pairs_loop(terms, n: int, allow_diagonal: bool):
    """Dict deduplication of (i, j, v) terms into sorted upper-triangular arrays."""
    import math

    acc: dict[tuple[int, int], float] = {}
    for i, j, v in terms:
        i, j = int(i), int(j)
        if i > j:
            i, j = j, i
        if not (0 <= i <= j < n):
            raise ValueError(f"term index pair ({i}, {j}) out of range for n={n}")
        if i == j and not allow_diagonal:
            raise ValueError(f"diagonal coupling ({i}, {i}) not allowed; use the linear field")
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"non-finite coefficient for pair ({i}, {j})")
        acc[(i, j)] = acc.get((i, j), 0.0) + v
    keys = sorted(acc)
    rows = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
    cols = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
    vals = np.fromiter((acc[k] for k in keys), dtype=np.float64, count=len(keys))
    return rows, cols, vals


def qubo_to_ising_loop(q):
    """(h, rows, cols, values, offset) of the Ising form of a QUBO, term by term."""
    h = np.zeros(q.n)
    couplings: list[tuple[int, int, float]] = []
    offset = q.offset
    for i, j, v in zip(q.rows, q.cols, q.values):
        i, j = int(i), int(j)
        if i == j:
            h[i] += v / 2.0
            offset += v / 2.0
        else:
            couplings.append((i, j, v / 4.0))
            h[i] += v / 4.0
            h[j] += v / 4.0
            offset += v / 4.0
    rows, cols, vals = canonical_pairs_loop(couplings, q.n, allow_diagonal=False)
    return h, rows, cols, vals, float(offset)


def ising_to_qubo_loop(m):
    """(rows, cols, values, offset) of the QUBO form of an Ising model, term by term."""
    terms: list[tuple[int, int, float]] = []
    offset = m.offset
    diag = np.zeros(m.n)
    for i, j, v in zip(m.rows, m.cols, m.values):
        i, j = int(i), int(j)
        terms.append((i, j, 4.0 * v))
        diag[i] -= 2.0 * v
        diag[j] -= 2.0 * v
        offset += v
    diag += 2.0 * m.h
    offset -= float(np.sum(m.h))
    terms.extend((i, i, diag[i]) for i in range(m.n) if diag[i] != 0.0)
    rows, cols, vals = canonical_pairs_loop(terms, m.n, allow_diagonal=True)
    return rows, cols, vals, float(offset)


def quadratic_terms_loop(model) -> list[list]:
    """1-based [i, j, v] lines of an Ising (fields first) or QUBO model."""
    terms = []
    if hasattr(model, "h"):
        terms = [[int(i) + 1, int(i) + 1, float(v)] for i, v in enumerate(model.h) if v != 0.0]
    terms += [[int(i) + 1, int(j) + 1, float(v)]
              for i, j, v in zip(model.rows, model.cols, model.values)]
    return terms


def quadratic_text_loop(model) -> str:
    """Text file of an Ising or QUBO model, formatted term by term."""
    terms = quadratic_terms_loop(model)
    domain = "spin" if hasattr(model, "h") else "binary"
    lines = ["# format: quadratic"]
    if model.offset != 0.0:
        lines.append(f"# offset: {model.offset!r}")
    lines.append(f"{model.n} {len(terms)} {domain}")
    for i, j, v in terms:
        lines.append(f"{i} {j} {v!r}")
    return "\n".join(lines) + "\n"


def read_quadratic_loop(text: str):
    """(n, domain, h or None, rows, cols, values, offset) of a quadratic
    text file, parsed line by line."""
    offset = 0.0
    header = None
    body = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("offset:"):
                offset = float(comment.split(":", 1)[1])
            continue
        if header is None:
            header = line.split()
        else:
            body.append(line.split())
    n, domain = int(header[0]), header[2]
    pairs = [(int(f[0]) - 1, int(f[1]) - 1, float(f[2])) for f in body]
    if domain == "binary":
        return (n, domain, None, *canonical_pairs_loop(pairs, n, allow_diagonal=True), offset)
    h = np.zeros(n)
    couplings = []
    for i, j, v in pairs:
        if i == j:
            h[i] += v
        else:
            couplings.append((i, j, v))
    return (n, domain, h, *canonical_pairs_loop(couplings, n, allow_diagonal=False), offset)


def chimera_edges_loop(rows: int, cols: int) -> list[tuple[int, int]]:
    """Chimera edges cell by cell: in-cell K_{4,4}, then the chains down and right."""
    def node(i, j, u, k):
        return ((i * cols + j) * 2 + u) * 4 + k

    edges = []
    for i in range(rows):
        for j in range(cols):
            for k in range(4):
                for kp in range(4):
                    edges.append((node(i, j, 0, k), node(i, j, 1, kp)))
            if i + 1 < rows:
                for k in range(4):
                    edges.append((node(i, j, 0, k), node(i + 1, j, 0, k)))
            if j + 1 < cols:
                for k in range(4):
                    edges.append((node(i, j, 1, k), node(i, j + 1, 1, k)))
    return edges


def rng_stream_jumped(seed, index: int = 0) -> np.random.Generator:
    """``rng_stream`` as it was built: the base Philox stream keyed by seed,
    jumped ``index`` times."""
    bits = np.random.Philox(key=np.uint64(seed))
    if index:
        bits = bits.jumped(index)
    return np.random.Generator(bits)


def mw3s_loop(n: int, seed) -> list[tuple[tuple[int, ...], float]]:
    """Terms of ``gen_mw3s``, (key, coefficient) sorted by (order, key), from
    the per-clause dict expansion of (w_i / 8) * prod (1 + a_v s_v)."""
    from qubokit.generators import rng_stream

    rng = rng_stream(seed)
    omega = rng.random(n - 2)
    c = rng.integers(0, 2, size=n)
    a = np.where(c == 0, 1.0, -1.0)
    acc: dict[tuple[int, ...], float] = {}
    for i in range(n - 2):
        window = (i, i + 1, i + 2)
        w = omega[i] / 8.0
        for r in range(4):
            for sub in itertools.combinations(window, r):
                coeff = w * float(np.prod([a[v] for v in sub])) if sub else w
                acc[sub] = acc.get(sub, 0.0) + coeff
    return [(k, float(acc[k])) for k in sorted(acc, key=lambda k: (len(k), k))]



def tile_loop(L: int, p, seed):
    """``gen_tile`` as it was built: one ``choice`` and two ``integers``
    draws per tile in a Python loop, couplings as term tuples, and each
    tile's minimum from enumerating its 16 cell states.  Returns the gauged
    model's (rows, cols, values, h, offset), the planted state and energy."""
    from qubokit.generators import TILE_COUPLING_SETS, apply_gauge, rng_stream
    from qubokit.model import IsingModel

    states = np.array(list(itertools.product((-1, 1), repeat=4)), dtype=np.float64)
    cyc = [(0, 1), (1, 2), (2, 3), (3, 0)]
    checked = {}
    for t, cset in TILE_COUPLING_SETS.items():
        energies = -sum(j * states[:, a] * states[:, b] for (a, b), j in zip(cyc, cset))
        checked[t] = (cset, float(energies.min()))

    p = np.asarray(p, dtype=np.float64)
    p = p / p.sum()
    rng = rng_stream(seed)

    n = L * L

    def vid(r, c):
        return (r % L) * L + (c % L)

    couplings: list[tuple[int, int, float]] = []
    planted_energy = 0.0
    for r in range(L):
        for c in range(L):
            if (r + c) % 2 != 0:
                continue
            # cell cycle: (r,c) -> (r,c+1) -> (r+1,c+1) -> (r+1,c) -> back
            verts = [vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)]
            tile_type = int(rng.choice(4, p=p)) + 1
            cset, emin = checked[tile_type]
            rot = int(rng.integers(0, 4))
            flip = bool(rng.integers(0, 2))
            js = list(cset[rot:] + cset[:rot])
            if flip:
                js = js[::-1]
            planted_energy += emin
            cyc = [(0, 1), (1, 2), (2, 3), (3, 0)]
            for (a, b), j in zip(cyc, js):
                # tile Hamiltonian is -J s s; model convention is +J s s
                couplings.append((verts[a], verts[b], -j))

    model = IsingModel.from_terms(n, couplings=couplings)
    state = np.ones(n, dtype=np.int8)
    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    model, state, _ = apply_gauge(model, state, g)
    return (np.array(model.rows), np.array(model.cols), np.array(model.values),
            np.array(model.h), model.offset, state, planted_energy)

# Adjacency oracle: the CSR coupling matrix as scipy built it from COO
# triplets, and the greedy colouring loop over its rows, as they were before
# the model built its CSR layout with numpy.

def coo_csr(model):
    """The symmetric coupling matrix through scipy's COO -> CSR conversion."""
    import scipy.sparse as sp

    both_r = np.concatenate([model.rows, model.cols])
    both_c = np.concatenate([model.cols, model.rows])
    both_v = np.concatenate([model.values, model.values])
    return sp.csr_array((both_v, (both_r, both_c)), shape=(model.n, model.n))


def colour_classes_loop(model) -> list[np.ndarray]:
    """Greedy colouring in index order over ``coo_csr``'s rows, as classes."""
    csr = coo_csr(model)
    indptr, indices = csr.indptr, csr.indices
    colour = np.full(model.n, -1, dtype=np.int64)
    for i in range(model.n):
        used = colour[indices[indptr[i]:indptr[i + 1]]]
        used = used[used >= 0]
        free = np.ones(used.size + 1, dtype=bool)
        free[used[used <= used.size]] = False
        colour[i] = free.argmax()
    order = np.argsort(colour, kind="stable")
    return np.split(order, np.cumsum(np.bincount(colour))[:-1])


# HUBO oracles: the dict loops that built, converted, reduced and read HUBO
# models while ``HuboModel`` held one index tuple per term.  Copied as they
# were, returning plain terms, arrays and text.

def hubo_terms_loop(n: int, terms, max_order=None):
    """(terms sorted by (order, key), max_order) of ``HuboModel.from_terms``
    through the dict; a bad term raises ValueError with the model's message."""
    import math

    acc: dict[tuple[int, ...], float] = {}
    for idx, coeff in terms:
        key = tuple(int(i) for i in sorted(idx))
        if len(set(key)) != len(key):
            raise ValueError(f"term {key} repeats an index")
        if key and not (0 <= key[0] and key[-1] < n):
            raise ValueError(f"term {key} out of range for n={n}")
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite coefficient for term {key}")
        acc[key] = acc.get(key, 0.0) + coeff
    keys = sorted(acc, key=lambda k: (len(k), k))
    order = max((len(k) for k in keys), default=1)
    if max_order is None:
        max_order = max(order, 1)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if order > max_order:
        raise ValueError(f"term of order {order} exceeds declared max_order {max_order}")
    return [(k, acc[k]) for k in keys], int(max_order)


def hubo_to_spin_loop(n: int, terms, max_order: int):
    """Terms of the spin expansion of sorted binary terms, monomial by monomial."""
    acc: dict[tuple[int, ...], float] = {}
    for t, c in terms:
        k = len(t)
        base = c / (2.0 ** k)
        for r in range(k + 1):
            for sub in itertools.combinations(t, r):
                acc[sub] = acc.get(sub, 0.0) + base
    return hubo_terms_loop(n, acc.items(), max_order=max_order)[0]


def reduce_cubic_loop(n: int, terms):
    """(h, rows, cols, values, offset, aux_bindings) of the cubic reduction
    of sorted spin terms of order <= 3, term by term."""
    cubic = [(t, float(c)) for t, c in terms if len(t) == 3 and c != 0.0]
    fields = np.zeros(n + len(cubic))
    couplings: list[tuple[int, int, float]] = []
    offset = 0.0
    for t, c in terms:
        if len(t) == 0:
            offset += c
        elif len(t) == 1:
            fields[t[0]] += c
        elif len(t) == 2:
            couplings.append((t[0], t[1], c))
    bindings = []
    for pos, ((i, j, k), coeff) in enumerate(cubic):
        aux = n + pos
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
    rows, cols, vals = canonical_pairs_loop(couplings, n + len(cubic), allow_diagonal=False)
    return fields, rows, cols, vals, offset, tuple(bindings)


def hubo_text_loop(n: int, domain: str, terms) -> str:
    """Text file of a HUBO model, formatted term by term."""
    lines = ["# format: hubo", f"{n} {len(terms)} {domain}"]
    for idx, c in terms:
        lines.append(" ".join([str(len(idx))] + [str(i + 1) for i in idx] + [repr(c)]))
    return "\n".join(lines) + "\n"


def read_hubo_loop(text: str):
    """(n, domain, sorted terms) of a HUBO text file, parsed line by line."""
    header = None
    body = []
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if not f:
            continue
        if header is None:
            header = f
        else:
            body.append(f)
    terms = []
    for f in body:
        k = int(f[0])
        idx = [int(i) - 1 for i in f[1:-1]]
        coeff = float(f[-1])
        if len(f) != k + 2:
            raise ValueError(f"HUBO line of order {k} needs {k + 2} fields, got {len(f)}")
        terms.append((idx, coeff))
    n = int(header[0])
    return n, header[2], hubo_terms_loop(n, terms)[0]


# Step-kernel oracles: the allocating PA loop and SBM integrator that ran
# before the replica state was held in the operator's memory order and
# stepped in place.  Copied as they were, except that they step in float32
# as the solvers now do (the operator, h, the initial blocks and the
# schedule cast once, scalars as Python floats), and that each runs as the
# kernel of ``run_replicas`` from a C-ordered copy of the blocks it is
# handed, so the comparisons isolate the in-place kernels, which must
# reproduce them bit for bit.

def pa_loop(model, params):
    """``solve_pa``'s sample set from the C-ordered allocating loop."""
    from qubokit.model import sign_pm
    from qubokit.solvers.common import run_replicas

    T = params.steps
    lam0 = params.lambda0 if params.lambda0 is not None else max(model.field_scale, 1e-12)
    eta, alpha = params.learning_rate, params.momentum

    def kernel(A, h, X, streams):
        X = np.array(X, order="C")
        M = np.zeros_like(X)
        for t in range(T):
            lam = lam0 * (1.0 - t / T)
            grad = lam * X + sign_pm(X).astype(np.float32) @ A + h
            M = alpha * M - eta * grad
            X = np.clip(X + M, -1.0, 1.0)
        return sign_pm(X)

    return run_replicas(model, params, np.float32,
                        [lambda g, n: g.uniform(-1.0, 1.0, size=n)], kernel)


def integrate_loop(B, g, Q, P, dt, a_schedule, a0, c0, q_cap):
    """The allocating symplectic loop of ``integrate``; updates Q, P in place."""
    for a_t in a_schedule:
        P += dt * (-(Q * Q + a0 - a_t) * Q + c0 * (Q @ B + g))
        Q += dt * a0 * P
        over = np.abs(Q) > q_cap
        if np.any(over):
            np.clip(Q, -q_cap, q_cap, out=Q)
            P[over] = 0.0
    return Q, P


def sbm_loop(model, params):
    """``solve_sbm``'s sample set from ``integrate_loop`` on C-ordered blocks."""
    from qubokit.model import sign_pm
    from qubokit.solvers.bifurcation import resolve_c0
    from qubokit.solvers.common import run_replicas

    c0 = params.c0 if params.c0 is not None else resolve_c0(model)
    amp = params.init_noise
    a_schedule = np.linspace(0.0, params.a0, params.steps).astype(np.float32)

    def kernel(A, h, Q, P, streams):
        B, g = -A, -h
        Q, P = np.array(Q, order="C"), np.array(P, order="C")
        Q, P = integrate_loop(B, g, Q, P, params.dt, a_schedule, params.a0, c0, params.q_cap)
        return sign_pm(Q)

    # each replica draws its Q row, then its P row
    return run_replicas(model, params, np.float32,
                        [lambda g, n: g.uniform(-amp, amp, size=n)] * 2, kernel)


# SA oracle: the loop over C-ordered replica blocks that updated the fields
# of the replicas with a flip in a class with dS @ A[C], one class at a time,
# whatever the operator.  Copied as it was, and run as the kernel of
# ``run_replicas`` from a C-ordered copy of its spins, so ``solve_sa`` must
# reproduce it bit for bit.

def sa_loop(model, params):
    """``solve_sa``'s sample set from the class-update loop's best states."""
    from qubokit.solvers.common import run_replicas

    T_init = params.T_init if params.T_init is not None else 2.0 * max(model.field_scale, 1e-12)
    T_final = params.T_final if params.T_final is not None else 1e-3 * T_init
    sweeps = params.sweeps
    if sweeps > 1:
        ratio = (T_final / T_init) ** (1.0 / (sweeps - 1))
        temps = T_init * ratio ** np.arange(sweeps)
    else:
        temps = np.array([T_init])

    def kernel(A, h, S, streams):
        n = model.n
        S = np.array(S, order="C")
        F = S @ A + h
        classes = model.colour_classes()
        class_rows = [A[C] for C in classes]

        E = model.energies(S) - model.offset
        best_E = E.copy()
        best_S = S.copy()

        chunk = max(1, 8192 // max(n, 1))
        sweep = 0
        while sweep < sweeps:
            block = min(chunk, sweeps - sweep)
            U = np.stack([g.random((block, n)) for g in streams])
            for b in range(block):
                T = temps[sweep + b]
                U_b = U[:, b]
                for C, A_C in zip(classes, class_rows):
                    s = S[:, C]
                    dE = -2.0 * s * F[:, C]
                    flip = U_b[:, C] < np.exp(np.minimum(-dE / T, 0.0))
                    hit = np.flatnonzero(flip.any(axis=1))
                    if hit.size == 0:
                        continue
                    dS = np.where(flip, -2.0 * s, 0.0)
                    S[:, C] = s + dS
                    E += np.where(flip, dE, 0.0).sum(axis=1)
                    F[hit] += dS[hit] @ A_C
                improved = E < best_E
                if np.any(improved):
                    best_E[improved] = E[improved]
                    best_S[improved] = S[improved]
            sweep += block
        return best_S

    return run_replicas(model, params, np.float64,
                        [lambda g, n: 2 * g.integers(0, 2, size=n) - 1], kernel)


def descend_loop(A, h, u, energy: float) -> float:
    """Scalar 1-opt polish that ``solve_bb`` ran per candidate: flip the
    best-improving spin of the float spin vector ``u`` (in place, first on
    ties) until no flip improves by more than 1e-12, at most 4n flips."""
    n = u.shape[0]
    f = A @ u + h
    for _ in range(4 * n):
        dE = -2.0 * u * f
        best = int(np.argmin(dE))
        if dE[best] >= -1e-12:
            break
        u[best] = -u[best]
        energy += dE[best]
        f += 2.0 * A[:, best] * u[best]
    return energy


def certificate_text(planted_energy, planted_state, family, hardness, seed) -> str:
    """Certificate file text written from its five fields one by one."""
    payload = {"planted_energy": float(planted_energy),
               "planted_state": [int(s) for s in np.asarray(planted_state)],
               "family": family, "hardness": hardness, "seed": seed}
    return json.dumps(payload, indent=2) + "\n"
