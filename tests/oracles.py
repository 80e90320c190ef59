"""Independent reference evaluators used as test oracles.

These re-implement energy evaluation and exhaustive search with plain
per-term Python loops, binary-order enumeration and one spin-flip-at-a-time
Gray-order scan, sharing no code path with the library implementations they
check.
"""

import itertools

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
    """Vectorized exhaustive minimum (batch evaluation, no Gray code)."""
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


def gray_scan_min_ising(model) -> tuple[np.ndarray, float]:
    """First strict minimum of a one-spin-flip scan in reflected Gray order.

    Starts from the all -1 state; step t flips the spin at the lowest set bit
    of t and updates the energy from that spin's local field.  Exact on
    integer-valued models, where every partial sum is an integer.
    """
    n = model.n
    J = np.zeros((n, n))
    for i, j, v in zip(model.rows, model.cols, model.values):
        J[i, j] = J[j, i] = v
    s = -np.ones(n)
    field = J @ s + model.h
    energy = ising_energy_naive(model, s)
    best_e, best_s = energy, s.copy()
    for t in range(1, 2 ** n):
        i = (t & -t).bit_length() - 1
        si = -s[i]
        energy += 2.0 * si * field[i]
        s[i] = si
        field += (2.0 * si) * J[i]
        if energy < best_e:
            best_e, best_s = energy, s.copy()
    return best_s.astype(np.int8), best_e
