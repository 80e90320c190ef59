"""Canonical data model for QUBO / Ising / HUBO problems and energy evaluation.

Conventions used throughout the toolkit:

* Ising energy:  H(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i + offset,
  with spins s_i in {-1, +1}.
* QUBO energy:   Q(x) = sum_{i<=j} Q_ij x_i x_j + offset, bits x_i in {0, 1}.
* HUBO energy:   sum over terms of coeff * prod of selected entries.  A HUBO
  carries no separate offset; constants live in a degree-0 term.
* sign(0) = +1 everywhere.

Quadratic models are built from (rows, cols, values) columns by
``from_arrays`` (``from_terms`` takes an iterable of (i, j, v) and forwards
its columns).  Pairs are swapped to i <= j and sorted; a pair given more
than once is summed in input order, starting from 0.0, exactly as
``acc[(i, j)] = acc.get((i, j), 0.0) + v`` over the terms would (so a lone
-0.0 is stored as 0.0).  The same columns therefore give the same bits
whichever constructor is used.

A HUBO model holds one block per order k (``HuboModel.blocks``): an (m, k)
index matrix of sorted rows, unique and in lexicographic order, and its
coefficients.  ``HuboModel.from_arrays`` builds it from such blocks and
``from_terms`` from (indices, coefficient) terms, summing a repeated term as
a repeated pair is summed; every HUBO path works order by order.

Each model has one evaluator, ``energies(states)`` on a (replicas, n)
block; ``energy(v)`` validates ``v`` and returns ``energies(v[None])[0]``.
A row's energy has the same bits alone or in a batch of any size, so a
state has one energy everywhere: in sample sets, in the exact solvers and
in the CLI report.  Two rules keep a row's bits independent of the batch:

* an Ising model's product with its coupling operator runs row by row
  (``_row_product``): a dense operator through one GEMV per row, a CSR one
  through scipy's product, which adds each entry's terms in ascending
  column order whatever the number of vectors (GEMM gives a row different
  bits inside a batch).  QUBO and HUBO energies are term products
  (``_term_sums``): each term's coefficient times its gathered entries, a
  QUBO being one block of order 2 whose diagonal terms are linear
  (x_i x_i = x_i for bits);
* every row sum runs over C-contiguous rows, where numpy sums each row
  pairwise on its own (on other layouts it may sum column by column, and
  the bits then depend on the number of rows).

Every structure derived from a quadratic model is computed from its pair
columns: the colour classes and the dense coupling matrix with numpy, the
CSR coupling operator with scipy's COO -> CSR conversion.  scipy.sparse is
imported only there, and ``is_sparse`` answers without it, so a run that
never builds a CSR operator (dense models, QUBO energies, colouring) never
loads scipy.sparse.

Models are immutable after construction (arrays are frozen) and therefore
safe to share across concurrent workers; all evaluation is stateless.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_count, check_finite_real

# IsingModel.coupling_operator(), which batch products run through, is dense
# only for models of at most DENSE_OPERATOR_MAX_N variables (the matrix is
# 32 MiB at the cap) whose operator has at least DENSE_OPERATOR_MIN_FILL of
# its n^2 entries non-zero; otherwise it is CSR.
# The fill threshold is where the three replica kernels disagree (ms per step,
# dense -> CSR, 128 replicas; 2 CPUs, numpy 2.4, scipy 1.17).  With PA and SBM
# on spin-major blocks and scipy's native CSR product, CSR is faster for them
# up to about 6% fill: PA 1.06 -> 0.42 and SBM 1.04 -> 0.54 at 1.5% (reduced
# 3R3X, n=400), 0.34 -> 0.22 and 0.39 -> 0.25 at 3.1% (n=192), 0.17 -> 0.12
# and 0.21 -> 0.15 at 6.2% (n=96); at 6.25% (tile, n=64) and 12.4% (reduced
# 3R3X, n=48) the two are within 15%.  SA, on spin-major replicas with
# class updates dS @ A[C], is faster on CSR at 1.5% and about even at 3.1%
# (ms per sweep, 40 sweeps, medians of 7 interleaved runs, three runs):
# 4.37-5.07 -> 3.43-3.77 at 1.5%, 1.84-2.26 -> 1.43-2.14 at 3.1%, 0.97-1.31
# -> 0.83-1.44 at 4.3% (Chimera, n=128), 0.77-1.09 -> 0.99-1.49 at 6.1%
# (reduced 3R3X, n=96).  1/32 sits near SA's break-even, below PA's and SBM's.
DENSE_OPERATOR_MAX_N = 2048
DENSE_OPERATOR_MIN_FILL = 1 / 32

# Products per replica chunk in the term products of QUBO and HUBO energies
# (``_term_sums``): at gen_mw3s n=10^5 with 64 replicas, chunks of 2^16 to
# 2^18 took 0.24-0.29 s with a 2-3 MB tracemalloc peak, against 1.4 s and
# 256 MB unchunked (2 CPUs, numpy 2.4).
TERM_CHUNK_ENTRIES = 2 ** 17

# One quadratic term (i, j, v) as a structured record.
TERM_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

SPIN_DOMAIN = "spin"
BINARY_DOMAIN = "binary"


def sign_pm(x: np.ndarray) -> np.ndarray:
    """Sign with the global tie-break sign(0) = +1, returned as int8 spins
    (selected from int8 scalars, so no wider block is built)."""
    return np.where(np.asarray(x) >= 0, np.int8(1), np.int8(-1))


def as_spins(values, n: int | None = None) -> np.ndarray:
    """Validate and return a spin vector (entries exactly -1 or +1)."""
    v = np.asarray(values)
    if v.ndim != 1:
        raise ValidationError(f"spin vector must be 1-d, got shape {v.shape}")
    if v.dtype.kind not in "biuf" or not np.all(np.abs(v) == 1):
        raise ValidationError("spin vector entries must be -1 or +1")
    if n is not None and v.shape[0] != n:
        raise ValidationError(f"spin vector has length {v.shape[0]}, expected {n}")
    return v.astype(np.int8)


def as_bits(values, n: int | None = None) -> np.ndarray:
    """Validate and return a binary vector (entries exactly 0 or 1)."""
    v = np.asarray(values)
    if v.ndim != 1:
        raise ValidationError(f"binary vector must be 1-d, got shape {v.shape}")
    if not np.all((v == 0) | (v == 1)):
        raise ValidationError("binary vector entries must be 0 or 1")
    if n is not None and v.shape[0] != n:
        raise ValidationError(f"binary vector has length {v.shape[0]}, expected {n}")
    return v.astype(np.int8)


def spins_to_bits(s) -> np.ndarray:
    """Map spins to bits through x = (1 + s) / 2."""
    return ((1 + as_spins(s)) // 2).astype(np.int8)


def bits_to_spins(x) -> np.ndarray:
    """Map bits to spins through s = 2x - 1."""
    return (2 * as_bits(x) - 1).astype(np.int8)


def _canonical_pairs(n: int, rows, cols, values,
                     allow_diagonal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate (i, j, v) term arrays into sorted upper-triangular arrays.

    Swapped index pairs are normalized to i <= j.  Duplicates are summed in
    input order into 0.0, as ``acc[(i, j)] = acc.get((i, j), 0.0) + v`` over
    the terms would (so -0.0 becomes 0.0): ``np.add.at`` applies repeated
    indices one after another in array order.  Input whose keys
    lo * n + hi already strictly increase skips the sort and the sum.

    int64 index columns (from the generators, ``np.loadtxt`` and the
    transforms) are paired as they are; columns of any other dtype go
    through an int64 copy that flags the terms whose indices are not
    integers.
    """
    rows, cols = np.ravel(rows), np.ravel(cols)
    values = np.asarray(values, dtype=np.float64).ravel()
    if not rows.shape == cols.shape == values.shape:
        raise ValidationError(
            f"term arrays differ in length: {rows.size}, {cols.size}, {values.size}")
    if rows.dtype == cols.dtype == np.int64:
        non_integer = None
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    else:
        # an (m, 2) view of the (2, m) stack: the int64 copy keeps its
        # layout, so lo and hi below read contiguous columns
        pairs, non_integer = _as_indices(np.stack([rows, cols]).T)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
    bad = _bad_pairs(n, lo, hi, values, allow_diagonal)
    if non_integer is not None:
        bad |= non_integer
    if bad.any():
        k = int(bad.argmax())  # the first bad term, checked as the term loop would
        i, j = int(lo[k]), int(hi[k])
        if non_integer is not None and non_integer[k]:
            raise ValidationError(f"term index pair ({rows[k]}, {cols[k]}) "
                                  "is not a pair of integers")
        if not 0 <= i <= j < n:
            raise ValidationError(f"term index pair ({i}, {j}) out of range for n={n}")
        if i == j and not allow_diagonal:
            raise ValidationError(f"diagonal coupling ({i}, {i}) not allowed; use the linear field")
        raise ValidationError(f"non-finite coefficient for pair ({i}, {j})")
    keys = _pair_keys(n, lo, hi)
    if np.all(keys[1:] > keys[:-1]):
        # already sorted and unique (generator pairs, written files): each
        # sum is 0.0 + v, which turns -0.0 into 0.0 as np.add.at does;
        # the keys go before that copy is made
        del keys
        return lo, hi, values + 0.0
    keys, inverse = np.unique(keys, return_inverse=True)
    vals = np.zeros(keys.size, dtype=np.float64)
    np.add.at(vals, inverse, values)
    return keys // n, keys % n, vals


def _bad_pairs(n: int, lo: np.ndarray, hi: np.ndarray, values: np.ndarray,
               allow_diagonal: bool) -> np.ndarray:
    """Per swapped pair (lo <= hi), whether it is out of range for ``n``,
    has a non-finite value or, unless ``allow_diagonal``, is diagonal."""
    bad = (lo < 0) | (hi >= n) | ~np.isfinite(values)
    if not allow_diagonal:
        bad |= lo == hi
    return bad


def _pair_keys(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sort keys lo * n + hi of swapped pairs, built in one array."""
    keys = np.multiply(lo, n)
    keys += hi
    return keys


def _term_arrays(terms: Iterable[tuple[int, int, float]]):
    """(rows, cols, values) columns of an iterable of (i, j, v) terms; the
    indices stay floats, so ``_canonical_pairs`` sees any fraction."""
    t = np.fromiter(map(tuple, terms), dtype=np.dtype((np.float64, 3)))
    return t[:, 0], t[:, 1], t[:, 2]


def is_sparse(op) -> bool:
    """Whether ``op`` is a scipy sparse array.  Until something imports
    scipy.sparse nothing can be one, so a dense run never loads scipy."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(op)


def block_order(op) -> str:
    """Memory order of the (replicas, n) blocks that multiply ``op``:
    "F" (spin-major) when ``op`` is CSR, "C" when it is dense.

    A spin-major block's transpose is C-contiguous, so ``op @ X.T`` runs
    scipy's native CSR multi-vector kernel without a copy.  ``X @ op`` makes
    no copy either: scipy transposes both sides and runs the CSC kernel on
    ``op.T``, with the bits of ``(op @ X.T).T`` (both add each row's terms
    in ascending column order).  ``block_product`` keeps the CSR form for a
    whole operator because it is faster: 0.09-0.10 ms against 0.15 ms for
    ``X @ op`` at tile L=32 with 64 float32 replicas (2 CPUs, scipy 1.17);
    simulated annealing multiplies by a class's rows ``X @ op[C]``, whose
    CSR form would need a transposed copy.  Dense blocks stay in C order
    because GEMM's bits depend on the output's memory order, and
    ``np.matmul(X, op, out=F)`` into a C-ordered F gives those of ``X @ op``.
    """
    return "F" if is_sparse(op) else "C"


def block_product(X: np.ndarray, op, out: np.ndarray) -> np.ndarray:
    """``X @ op`` for a (replicas, n) block held in ``block_order(op)``.

    ``op`` must be symmetric, as coupling operators are: a CSR product is
    computed as ``(op @ X.T).T`` and comes back as a new spin-major array.
    A dense product is written into ``out`` (C-ordered, shaped like X).
    """
    if is_sparse(op):
        return (op @ X.T).T
    return np.matmul(X, op, out=out)


def _row_product(X: np.ndarray, op) -> np.ndarray:
    """``X @ op`` for a C-ordered (replicas, n) block and a symmetric
    coupling operator, as a C-ordered array whose row r has the same bits
    as ``X[r:r+1] @ op`` alone; a CSR product is computed as ``op @ X.T``."""
    if is_sparse(op):
        return np.ascontiguousarray((op @ X.T).T)
    return np.matmul(X[:, None, :], op)[:, 0, :]


def _term_sums(V: np.ndarray, columns, coeffs: np.ndarray) -> np.ndarray:
    """Per row of the (replicas, n) block ``V``, the sum over terms t of
    ``coeffs[t]`` times ``V[:, col[t]]`` for each index column ``col`` in
    ``columns``.  Each row is summed on its own over a C-ordered block
    (row-invariant as the module docstring describes; products of +-1 and
    0/1 entries are exact).  Replicas go in chunks of about
    TERM_CHUNK_ENTRIES products, so temporaries stay a few MB."""
    sums = np.empty(V.shape[0])
    step = max(1, TERM_CHUNK_ENTRIES // max(1, coeffs.shape[0]))
    for r in range(0, V.shape[0], step):
        chunk = V[r:r + step]
        P = np.tile(coeffs, (chunk.shape[0], 1))
        for col in columns:
            P *= chunk[:, col]
        sums[r:r + step] = P.sum(axis=1)
    return sums


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IsingModel:
    """Sparse symmetric Ising model: couplings on i<j pairs, fields, offset."""

    n: int
    h: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    offset: float = 0.0

    @classmethod
    def from_arrays(cls, n: int, rows, cols, values, h=None,
                    offset: float = 0.0) -> "IsingModel":
        """Model from coupling columns; pairs are canonicalised as in
        ``_canonical_pairs`` (swapped to i < j, duplicates summed in order)."""
        check_count("n", n)
        check_finite_real("offset", offset)
        hv = np.zeros(n, dtype=np.float64) if h is None else np.asarray(h, dtype=np.float64)
        if hv.shape != (n,):
            raise ValidationError(f"field vector has shape {hv.shape}, expected ({n},)")
        if not np.all(np.isfinite(hv)):
            raise ValidationError("field vector must be finite")
        rows, cols, vals = _canonical_pairs(n, rows, cols, values, allow_diagonal=False)
        return cls(n=n, h=hv, rows=rows, cols=cols, values=vals, offset=float(offset))

    @classmethod
    def from_terms(cls, n: int, h=None, couplings: Iterable[tuple[int, int, float]] = (),
                   offset: float = 0.0) -> "IsingModel":
        return cls.from_arrays(n, *_term_arrays(couplings), h=h, offset=offset)

    def __post_init__(self):
        object.__setattr__(self, "h", _freeze(np.asarray(self.h, dtype=np.float64)))
        object.__setattr__(self, "rows", _freeze(np.asarray(self.rows, dtype=np.int64)))
        object.__setattr__(self, "cols", _freeze(np.asarray(self.cols, dtype=np.int64)))
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=np.float64)))

    @property
    def num_couplings(self) -> int:
        return int(self.values.shape[0])

    def couplings(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))

    def energy(self, s) -> float:
        return float(self.energies(as_spins(s, self.n)[None])[0])

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Batch energies for a (replicas, n) array of spin states.

        Evaluated as rowsum(S * (1/2 S A + h)) + offset through
        ``coupling_operator()``, row-invariant as the module docstring
        describes; the temporaries grow with replicas x n, never with
        replicas x couplings.
        """
        S = np.ascontiguousarray(states, dtype=np.float64)
        P = _row_product(S, self.coupling_operator())
        P *= 0.5
        P += self.h
        P *= S
        return P.sum(axis=1) + self.offset

    @cached_property
    def _matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.float64)
        A[self.rows, self.cols] = self.values
        A[self.cols, self.rows] = self.values
        A.setflags(write=False)
        return A

    def coupling_matrix(self) -> np.ndarray:
        """Dense symmetric coupling matrix with zero diagonal (read-only)."""
        return self._matrix

    @cached_property
    def _csr(self):
        """The symmetric coupling matrix through scipy's COO -> CSR
        conversion of every pair stored both ways."""
        import scipy.sparse as sp

        return sp.csr_array((np.concatenate([self.values, self.values]),
                             (np.concatenate([self.rows, self.cols]),
                              np.concatenate([self.cols, self.rows]))), shape=(self.n, self.n))

    def coupling_operator(self):
        """Symmetric coupling matrix: dense when the model is small and filled
        enough for BLAS to beat CSR (see DENSE_OPERATOR_MIN_FILL), else CSR."""
        n, nnz = self.n, 2 * self.num_couplings
        dense = n <= DENSE_OPERATOR_MAX_N and nnz >= DENSE_OPERATOR_MIN_FILL * n ** 2
        return self._matrix if dense else self._csr

    @cached_property
    def _colour_classes(self) -> tuple[np.ndarray, ...]:
        # spin i's lower neighbours are the rows of the pairs (r, i), listed
        # between bounds[i] and bounds[i + 1] once the pairs are sorted
        # stably by column; all of them are coloured before i
        lower = self.rows[np.argsort(self.cols, kind="stable")]
        bounds = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cols, minlength=self.n), out=bounds[1:])
        colour = np.empty(self.n, dtype=np.int64)
        for i in range(self.n):
            used = colour[lower[bounds[i]:bounds[i + 1]]]
            # The smallest free colour is at most the number of lower neighbours.
            free = np.ones(used.size + 1, dtype=bool)
            free[used[used <= used.size]] = False
            colour[i] = free.argmax()
        order = np.argsort(colour, kind="stable")
        return tuple(_freeze(c) for c in np.split(order, np.cumsum(np.bincount(colour))[:-1]))

    def colour_classes(self) -> tuple[np.ndarray, ...]:
        """Greedy colouring of the coupling graph in index order, as classes.

        Spin i takes the smallest colour that no lower-indexed neighbour
        holds; those neighbours are read from the pair columns sorted by
        column, so colouring builds no coupling operator.  Each class is an
        independent set listed in ascending index order, and the classes
        come in colour order, so together they partition range(n); on a
        complete graph class k is [k].  Computed once per model.
        """
        return self._colour_classes

    @cached_property
    def row_weights(self) -> np.ndarray:
        """|h_i| + sum_j |J_ij| per spin (read-only)."""
        row = np.abs(self.h)
        np.add.at(row, self.rows, np.abs(self.values))
        np.add.at(row, self.cols, np.abs(self.values))
        return _freeze(row)

    @cached_property
    def field_scale(self) -> float:
        """max_i (|h_i| + sum_j |J_ij|): dominates the gradient of H."""
        return float(self.row_weights.max()) if self.n else 0.0


@dataclass(frozen=True)
class QuboModel:
    """Sparse QUBO: terms on i<=j pairs (i=j is the linear/diagonal term)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    offset: float = 0.0

    @classmethod
    def from_arrays(cls, n: int, rows, cols, values, offset: float = 0.0) -> "QuboModel":
        """Model from term columns (i == j is a linear term), canonicalised
        as in ``_canonical_pairs``."""
        check_count("n", n)
        check_finite_real("offset", offset)
        rows, cols, vals = _canonical_pairs(n, rows, cols, values, allow_diagonal=True)
        return cls(n=n, rows=rows, cols=cols, values=vals, offset=float(offset))

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[int, int, float]] = (),
                   offset: float = 0.0) -> "QuboModel":
        return cls.from_arrays(n, *_term_arrays(terms), offset=offset)

    def __post_init__(self):
        object.__setattr__(self, "rows", _freeze(np.asarray(self.rows, dtype=np.int64)))
        object.__setattr__(self, "cols", _freeze(np.asarray(self.cols, dtype=np.int64)))
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=np.float64)))

    @property
    def num_terms(self) -> int:
        return int(self.values.shape[0])

    def terms(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))

    def energy(self, x) -> float:
        return float(self.energies(as_bits(x, self.n)[None])[0])

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Batch energies for a (replicas, n) array of bit states: the term
        product ``_term_sums`` over the (rows, cols) columns, where a linear
        term i == j gives x_i x_i = x_i, plus the offset.  Row-invariant as
        the module docstring describes; the temporaries stay a few MB."""
        return _term_sums(np.asarray(states), (self.rows, self.cols), self.values) + self.offset


def _as_indices(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 copy of an (m, k) index matrix, and per row whether it holds a
    value that is not an integer (NaN and inf included).  The comparison is
    laid out column-major, so the per-row reduction runs down contiguous
    columns rather than row by row.  A matrix of strings, bytes or objects
    is a ValidationError."""
    if idx.dtype.kind not in "biuf":
        raise ValidationError(f"term indices must be integers, got an array of {idx.dtype}")
    with np.errstate(invalid="ignore"):
        rows = idx.astype(np.int64)
    return rows, np.not_equal(rows, idx, order="F").any(axis=1)


def _term_blocks(terms: Iterable[tuple[Sequence[int], float]]):
    """(index matrix, coefficients) of each run of terms of one order."""
    for k, run in itertools.groupby(terms, key=lambda term: len(term[0])):
        idx, coeffs = zip(*run)
        yield np.array(idx).reshape(len(idx), k), np.array(coeffs, dtype=np.float64)


@dataclass(frozen=True)
class HuboModel:
    """Higher-order polynomial over spin or binary variables, held as one
    (index matrix (m, k), coefficients (m,)) block per order k present, in
    ascending order (see the module docstring); the order-0 block holds the
    constant.  ``max_order`` is the declared order cap P."""

    n: int
    domain: str
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    max_order: int

    @classmethod
    def from_arrays(cls, n: int, domain: str, blocks, max_order: int | None = None) -> "HuboModel":
        """Model from (index matrix, coefficients) blocks in any order, several
        per order allowed.  The first bad term in input order is a
        ValidationError: a non-integer, repeated or out-of-range index, or a
        non-finite coefficient, checked in that order.  A repeated term is
        summed in input order into 0.0, as ``_canonical_pairs`` sums."""
        check_count("n", n)
        if domain not in (SPIN_DOMAIN, BINARY_DOMAIN):
            raise ValidationError(f"unknown domain {domain!r}")
        by_order: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for idx, coeffs in blocks:
            idx, coeffs = np.asarray(idx), np.asarray(coeffs, dtype=np.float64)
            if idx.ndim != 2 or coeffs.shape != idx.shape[:1]:
                raise ValidationError(f"index block {idx.shape} needs one coefficient per row")
            rows, non_integer = _as_indices(idx)
            rows.sort(axis=1)
            repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
            outside = (rows[:, :1] < 0).any(axis=1) | (rows[:, -1:] >= n).any(axis=1)
            bad = non_integer | repeated | outside | ~np.isfinite(coeffs)
            if bad.any():
                t = int(bad.argmax())
                key = tuple(rows[t].tolist())
                raise ValidationError(
                    f"term {tuple(idx[t].tolist())} has a non-integer index" if non_integer[t]
                    else f"term {key} repeats an index" if repeated[t]
                    else f"term {key} out of range for n={n}" if outside[t]
                    else f"non-finite coefficient for term {key}")
            if rows.shape[0]:
                by_order.setdefault(rows.shape[1], []).append((rows, coeffs))
        order = max(by_order, default=1)
        if max_order is None:
            max_order = max(order, 1)
        check_count("max_order", max_order)
        if order > max_order:
            raise ValidationError(f"term of order {order} exceeds declared max_order {max_order}")
        merged = []
        for _, parts in sorted(by_order.items()):
            rows, coeffs = map(np.concatenate, zip(*parts))
            ranking = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(rows.shape[0])
            ranked = rows[ranking]
            first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
            inverse = np.empty_like(ranking)
            inverse[ranking] = np.cumsum(first) - 1
            values = np.zeros(int(first.sum()))
            np.add.at(values, inverse, coeffs)
            merged.append((_freeze(ranked[first]), _freeze(values)))
        return cls(n=n, domain=domain, blocks=tuple(merged), max_order=int(max_order))

    @classmethod
    def from_terms(cls, n: int, domain: str,
                   terms: Iterable[tuple[Sequence[int], float]],
                   max_order: int | None = None) -> "HuboModel":
        """``from_arrays`` of each run of consecutive terms of one order."""
        return cls.from_arrays(n, domain, _term_blocks(terms), max_order=max_order)

    @property
    def num_terms(self) -> int:
        return sum(c.shape[0] for _, c in self.blocks)

    def terms(self) -> list[tuple[tuple[int, ...], float]]:
        return list(itertools.chain.from_iterable(
            zip(map(tuple, idx.tolist()), c.tolist()) for idx, c in self.blocks))

    def _check_domain(self, v) -> np.ndarray:
        if self.domain == SPIN_DOMAIN:
            return as_spins(v, self.n)
        return as_bits(v, self.n)

    def energy(self, v) -> float:
        return float(self.energies(self._check_domain(v)[None])[0])

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Batch energies for a (replicas, n) array of domain states: per
        order, the term product ``_term_sums`` over the k index columns,
        added in ascending order."""
        V = np.asarray(states)
        total = np.zeros(V.shape[0])
        for idx, coeffs in self.blocks:
            total += _term_sums(V, idx.T, coeffs)
        return total


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping for a cubic-to-quadratic reduction.

    One auxiliary spin per cubic term; ``aux_bindings`` lists
    (aux_index, (i, j, k)).  Reduced and original optima are related by
    ``reduced = energy_scale * original + energy_shift`` (the gadget used here
    is exact, so scale is 1 and shift 0, but the affine record is kept).
    """

    original_n: int
    aux_bindings: tuple[tuple[int, tuple[int, int, int]], ...] = ()
    energy_scale: float = 1.0
    energy_shift: float = 0.0

    def __post_init__(self):
        if self.energy_scale <= 0:
            raise ValidationError("energy_scale must be positive")
        aux, trips = zip(*self.aux_bindings) if self.aux_bindings else ((), ())
        t = np.asarray(trips).reshape(-1, 3)
        misplaced = np.asarray(aux) != self.original_n + np.arange(len(aux))
        unsorted = (t[:, 0] >= t[:, 1]) | (t[:, 1] >= t[:, 2])
        if misplaced.any() or unsorted.any():
            pos = int((misplaced | unsorted).argmax())
            if misplaced[pos]:
                raise ValidationError("aux indices must be contiguous from original_n")
            raise ValidationError(f"binding triple {trips[pos]} must be strictly increasing")

    @property
    def reduced_n(self) -> int:
        return self.original_n + len(self.aux_bindings)

    def lift(self, reduced) -> np.ndarray:
        return as_spins(reduced, self.reduced_n)[: self.original_n].copy()

