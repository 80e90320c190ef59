"""Bitwise checks of the array construction core against per-term loops.

Models built by ``from_arrays``/``from_terms``, ``gen_random``, the
QUBO <-> Ising conversions, the HUBO spin expansion and cubic reduction and
the instance readers must carry the same bytes as the dict-and-loop
construction in ``oracles``; written files must be the same bytes as the
term-by-term formatting.
"""

import io
import json
import warnings

import numpy as np
import pytest

from qubokit import (
    HuboModel,
    IsingModel,
    QuboModel,
    ValidationError,
    model_from_dict,
    model_to_dict,
    read_instance,
    write_instance,
)
from qubokit.generators import (
    _chimera_edges,
    gen_3r3x,
    gen_chain3,
    gen_mw3s,
    gen_random,
    rng_stream,
)
from qubokit.instance_io import _WRITE_LINES
from qubokit.model import _canonical_pairs
from qubokit.transforms import hubo_to_spin_domain, ising_to_qubo, qubo_to_ising, reduce_cubic

from oracles import (
    canonical_pairs_loop,
    chimera_edges_loop,
    hubo_terms_loop,
    hubo_text_loop,
    hubo_to_spin_loop,
    ising_to_qubo_loop,
    quadratic_terms_loop,
    quadratic_text_loop,
    qubo_to_ising_loop,
    read_hubo_loop,
    read_quadratic_loop,
    reduce_cubic_loop,
)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_model_is(model, h, rows, cols, values, offset):
    if h is not None:
        same_bytes(model.h, h)
    same_bytes(model.rows, rows)
    same_bytes(model.cols, cols)
    same_bytes(model.values, values)
    same_bytes(np.float64(model.offset), np.float64(offset))


def awkward_terms(n: int, seed: int, diagonal: bool) -> list[tuple[int, int, float]]:
    """Swapped pairs, a pair repeated four times, -0.0 and unsorted order."""
    rng = np.random.default_rng(seed)
    terms = [(int(i), int(j), float(v)) for i, j, v in
             zip(rng.integers(0, n, 80), rng.integers(0, n, 80), rng.standard_normal(80))
             if diagonal or i != j]
    terms += [(3, 1, 0.1), (1, 3, 0.2), (3, 1, 0.3), (1, 3, -1e-17)]
    terms += [(0, n - 1, -0.0), (n - 2, 2, -0.0), (2, n - 2, -0.0)]
    if diagonal:
        terms += [(4, 4, -0.0), (5, 5, 0.7), (5, 5, -0.7 / 3)]
    return terms


def columns(terms):
    i, j, v = zip(*terms)
    return np.array(i), np.array(j), np.array(v)


def random_qubo_terms(n: int, seed: int) -> list[tuple[int, int, float]]:
    rng = np.random.default_rng(seed)
    return [(i, j, float(rng.standard_normal())) for i in range(n) for j in range(i, n)
            if rng.random() < 0.5]


def gen_random_loop(edges, nvars, draw):
    """(h, rows, cols, values) of gen_random: couplings drawn, then biases."""
    vals = draw(len(edges))
    h = draw(nvars)
    couplings = [(i, j, float(v)) for (i, j), v in zip(edges, vals)]
    return (h, *canonical_pairs_loop(couplings, nvars, allow_diagonal=False))


def complete_with_offset(n: int, seed: int):
    m = gen_random("complete", "gaussian", seed, n=n)
    return IsingModel.from_arrays(n, m.rows, m.cols, m.values, h=m.h, offset=-2.5)


CONVERSION_MODELS = {
    "gaussian-complete-60": lambda: gen_random("complete", "gaussian", 60, n=60),
    # 19,900 couplings and 200 fields: more term lines than one written block
    "gaussian-complete-200-offset": lambda: complete_with_offset(200, 31),
    "chimera-2x2": lambda: gen_random("chimera", "uniform", 22, rows=2, cols=2),
    "awkward": lambda: IsingModel.from_terms(
        12, h=np.random.default_rng(3).standard_normal(12),
        couplings=awkward_terms(12, 3, diagonal=False), offset=-0.3),
}


class TestCanonicalPairs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ising_matches_dict(self, seed):
        terms = awkward_terms(12, seed, diagonal=False)
        want = canonical_pairs_loop(terms, 12, allow_diagonal=False)
        assert_model_is(IsingModel.from_terms(12, couplings=terms), None, *want, 0.0)
        assert_model_is(IsingModel.from_arrays(12, *columns(terms)), None, *want, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_qubo_matches_dict(self, seed):
        terms = awkward_terms(12, seed, diagonal=True)
        want = canonical_pairs_loop(terms, 12, allow_diagonal=True)
        assert_model_is(QuboModel.from_terms(12, terms=terms), None, *want, 0.0)
        assert_model_is(QuboModel.from_arrays(12, *columns(terms)), None, *want, 0.0)

    def test_duplicates_sum_in_input_order(self):
        # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit.
        m = IsingModel.from_terms(2, couplings=[(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3)])
        assert m.values[0] == (0.1 + 0.2) + 0.3
        m = IsingModel.from_terms(2, couplings=[(0, 1, 0.3), (1, 0, 0.2), (0, 1, 0.1)])
        assert m.values[0] == (0.3 + 0.2) + 0.1

    def test_negative_zero_becomes_zero(self):
        m = QuboModel.from_arrays(3, [0, 2], [0, 1], [-0.0, -0.0])
        assert not np.signbit(m.values).any()

    @pytest.mark.parametrize("allow_diagonal", [False, True])
    def test_canonical_input_equals_sort_path(self, allow_diagonal):
        # sorted unique pairs skip the sort; the same terms swapped, shuffled
        # or repeated with -0.0 go through it and must give the same bits
        n, rng = 30, np.random.default_rng(11)
        i, j = np.triu_indices(n, k=0 if allow_diagonal else 1)
        keep = rng.random(i.size) < 0.5
        i, j = i[keep], j[keep]
        v = rng.standard_normal(i.size)
        v[::7] = -0.0
        want = _canonical_pairs(n, i, j, v, allow_diagonal)
        assert not np.signbit(want[2][v == 0.0]).any()
        for w, loop in zip(want, canonical_pairs_loop(zip(i, j, v), n, allow_diagonal)):
            same_bytes(w, loop)
        order = rng.permutation(i.size)
        for rows, cols, values in ((j, i, v), (i[order], j[order], v[order]),
                                   (np.r_[i, i], np.r_[j, j], np.r_[v, -0.0 * v])):
            for got, w in zip(_canonical_pairs(n, rows, cols, values, allow_diagonal), want):
                same_bytes(got, w)

    def test_first_bad_term_reported(self):
        with pytest.raises(ValidationError, match=r"pair \(0, 5\) out of range"):
            IsingModel.from_terms(3, couplings=[(1, 2, 1.0), (5, 0, 1.0), (0, 1, np.nan)])
        with pytest.raises(ValidationError, match="non-finite coefficient for pair \\(0, 1\\)"):
            IsingModel.from_terms(3, couplings=[(1, 0, np.inf), (5, 0, 1.0)])
        with pytest.raises(ValidationError, match=r"diagonal coupling \(2, 2\)"):
            IsingModel.from_arrays(3, [0, 2], [1, 2], [1.0, 1.0])

    @pytest.mark.parametrize("cls", [IsingModel, QuboModel])
    def test_int64_and_float64_columns_agree(self, cls):
        # int64 columns skip the integer check; float columns of the same
        # terms must give the same bits and the same first-bad-term error
        diagonal = cls is QuboModel
        rows, cols, values = columns(awkward_terms(12, 4, diagonal=diagonal))
        assert rows.dtype == cols.dtype == np.int64
        want = cls.from_arrays(12, rows, cols, values)
        got = cls.from_arrays(12, rows.astype(np.float64), cols.astype(np.float64), values)
        assert_model_is(got, None, want.rows, want.cols, want.values, want.offset)
        bad_terms = [([1, 5, 0], [2, 0, 1], [1.0, 1.0, np.nan]),
                     ([1, 0, 5], [0, 1, 0], [np.inf, 1.0, 1.0]),
                     ([1, 4, 2], [2, 1, 9], [1.0, np.nan, 1.0]),
                     ([-1, 0], [1, 1], [1.0, 1.0])]
        if not diagonal:
            bad_terms.append(([0, 2, 7], [1, 2, 0], [1.0, 1.0, 1.0]))
        for r, c, v in bad_terms:
            messages = []
            for dtype in (np.int64, np.float64):
                with pytest.raises(ValidationError) as info:
                    cls.from_arrays(5, np.array(r, dtype=dtype), np.array(c, dtype=dtype), v)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValidationError, match=r"\(0.5, 1.7\) is not a pair of integers"):
            IsingModel.from_arrays(3, [0.5], [1.7], [1.0])
        with pytest.raises(ValidationError, match=r"\(1.5, 2.9\) is not a pair of integers"):
            QuboModel.from_terms(3, [(0, 1, 1.0), (1.5, 2.9, 1.0), (5, 0, 1.0)])
        with pytest.raises(ValidationError, match=r"\(nan, 1.0\) is not a pair of integers"):
            IsingModel.from_arrays(3, [np.nan], [1.0], [1.0])

    def test_column_lengths_checked(self):
        with pytest.raises(ValidationError):
            QuboModel.from_arrays(3, [0, 1], [1], [1.0, 2.0])

    def test_term_lists_are_python_numbers(self):
        m = gen_random("complete", "gaussian", 5, n=6)
        assert m.couplings() == [(int(i), int(j), float(v))
                                 for i, j, v in zip(m.rows, m.cols, m.values)]
        assert all(type(i) is int and type(v) is float for i, _, v in m.couplings())
        q = ising_to_qubo(m)
        assert q.terms() == [(int(i), int(j), float(v)) for i, j, v in zip(q.rows, q.cols, q.values)]


def block_edge_model(lines: int, qubo: bool):
    """A model of exactly ``lines`` term lines: fields (QUBO diagonal
    terms), an offset and awkward values, -0.0 among them.  It is built by
    the dataclass constructor, so its -0.0 values are written as such."""
    n = 200
    rng = np.random.default_rng(lines)
    fields = 0 if qubo else 37
    i, j = np.triu_indices(n, k=0 if qubo else 1)
    i, j = i[:lines - fields], j[:lines - fields]
    v = rng.standard_normal(i.size)
    v[::97], v[1::101], v[5], v[6] = -0.0, 3.0, 1e-300, -123456789.125
    if qubo:
        return QuboModel(n=n, rows=i, cols=j, values=v, offset=-2.5)
    h = np.zeros(n)
    h[rng.choice(n, fields, replace=False)] = rng.standard_normal(fields)
    h[np.flatnonzero(h == 0.0)[:5]] = -0.0  # a -0.0 field is no term line
    return IsingModel(n=n, h=h, rows=i, cols=j, values=v, offset=-2.5)


def _edit_body(text: str, extra: str = "", step: int = 0, comment: str = "") -> str:
    """``text`` with ``extra`` lines after its header line, and ``comment``
    appended to every ``step``-th term line, or, when ``step`` is 0, put
    mid-body as a line of its own."""
    lines = text.split("\n")
    k = next(k for k, line in enumerate(lines) if line and not line.startswith("#"))
    body = lines[k + 1:]
    if step:
        body[:-1:step] = [line + comment for line in body[:-1:step]]
    elif comment:
        body.insert(len(body) // 2, comment)
    return "\n".join(lines[:k + 1] + ([extra] if extra else []) + body)


TEXT_EDITS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone-cr": lambda t: t.replace("\n", "\r"),
    "utf8-comments": lambda t: "# café, Ærøskøbing ✓\n#  naïve 🙂\n" + t,
    "between-header-and-body": lambda t: _edit_body(t, extra="\n   \t\n# a comment\n  # café"),
    "offset-in-body": lambda t: _edit_body(t, comment="  # offset: 0.25"),
    "trailing-comments": lambda t: _edit_body(t, step=7, comment="  # a term, ✓"),
    "all": lambda t: "# ünï\n" + _edit_body(
        _edit_body(_edit_body(t, step=5, comment=" # x"), comment="# offset: 1e-3"),
        extra="\n# between").replace("\n", "\r\n"),
}


class TestGenerators:
    def test_complete_gaussian(self):
        n = 60
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng = rng_stream(60)
        assert_model_is(gen_random("complete", "gaussian", 60, n=n),
                        *gen_random_loop(edges, n, rng.standard_normal), 0.0)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 1)])
    def test_chimera_edges(self, shape):
        nvars, edges = _chimera_edges(*shape)
        assert nvars == 8 * shape[0] * shape[1]
        assert [tuple(e) for e in edges.tolist()] == chimera_edges_loop(*shape)

    def test_chimera_uniform(self):
        rng = rng_stream(22)
        assert_model_is(gen_random("chimera", "uniform", 22, rows=2, cols=2),
                        *gen_random_loop(chimera_edges_loop(2, 2), 32,
                                         lambda size: rng.uniform(-1.0, 1.0, size=size)), 0.0)

    def test_edge_list_with_swaps_and_repeats(self):
        edges = [(3, 0), (0, 3), (1, 2), (0, 3), (2, 1), (4, 0)]
        rng = rng_stream(9)
        draw = lambda size: rng.integers(-3, 4, size=size).astype(np.float64)  # noqa: E731
        assert_model_is(gen_random("edge_list", "int_uniform", 9, edges=edges, a=-3, b=3),
                        *gen_random_loop(edges, 5, draw), 0.0)

    def test_edge_list_shape_checked(self):
        with pytest.raises(ValidationError):
            gen_random("edge_list", "gaussian", 1, edges=[(0, 1, 2)])


class TestConversions:
    @pytest.mark.parametrize("name", sorted(CONVERSION_MODELS))
    def test_ising_to_qubo(self, name):
        m = CONVERSION_MODELS[name]()
        assert_model_is(ising_to_qubo(m), None, *ising_to_qubo_loop(m))

    @pytest.mark.parametrize("name", sorted(CONVERSION_MODELS))
    def test_qubo_to_ising_round_trip(self, name):
        q = ising_to_qubo(CONVERSION_MODELS[name]())
        assert_model_is(qubo_to_ising(q), *qubo_to_ising_loop(q))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_qubo_with_diagonal_terms(self, seed):
        q = QuboModel.from_terms(20, terms=random_qubo_terms(20, seed), offset=0.25)
        assert np.any(q.rows == q.cols)
        assert_model_is(qubo_to_ising(q), *qubo_to_ising_loop(q))
        m = qubo_to_ising(q)
        assert_model_is(ising_to_qubo(m), None, *ising_to_qubo_loop(m))


class TestFiles:
    @pytest.mark.parametrize("name", sorted(CONVERSION_MODELS))
    def test_text_bytes_and_read_back(self, tmp_path, name):
        m = CONVERSION_MODELS[name]()
        for model in (m, ising_to_qubo(m)):
            p = write_instance(tmp_path / "m.txt", model)
            assert p.read_text() == quadratic_text_loop(model)
            _, _, h, *rest = read_quadratic_loop(p.read_text())
            assert_model_is(read_instance(p), h, *rest)

    @pytest.mark.parametrize("lines", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    @pytest.mark.parametrize("qubo", [False, True], ids=["ising", "qubo"])
    def test_block_edges(self, tmp_path, lines, qubo):
        model = block_edge_model(_WRITE_LINES + lines, qubo)
        p = write_instance(tmp_path / "m.txt", model)
        text = p.read_text()
        assert text == quadratic_text_loop(model)
        assert text.count("\n") == _WRITE_LINES + lines + 3  # format, offset, header
        _, _, h, *rest = read_quadratic_loop(text)
        assert_model_is(read_instance(p), h, *rest)

    @pytest.mark.parametrize("edit", sorted(TEXT_EDITS))
    @pytest.mark.parametrize("qubo", [False, True], ids=["ising", "qubo"])
    def test_edited_files_read_as_the_loop_reads(self, tmp_path, edit, qubo):
        model = block_edge_model(_WRITE_LINES + 1, qubo)
        text = TEXT_EDITS[edit](quadratic_text_loop(model))
        p = tmp_path / "m.txt"
        p.write_bytes(text.encode("utf-8"))
        _, _, h, *rest = read_quadratic_loop(text)
        assert_model_is(read_instance(p), h, *rest)

    def test_json_bytes_and_read_back(self, tmp_path):
        m = CONVERSION_MODELS["awkward"]()
        for model, domain in ((m, "spin"), (ising_to_qubo(m), "binary")):
            p = write_instance(tmp_path / "m.json", model)
            terms = quadratic_terms_loop(model)
            want = {"format": "quadratic", "n": model.n, "domain": domain,
                    "offset": model.offset, "terms": terms}
            assert p.read_text() == json.dumps(want, indent=2) + "\n"
            back = model_from_dict(model_to_dict(model))
            assert_model_is(back, getattr(model, "h", None), model.rows, model.cols,
                            model.values, model.offset)

    def test_hand_written_file(self, tmp_path):
        text = ("# a comment\n\n4 9 spin\n"
                "2 1 0.1\n1 2 0.2\n  # mid-body comment\n\n2 1 0.3\n"
                "3 3 -0.0\n1 1 0.5\n1 1 0.25\n4 2 -0.0\n1 4 1e-300\n2 3 7\n"
                "# offset: 1.5\n")
        p = tmp_path / "hand.txt"
        p.write_text(text)
        n, _, h, *rest = read_quadratic_loop(text)
        m = read_instance(p)
        assert m.n == n == 4 and m.offset == 1.5
        assert_model_is(m, h, *rest)

    def test_empty_body(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("# format: quadratic\n3 0 binary\n")
        q = read_instance(p)
        assert isinstance(q, QuboModel) and q.num_terms == 0 and q.n == 3

    @pytest.mark.parametrize("body", [
        "1 2 nan\n",              # non-finite value
        "1 5 1.0\n",              # pair out of range
        "1.5 2 1.0\n",            # non-integer index
        "1 2\n",                  # two fields
        "1 2 3 4.0\n",            # four fields
        "1 2 1.0\n1 2 1.0\n",     # term-count mismatch
    ])
    @pytest.mark.parametrize("fmt", ["", "# format: quadratic\n"])
    @pytest.mark.parametrize("domain", ["spin", "binary"])
    def test_bad_lines_rejected(self, tmp_path, body, fmt, domain):
        p = tmp_path / "bad.txt"
        p.write_text(f"{fmt}3 1 {domain}\n{body}")
        with pytest.raises(ValidationError):
            read_instance(p)

    @pytest.mark.parametrize("text, match", [
        ("2.5 1 spin\n1 2 1.0\n", "header"),
        ("3 1.0 spin\n1 2 1.0\n", "header"),
        ("# format: hubo\n3 1 spin\n1.5 1 2 1.0\n", "HUBO line"),
        ("# format: hubo\n3 1 spin\n2 1 x 1.0\n", "HUBO line"),
        ("# format: hubo\n3 1 spin\n2 1 2 abc\n", "HUBO line"),
        ("3 1 spin\n3 1 2.5 3 1.0\n", "HUBO line"),
    ], ids=["header-n", "header-m", "hubo-order", "hubo-index", "hubo-value", "guessed-hubo"])
    def test_non_integer_fields_rejected(self, tmp_path, text, match):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValidationError, match=match):
            read_instance(p)

    def test_index_truncated_by_numpy_rejected(self, tmp_path, monkeypatch):
        # numpy releases that deprecate, rather than reject, parsing "1.5" as
        # an integer warn and truncate it; that must still be an error
        loadtxt = np.loadtxt

        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(io.StringIO("1 2 1.0\n"), **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        p = tmp_path / "bad.txt"
        p.write_text("# format: quadratic\n3 1 binary\n1.5 2 1.0\n")
        with pytest.raises(ValidationError, match="quadratic line"):
            read_instance(p)

    def test_trailing_comments(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 2 binary\n1 2 1.0  # a pair\n3 3 2.0#a diagonal\n")
        assert read_instance(p).terms() == [(0, 1, 1.0), (2, 2, 2.0)]
        # a malformed line next to a commented one is a quadratic error, not a
        # HUBO one: the comment's words are not counted as fields
        p.write_text("3 2 binary\n1 2 1.0  # a pair\n1.5 3 2.0\n")
        with pytest.raises(ValidationError, match="quadratic line"):
            read_instance(p)

    def test_comment_only_body(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 0 spin\n  # nothing here\n\n")
        m = read_instance(p)
        assert isinstance(m, IsingModel) and m.num_couplings == 0 and m.n == 3

    def test_diagonal_coupling_rejected(self):
        with pytest.raises(ValidationError, match="diagonal coupling"):
            IsingModel.from_arrays(3, [1], [1], [1.0])

    @pytest.mark.parametrize("line", ["0 0 1.0", "3 3 1.0"])
    def test_field_index_out_of_range(self, tmp_path, line):
        p = tmp_path / "f.txt"
        p.write_text(f"2 1 spin\n{line}\n")
        with pytest.raises(ValidationError, match="field index"):
            read_instance(p)
        i = int(line[0])
        data = {"format": "quadratic", "n": 2, "domain": "spin", "terms": [[i, i, 1.0]]}
        with pytest.raises(ValidationError, match="field index"):
            model_from_dict(data)

    def test_bad_json_terms_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"format": "quadratic", "n": 2, "domain": "spin",
                             "terms": [[1, 2]]})


# HUBO: per-order index blocks against the dict loops that held one index
# tuple per term.

def awkward_hubo_terms(n: int, seed: int, max_k: int = 4) -> list[tuple[tuple, float]]:
    """Random terms of interleaved orders with unsorted indices, then
    repeats in other index orders, -0.0, two constants and a pair that
    sums to zero."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(8 * n):
        k = int(rng.integers(0, min(max_k, n) + 1))
        idx = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        terms.append((idx, float(rng.standard_normal())))
    terms += [((2, 0, 1), 0.1), ((1, 2, 0), 0.2), ((0, 1, 2), 0.3), ((), 0.5), ((), -0.0),
              ((n - 1,), -0.0), ((3, 1), 0.3), ((1, 3), -0.3)]
    return terms


def hubo_blocks_of(terms):
    """from_arrays blocks of the terms: one per order, rows in input order."""
    by_order = {}
    for idx, c in terms:
        by_order.setdefault(len(idx), []).append((idx, c))
    return [(np.array([i for i, _ in ts], dtype=np.int64).reshape(len(ts), k),
             np.array([c for _, c in ts])) for k, ts in sorted(by_order.items(), reverse=True)]


def same_terms(got, want):
    assert [k for k, _ in got] == [k for k, _ in want]
    assert [float(c).hex() for _, c in got] == [float(c).hex() for _, c in want]
    assert all(type(i) is int for k, _ in got for i in k)


HUBO_SIZES = [4, 7, 40, 200]


class TestHuboBlocks:
    @pytest.mark.parametrize("n", HUBO_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_terms_match_dict(self, n, seed):
        terms = awkward_hubo_terms(n, seed)
        want, max_order = hubo_terms_loop(n, terms)
        for h in (HuboModel.from_terms(n, "spin", terms),
                  HuboModel.from_arrays(n, "spin", hubo_blocks_of(terms))):
            same_terms(h.terms(), want)
            assert h.max_order == max_order and h.num_terms == len(want)
            for idx, c in h.blocks:
                assert idx.dtype == np.int64 and c.dtype == np.float64
                assert not idx.flags.writeable and not c.flags.writeable

    def test_duplicates_sum_in_input_order(self):
        h = HuboModel.from_terms(3, "spin", [((0, 1, 2), 0.1), ((2, 1, 0), 0.2), ((1, 0, 2), 0.3)])
        assert h.terms() == [((0, 1, 2), (0.1 + 0.2) + 0.3)]
        blocks = [(np.array([[2, 1, 0]]), [0.3]), (np.array([[0, 2, 1], [0, 1, 2]]), [0.2, 0.1])]
        assert HuboModel.from_arrays(3, "spin", blocks).terms() == [((0, 1, 2), (0.3 + 0.2) + 0.1)]

    def test_negative_zero_and_empty_blocks(self):
        h = HuboModel.from_arrays(3, "binary", [(np.zeros((0, 2), dtype=np.int64), []),
                                                (np.array([[1]]), [-0.0])])
        assert h.terms() == [((1,), 0.0)] and not np.signbit(h.blocks[0][1]).any()
        assert len(h.blocks) == 1 and h.max_order == 1

    @pytest.mark.parametrize("terms, max_order", [
        ([((0, 1), 1.0), ((2, 2), 1.0)], None),
        ([((0, 1), 1.0), ((5, 0), 1.0)], None),
        ([((0, 1), 1.0), ((-1,), 1.0)], None),
        ([((1, 0), np.nan), ((0, 0), 1.0)], None),
        ([((0, 1, 2), 1.0), ((3, 7), 1.0), ((1, 1, 2), 1.0)], None),
        ([((0, 1, 2), 1.0), ((1, 1, 2), 1.0), ((3, 7), 1.0)], None),
        ([((9, 0, 9), np.inf)], None),
        ([((0, 9), np.inf)], None),
        ([((0, 1, 2), 1.0)], 2),
    ])
    def test_first_bad_term_reported_as_the_loop_does(self, terms, max_order):
        with pytest.raises(ValueError) as want:
            hubo_terms_loop(4, terms, max_order=max_order)
        with pytest.raises(ValidationError) as got:
            HuboModel.from_terms(4, "spin", terms, max_order=max_order)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("build", [
        lambda: HuboModel.from_terms(3, "spin", [((0.5, 1), 1.0)]),
        lambda: HuboModel.from_arrays(3, "spin", [(np.array([[0.0, np.nan]]), [1.0])]),
        lambda: HuboModel.from_terms(3, "spin", [((0, 1), 1.0)], max_order=2.5),
        lambda: HuboModel.from_terms(3, "spin", [((0, 1), 1.0)], max_order=0),
        lambda: model_from_dict({"format": "quadratic", "n": 3, "domain": "spin",
                                 "terms": [[1.5, 2, 1.0]]}),
        lambda: model_from_dict({"format": "hubo", "n": 3, "domain": "spin",
                                 "terms": [[[1.5, 2], 1.0]]}),
        lambda: model_from_dict({"format": "hubo", "n": 3, "domain": "spin",
                                 "terms": [[[1, 2], 1.0]], "max_order": 2.5}),
    ], ids=["from_terms", "from_arrays-nan", "max_order", "max_order-0", "json-quadratic",
            "json-hubo", "json-max_order"])
    def test_non_integer_indices_rejected(self, build):
        with pytest.raises(ValidationError, match="integer"):
            build()

    def test_block_shapes_checked(self):
        with pytest.raises(ValidationError, match="coefficient per row"):
            HuboModel.from_arrays(3, "spin", [(np.array([[0, 1], [1, 2]]), [1.0])])

    @pytest.mark.parametrize("n", [3, 7, 40, 200])
    @pytest.mark.parametrize("seed", range(5))
    def test_spin_expansion_matches_dict(self, n, seed):
        terms = ([((0, 1, 2), 0.7), ((1,), -0.2), ((2, 0, 1), 0.1), ((), 0.1)] if n < 4
                 else awkward_hubo_terms(n, seed))
        h = HuboModel.from_terms(n, "binary", terms, max_order=4)
        same_terms(hubo_to_spin_domain(h).terms(), hubo_to_spin_loop(n, h.terms(), 4))

    @pytest.mark.parametrize("n", [4, 7, 40, 200])
    @pytest.mark.parametrize("seed", range(5))
    def test_reduction_matches_loop(self, n, seed):
        terms = awkward_hubo_terms(n, seed, max_k=3)
        terms += [((0, 1, 3), 0.0), ((n - 1, 0, 2), -1.25)]
        h = HuboModel.from_terms(n, "spin", terms)
        fields, rows, cols, vals, offset, bindings = reduce_cubic_loop(n, h.terms())
        reduced, rmap = reduce_cubic(h)
        assert_model_is(reduced, fields, rows, cols, vals, offset)
        assert rmap.aux_bindings == bindings and rmap.original_n == n

    @pytest.mark.parametrize("build", [
        lambda: gen_mw3s(40, 3), lambda: gen_chain3(12, 5), lambda: gen_3r3x(48, 2).model,
        lambda: HuboModel.from_terms(7, "binary", awkward_hubo_terms(7, 4)),
        # the lines of orders 1 to 3 span more than one written block
        lambda: gen_mw3s(_WRITE_LINES + 3, 6),
    ], ids=["mw3s", "chain3", "3r3x", "awkward-binary", "mw3s-blocks"])
    def test_text_and_json_bytes_and_read_back(self, tmp_path, build):
        h = build()
        p = write_instance(tmp_path / "h.txt", h)
        assert p.read_text() == hubo_text_loop(h.n, h.domain, h.terms())
        n, domain, want = read_hubo_loop(p.read_text())
        back = read_instance(p)
        assert (back.n, back.domain) == (n, domain)
        same_terms(back.terms(), want)
        p = write_instance(tmp_path / "h.json", h)
        data = {"format": "hubo", "n": h.n, "domain": h.domain, "max_order": h.max_order,
                "terms": [[[i + 1 for i in k], c] for k, c in h.terms()]}
        assert p.read_text() == json.dumps(data, indent=2) + "\n"
        same_terms(read_instance(p).terms(), h.terms())

    def test_hand_written_hubo_file(self, tmp_path):
        text = ("# format: hubo\n# a comment\n5 9 spin\n"
                "3 3 1 2 0.1\n2 2 1 0.2\n  # mid-body comment\n\n3 1 2 3 0.3\n"
                "0 4.0\n1 5 -0.0\n2 1 2 1e-300 # trailing\n0 -1.5\n4 5 4 3 2 7\n1 1 0.5\n")
        p = tmp_path / "hand.txt"
        p.write_text(text)
        n, domain, want = read_hubo_loop(text)
        h = read_instance(p)
        assert (h.n, h.domain, h.max_order) == (n, domain, 4)
        same_terms(h.terms(), want)

    @pytest.mark.parametrize("line", ["2 1 2 3 1.0", "2 1 1.0", "-1 1.0", "999999 1 1.0"])
    def test_hubo_line_field_count_checked(self, tmp_path, line):
        p = tmp_path / "bad.txt"
        p.write_text(f"# format: hubo\n3 2 spin\n1 1 0.5\n{line}\n")
        with pytest.raises(ValidationError, match="HUBO line"):
            read_instance(p)
