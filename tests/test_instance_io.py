"""Round-trip tests for the instance text/JSON formats and certificates."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qubokit import (
    HuboModel,
    IsingModel,
    QuboModel,
    ValidationError,
    read_certificate,
    read_instance,
    write_certificate,
    write_instance,
)
import qubokit.instance_io as instance_io
from qubokit.cli import main
from qubokit.generators import gen_3r3x, gen_chain3, gen_mw3s, gen_random, gen_tile, gen_wishart
from qubokit.model import TERM_DTYPE

from oracles import all_spin_states, certificate_text


def assert_same_ising(a: IsingModel, b: IsingModel):
    assert a.n == b.n
    assert np.array_equal(a.h, b.h)
    assert a.couplings() == b.couplings()
    assert a.offset == b.offset


class TestTextFormat:
    def test_ising_round_trip(self, tmp_path):
        m = gen_random("complete", "gaussian", 4, n=6)
        path = write_instance(tmp_path / "inst.txt", m)
        back = read_instance(path)
        assert isinstance(back, IsingModel)
        assert_same_ising(m, back)

    def test_offset_round_trip(self, tmp_path):
        m = IsingModel.from_terms(2, h=[1.0, -2.0], couplings=[(0, 1, 0.25)], offset=1.75)
        back = read_instance(write_instance(tmp_path / "o.txt", m))
        assert back.offset == 1.75

    def test_qubo_round_trip(self, tmp_path):
        q = QuboModel.from_terms(4, terms=[(0, 0, 1.0), (0, 3, -2.0), (2, 2, 0.5)], offset=0.25)
        back = read_instance(write_instance(tmp_path / "q.txt", q))
        assert isinstance(back, QuboModel)
        assert back.terms() == q.terms()
        assert back.offset == q.offset

    def test_hubo_round_trip(self, tmp_path):
        h = gen_chain3(6, seed=1)
        back = read_instance(write_instance(tmp_path / "h.txt", h))
        assert isinstance(back, HuboModel)
        assert back.domain == "spin"
        assert back.terms() == h.terms()
        states = all_spin_states(6)
        assert np.allclose(back.energies(states), h.energies(states))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a comment\n\n2 2 spin\n1 1 0.5\n# another\n1 2 -1.0\n"
        p = tmp_path / "c.txt"
        p.write_text(text)
        m = read_instance(p)
        assert m.h[0] == 0.5
        assert m.couplings() == [(0, 1, -1.0)]

    def test_header_term_count_checked(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 3 spin\n1 2 1.0\n")
        with pytest.raises(ValidationError):
            read_instance(p)

    def test_hubo_heuristic_detection(self, tmp_path):
        # no format comment; cubic line reveals the HUBO flavor
        p = tmp_path / "h2.txt"
        p.write_text("3 2 spin\n3 1 2 3 -1.0\n1 2 0.5\n")
        m = read_instance(p)
        assert isinstance(m, HuboModel)
        assert m.terms() == [((1,), 0.5), ((0, 1, 2), -1.0)]


class TestSettings:
    def test_bad_offset(self, tmp_path, capsys):
        p = tmp_path / "o.txt"
        p.write_text("# offset: abc\n2 1 spin\n1 2 1.0\n")
        with pytest.raises(ValidationError, match="offset 'abc' is not a number"):
            read_instance(p)
        assert main(["solve", str(p)]) == 3
        assert "offset 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["cubic", "", "Quadratic"])
    def test_unknown_format(self, tmp_path, fmt):
        p = tmp_path / "f.txt"
        p.write_text(f"# format: {fmt}\n2 1 spin\n1 2 1.0\n")
        with pytest.raises(ValidationError, match="unknown instance format"):
            read_instance(p)

    @pytest.mark.parametrize("name, text", [
        ("h.txt", "# format: hubo\n# offset: 5\n2 1 spin\n2 1 2 1.0\n"),
        ("h.txt", "2 1 spin\n2 1 2 1.0\n# offset: 5\n"),
        ("h.json", '{"format": "hubo", "n": 2, "domain": "spin", "offset": 5, '
                   '"terms": [[[1, 2], 1.0]]}'),
    ], ids=["declared", "guessed", "json"])
    def test_hubo_offset_rejected(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValidationError, match="order-0 term"):
            read_instance(p)
        p.write_text(text.replace("5", "0"))
        assert read_instance(p).terms() == [((0, 1), 1.0)]

    def test_last_setting_counts_in_body_too(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# format: hubo\n# offset: 1\n2 1 binary\n# format: quadratic\n"
                     "1 2 1.0\n  # offset: 2.5\n")
        q = read_instance(p)
        assert isinstance(q, QuboModel) and q.offset == 2.5

    def test_guessed_hubo_is_bitwise_the_declared_one(self, tmp_path, monkeypatch):
        p = write_instance(tmp_path / "h.txt", gen_mw3s(60, 2))
        declared = read_instance(p)
        p.write_text(p.read_text().replace("# format: hubo\n", "", 1))
        assert not p.read_text().startswith("#")
        dtypes = []
        loadtxt = instance_io._loadtxt
        monkeypatch.setattr(instance_io, "_loadtxt", lambda lines, dtype, usecols=None:
                            dtypes.append(dtype) or loadtxt(lines, dtype, usecols))
        guessed = read_instance(p)
        assert dtypes and TERM_DTYPE not in dtypes  # no quadratic parse is tried
        assert (guessed.n, guessed.domain, guessed.max_order) == \
            (declared.n, declared.domain, declared.max_order)
        assert [(i.tobytes(), c.tobytes()) for i, c in guessed.blocks] == \
            [(i.tobytes(), c.tobytes()) for i, c in declared.blocks]


# Reads and writes under the C locale without UTF-8 mode, where the
# locale's encoding is ASCII: every instance and JSON file is UTF-8 anyway.
C_LOCALE_RUN = """
import json, sys
from pathlib import Path
from qubokit import ValidationError, read_instance, write_instance
from qubokit.bench import export_records, load_records, GapRecord

d = Path(sys.argv[1])
out = {}
m = read_instance(d / "utf8.txt")
out["couplings"] = m.couplings()
out["json"] = read_instance(write_instance(d / "m.json", m)).couplings()
out["text"] = (d / "m.txt").read_bytes() == write_instance(d / "m.txt", m).read_bytes()
rec = GapRecord("caf\\u00e9.txt", "sa", -1.0, -1.0, 0.0, 0.1, 1, "")
out["records"] = [r.instance_id for f in ("r.csv", "r.json")
                  for r in load_records(export_records([rec], d / f))]
try:
    read_instance(d / "latin1.txt")
except ValidationError as exc:
    out["latin1"] = str(exc)
print(json.dumps(out))
"""


def test_utf8_files_under_the_c_locale(tmp_path):
    text = "# café\n# format: quadratic\n3 2 spin\n1 2 0.5  # ½\n2 3 -1.5\n"
    (tmp_path / "utf8.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "m.txt").write_bytes(b"# format: quadratic\n3 2 spin\n1 2 0.5\n2 3 -1.5\n")
    (tmp_path / "latin1.txt").write_bytes(text.encode("latin-1", errors="replace"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", C_LOCALE_RUN, str(tmp_path)],
                         capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout)
    assert out["couplings"] == out["json"] == [[0, 1, 0.5], [1, 2, -1.5]]
    assert out["text"] is True
    assert out["records"] == ["café.txt", "café.txt"]
    assert "latin1.txt: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9" in out["latin1"]


def traced_peak(fn) -> int:
    """tracemalloc peak of one call of ``fn``, after an untraced warm-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestMemory:
    # complete n=500: 124,750 couplings and 500 field lines, a 3.4 MB file
    def test_read_instance(self, tmp_path):
        m = gen_random("complete", "uniform", 500, n=500)
        p = write_instance(tmp_path / "c.txt", m)
        terms = m.num_couplings + np.count_nonzero(m.h)
        # the text, the parsed (i, j, v) records and the model: a copy of
        # the body as UCS-4 text alone would take 4 B per character
        assert traced_peak(lambda: read_instance(p)) <= 150 * terms

    def test_from_arrays_on_int64_columns(self):
        m = gen_random("complete", "uniform", 500, n=500)
        # the model's own columns and the sort check's keys: no float copy
        # of the index columns
        peak = traced_peak(lambda: IsingModel.from_arrays(m.n, m.rows, m.cols, m.values, h=m.h))
        assert peak <= 45 * m.num_couplings

    def test_write_instance_holds_one_block(self, tmp_path):
        # complete n=1000: 499,500 couplings and 1,000 field lines.  Full
        # 1-based copies of the (i, j, v) columns held through the write
        # peak at 40 B per term line; one formatted block of lines takes
        # about 3 MB, 6 B per line
        m = gen_random("complete", "uniform", 1000, n=1000)
        terms = m.num_couplings + np.count_nonzero(m.h)
        assert traced_peak(lambda: write_instance(tmp_path / "c.txt", m)) <= 16 * terms


class TestJsonFormat:
    def test_ising_round_trip(self, tmp_path):
        m = gen_random("complete", "uniform", 8, n=5)
        back = read_instance(write_instance(tmp_path / "m.json", m))
        assert_same_ising(m, back)

    def test_hubo_round_trip(self, tmp_path):
        h = gen_chain3(5, seed=3)
        back = read_instance(write_instance(tmp_path / "h.json", h))
        assert back.terms() == h.terms()

    @staticmethod
    def write_json(tmp_path, **changes):
        data = {"format": "quadratic", "n": 2, "domain": "spin", "offset": 1.5,
                "terms": [[1, 2, 1.0]], **changes}
        p = tmp_path / "m.json"
        p.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        return p

    @pytest.mark.parametrize("key", ["n", "domain", "terms"])
    def test_missing_field(self, tmp_path, key):
        with pytest.raises(ValidationError, match=f"instance missing field '{key}'"):
            read_instance(self.write_json(tmp_path, **{key: None}))

    @pytest.mark.parametrize("n", [2.5, "2", True])
    def test_non_integer_n(self, tmp_path, n):
        with pytest.raises(ValidationError, match="instance 'n' needs an integer"):
            read_instance(self.write_json(tmp_path, n=n))

    @pytest.mark.parametrize("offset", ["abc", [1.0], "1.5", True])
    def test_non_numeric_offset(self, tmp_path, offset):
        with pytest.raises(ValidationError, match=r"offset .* is not a number"):
            read_instance(self.write_json(tmp_path, offset=offset))

    @pytest.mark.parametrize("max_order", ["abc", [3]])
    def test_non_integer_max_order(self, tmp_path, max_order):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"format": "hubo", "n": 3, "domain": "spin",
                                 "max_order": max_order, "terms": [[[1, 2], 1.0]]}))
        with pytest.raises(ValidationError, match="max_order must be an integer"):
            read_instance(p)

    def test_truncated_json_names_the_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "quadratic", "n": 2,')
        with pytest.raises(ValidationError, match=r"bad\.json: not valid JSON"):
            read_instance(p)
        with pytest.raises(ValidationError, match=r"bad\.json: not valid JSON"):
            read_certificate(p)

    def test_bad_instance_exits_with_validation_code(self, tmp_path, capsys):
        assert main(["solve", str(self.write_json(tmp_path, offset="abc"))]) == 3
        assert "offset 'abc' is not a number" in capsys.readouterr().err
        assert main(["solve", str(self.write_json(tmp_path, n=None))]) == 3
        assert "instance missing field 'n'" in capsys.readouterr().err


class TestCertificates:
    def test_round_trip(self, tmp_path):
        pi = gen_3r3x(8, seed=5)
        p = write_certificate(tmp_path / "c.json", pi)
        cert = read_certificate(p)
        assert cert["planted_energy"] == pi.planted_energy
        assert np.array_equal(cert["planted_state"], pi.planted_state)
        assert cert["family"] == "r3x3"
        assert cert["seed"] == 5

    @pytest.mark.parametrize("make", [
        lambda: gen_tile(4, (0.0, 0.3, 0.0, 0.7), seed=3),
        lambda: gen_wishart(12, 6, seed=4),
        lambda: gen_3r3x(8, seed=5),
    ], ids=["tile", "wishart", "3r3x"])
    def test_bytes_match_field_by_field_write(self, tmp_path, make):
        pi = make()
        p = write_certificate(tmp_path / "c.json", pi)
        assert p.read_text() == certificate_text(pi.planted_energy, pi.planted_state,
                                                 pi.family, pi.hardness, pi.seed)

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"planted_energy": 1.0}')
        with pytest.raises(ValidationError):
            read_certificate(p)
