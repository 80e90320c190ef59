"""Every public boundary that takes a size, count or real from a caller
refuses a float, a bool, a string or NaN where that value does not belong
with a ValidationError, and the CLI turns each into exit 3 with no output
file written."""

import json

import numpy as np
import pytest

from qubokit import bench
from qubokit.bench import SuiteSpec, run_suite
from qubokit.cli import main
from qubokit.errors import ValidationError, check_count, check_finite_real, is_finite_real
from qubokit.generators import (PlantedInstance, gen_3r3x, gen_chain3, gen_mw3s, gen_random,
                                gen_tile, gen_wishart, generate)
from qubokit.instance_io import read_certificate, write_certificate, write_instance
from qubokit.model import HuboModel, IsingModel, QuboModel
from qubokit.solvers import SaParams, bound_spd, eig_extreme, solve_brute_force

NAN = float("nan")
CHAIN = IsingModel.from_terms(4, couplings=[(0, 1, 1.0), (1, 2, -2.0), (2, 3, 0.5)])


def run(args):
    return main([str(a) for a in args])


BOUNDARIES = {
    # generator sizes
    "chain3-float": lambda: gen_chain3(4.5, 0),
    "chain3-bool": lambda: gen_chain3(True, 0),
    "chain3-str": lambda: gen_chain3("4", 0),
    "mw3s-float": lambda: gen_mw3s(5.0, 0),
    "mw3s-nan": lambda: gen_mw3s(NAN, 0),
    "3r3x-float": lambda: gen_3r3x(6.5, 0),
    "3r3x-bool": lambda: gen_3r3x(True, 0),
    "3r3x-str": lambda: gen_3r3x("9", 0),
    "tile-L-float": lambda: gen_tile(8.0, [0, 0.5, 0, 0.5], 0),
    "tile-L-bool": lambda: gen_tile(True, [0, 0.5, 0, 0.5], 0),
    "tile-L-str": lambda: gen_tile("8", [0, 0.5, 0, 0.5], 0),
    "tile-p-nan": lambda: gen_tile(8, [NAN] * 4, 0),
    "tile-p-ragged": lambda: gen_tile(8, [[0], 1, 0, 0], 0),
    "tile-p-strs": lambda: gen_tile(8, ["0", "0.5", "0", "0.5"], 0),
    "tile-p-str": lambda: gen_tile(8, "0.25", 0),
    "tile-p2-nan": lambda: generate("tile", 0, L=8, p2=NAN),
    "tile-p2-str": lambda: generate("tile", 0, L=8, p2="0.5"),
    "wishart-M-bool": lambda: gen_wishart(8, True, 0),
    "wishart-M-float": lambda: gen_wishart(8, 2.0, 0),
    "wishart-N-float": lambda: gen_wishart(8.5, 2, 0),
    "wishart-N-str": lambda: generate("wishart", 0, n="8", alpha=0.5),
    "wishart-alpha-nan": lambda: generate("wishart", 0, n=8, alpha=NAN),
    "wishart-alpha-bool": lambda: generate("wishart", 0, n=8, alpha=True),
    "random-n-float": lambda: gen_random("complete", "gaussian", 0, n=6.5),
    "random-n-bool": lambda: gen_random("complete", "gaussian", 0, n=True),
    "random-n-str": lambda: gen_random("complete", "gaussian", 0, n="6"),
    "random-edge-list-n-float": lambda: gen_random("edge_list", "gaussian", 0,
                                                   edges=[(0, 1)], n=2.5),
    "random-edge-float": lambda: gen_random("edge_list", "gaussian", 0,
                                            edges=[(0, 2.9), (1, 2)]),
    "random-edge-nan": lambda: gen_random("edge_list", "gaussian", 0, edges=[(NAN, 1)]),
    "random-edge-strs": lambda: gen_random("edge_list", "gaussian", 0, edges=[("0", "1")]),
    "random-rows-float": lambda: gen_random("chimera", "gaussian", 0, rows=1.5, cols=1),
    "random-cols-bool": lambda: gen_random("chimera", "gaussian", 0, rows=1, cols=True),
    "random-rows-str": lambda: gen_random("chimera", "gaussian", 0, rows="1", cols=1),
    # gen_random's bounds
    "random-low-str": lambda: gen_random("complete", "uniform", 0, n=4, a="-1"),
    "random-low-bool": lambda: gen_random("complete", "uniform", 0, n=4, a=False),
    "random-high-nan": lambda: gen_random("complete", "int_uniform", 0, n=4, b=NAN),
    # model sizes, offsets and max_order
    "ising-n-bool": lambda: IsingModel.from_arrays(True, [], [], []),
    "ising-n-float": lambda: IsingModel.from_arrays(2.0, [0], [1], [1.0]),
    "ising-n-str": lambda: IsingModel.from_arrays("2", [0], [1], [1.0]),
    "ising-offset-str": lambda: IsingModel.from_arrays(2, [0], [1], [1.0], offset="a"),
    "ising-offset-none": lambda: IsingModel.from_arrays(2, [0], [1], [1.0], offset=None),
    "ising-offset-bool": lambda: IsingModel.from_arrays(2, [0], [1], [1.0], offset=True),
    "ising-offset-nan": lambda: IsingModel.from_arrays(2, [0], [1], [1.0], offset=NAN),
    "ising-offset-huge-int": lambda: IsingModel.from_terms(2, offset=10**400),
    "qubo-n-float": lambda: QuboModel.from_arrays(2.5, [0], [1], [1.0]),
    "qubo-n-bool": lambda: QuboModel.from_arrays(True, [0], [0], [1.0]),
    "qubo-offset-str": lambda: QuboModel.from_arrays(2, [0], [1], [1.0], offset="a"),
    "qubo-offset-nan": lambda: QuboModel.from_arrays(2, [0], [1], [1.0], offset=NAN),
    "hubo-n-float": lambda: HuboModel.from_arrays(2.5, "spin", [([[0, 1]], [1.0])]),
    "hubo-n-bool": lambda: HuboModel.from_arrays(True, "spin", []),
    "hubo-n-str": lambda: HuboModel.from_arrays("3", "spin", []),
    "hubo-max-order-bool": lambda: HuboModel.from_arrays(3, "spin", [([[0, 1]], [1.0])],
                                                         max_order=True),
    "hubo-max-order-float": lambda: HuboModel.from_arrays(3, "spin", [([[0, 1]], [1.0])],
                                                          max_order=3.0),
    "hubo-max-order-nan": lambda: HuboModel.from_arrays(3, "spin", [([[0, 1]], [1.0])],
                                                        max_order=NAN),
    # certificates and bounds
    "planted-energy-nan": lambda: PlantedInstance(CHAIN, NAN, [1, 1, 1, 1], "x"),
    "bound-spd-epsilon-nan": lambda: bound_spd(CHAIN, [1], NAN),
    "bound-spd-epsilon-str": lambda: bound_spd(CHAIN, [1], "1"),
    "bound-spd-epsilon-bool": lambda: bound_spd(CHAIN, [1], True),
    "bound-spd-d-nan": lambda: bound_spd(CHAIN, [1], 1.0, d=NAN),
    # solver parameters
    "sa-T-init-huge-int": lambda: SaParams(T_init=10**400).validate(),
    "eig-extreme-which": lambda: eig_extreme(np.eye(2), "middle"),
    "brute-force-cap-str": lambda: solve_brute_force(CHAIN, cap="x"),
    "brute-force-cap-bool": lambda: solve_brute_force(IsingModel.from_terms(1), cap=True),
    "brute-force-cap-float": lambda: solve_brute_force(CHAIN, cap=4.5),
}


@pytest.mark.parametrize("build", BOUNDARIES.values(), ids=BOUNDARIES.keys())
def test_boundary_refuses_bad_size_or_real(build):
    with pytest.raises(ValidationError):
        build()


class TestChecks:
    @pytest.mark.parametrize("value", [0, 2.0, True, "3", None, NAN])
    def test_count_refused(self, value):
        with pytest.raises(ValidationError, match=r"width must be an integer >= 1"):
            check_count("width", value)

    def test_count_lower_bound(self):
        check_count("n", np.int64(6), 6)
        with pytest.raises(ValidationError, match="n must be an integer >= 6, got 5"):
            check_count("n", 5, 6)

    @pytest.mark.parametrize("value", [NAN, float("inf"), -float("inf"), True, "1", None,
                                       pytest.param(10**400, id="int-1e400"),
                                       pytest.param(-10**400, id="int-minus-1e400")])
    def test_finite_real_refused(self, value):
        assert not is_finite_real(value)
        with pytest.raises(ValidationError, match="x must be a finite number"):
            check_finite_real("x", value)

    def test_finite_real_accepted(self):
        for value in (0, -2, 1.5, np.float32(0.25), np.int64(-3), 10**300):
            check_finite_real("x", value)
        with pytest.raises(ValidationError, match="x must be positive and finite"):
            check_finite_real("x", 0.0, positive=True)

    def test_valid_inputs_unchanged(self):
        m = IsingModel.from_arrays(np.int64(3), [0], [1], [1.0], offset=np.float64(0.5))
        assert m.n == 3 and m.offset == 0.5
        assert HuboModel.from_arrays(3, "spin", [([[0, 1]], [1.0])], max_order=np.int64(3)
                                     ).max_order == 3
        assert gen_random("complete", "uniform", 0, n=np.int64(4), a=-1, b=1).n == 4


class TestCertificates:
    def _files(self, tmp_path, **change):
        planted = gen_tile(4, [0, 0.5, 0, 0.5], 0)
        inst = write_instance(tmp_path / "t.txt", planted.model)
        cert = write_certificate(tmp_path / "t.txt.cert.json", planted)
        data = json.loads(cert.read_text())
        data.update(change)
        cert.write_text(json.dumps(data))  # NaN and -Infinity as Python's json writes them
        return inst, cert

    @pytest.mark.parametrize("change", [
        {"planted_energy": NAN}, {"planted_energy": -float("inf")},
        {"planted_energy": "-16"}, {"planted_state": "abc"},
        {"planted_state": ["1"] * 16}, {"planted_state": [2] * 16},
    ], ids=["energy-nan", "energy-minus-inf", "energy-str", "state-str", "state-strs",
            "state-not-spins"])
    def test_bad_certificate_refused(self, tmp_path, capsys, change):
        inst, cert = self._files(tmp_path, **change)
        with pytest.raises(ValidationError):
            read_certificate(cert)
        assert run(["verify", inst, "--certificate", cert]) == 3
        assert "PASS" not in capsys.readouterr().out

    def test_planted_reference_records_the_error(self, tmp_path):
        self._files(tmp_path, planted_energy=NAN)
        [rec] = run_suite(SuiteSpec(source={"files": str(tmp_path / "*.txt")},
                                    solvers=[{"id": "sa", "params": {"sweeps": 5}}],
                                    reference="planted", replicas=2))
        assert "planted_energy" in rec.error and np.isnan(rec.gap)


GOOD_SOURCE = {"generator": {"family": "random", "sizes": [6], "seeds": [1]}}


def _edge_source(edge):
    return {"generator": {"family": "random", "sizes": [3], "seeds": [1],
                          "topology": "edge_list", "edges": [edge]}}


@pytest.mark.parametrize("suite", [
    {"source": {"generator": {"family": "random", "seeds": [1]}}, "solvers": [{"id": "bf"}]},
    {"source": {"generator": {"family": "random", "sizes": [6], "seeds": 3}},
     "solvers": [{"id": "bf"}]},
    {"source": {"generator": {"family": ["random"], "sizes": [6], "seeds": [1]}},
     "solvers": [{"id": "bf"}]},
    {"source": {"generator": "random"}, "solvers": [{"id": "bf"}]},
    {"source": {"files": 5}, "solvers": [{"id": "bf"}]},
    {"source": GOOD_SOURCE, "solvers": [{"params": {}}]},
    {"source": GOOD_SOURCE, "solvers": ["sa"]},
    {"source": GOOD_SOURCE, "solvers": [{"id": "nope"}]},
    {"source": GOOD_SOURCE, "solvers": [{"id": "sa", "params": [1]}]},
    {"source": GOOD_SOURCE, "solvers": [{"id": "sa", "name": 5}, {"id": "pa"}]},
    {"source": {"generator": {"family": "3r3x", "sizes": [6.5], "seeds": [1]}},
     "solvers": [{"id": "bf"}]},
    {"source": {"generator": {"family": "tile", "sizes": [4], "seeds": [1],
                              "p": [[0], 1, 0, 0]}}, "solvers": [{"id": "bf"}]},
    {"source": {"generator": {"family": "tile", "sizes": [4], "seeds": [1],
                              "p": ["0", "0.5", "0", "0.5"]}}, "solvers": [{"id": "bf"}]},
    {"source": _edge_source(["a", "b"]), "solvers": [{"id": "bf"}]},
    {"source": _edge_source([NAN, 1]), "solvers": [{"id": "bf"}]},
    {"source": GOOD_SOURCE, "solvers": [{"id": "bf"}], "reference": "file", "reference_file": 5},
    {"source": GOOD_SOURCE, "solvers": [{"id": "bf"}], "reference": "file",
     "reference_file": True},
    {"source": GOOD_SOURCE, "solvers": [{"id": "bf"}], "reference": "file",
     "reference_file": {"x": 1}},
    [],
    5,
], ids=["no-sizes", "seeds-int", "family-list", "generator-str", "files-int", "solver-no-id",
        "solver-str", "solver-unknown-id", "params-list", "name-int", "size-float",
        "tile-p-ragged", "tile-p-strs", "edges-strs", "edges-nan", "reference-file-int",
        "reference-file-bool", "reference-file-object", "suite-list", "suite-int"])
def test_bad_suite_exits_3_without_report(tmp_path, capsys, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert run(["bench", path, "--out", tmp_path / "report"]) == 3
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.json"]


@pytest.mark.parametrize("refs", [["x"], {"random-n6-s1": "abc"}, {"random-n6-s1": "1.5"},
                                  {"random-n6-s1": True}, {"random-n6-s1": NAN}],
                         ids=["list", "str", "numeric-str", "bool", "nan"])
def test_bad_reference_file_exits_3_without_report(tmp_path, capsys, monkeypatch, refs):
    # the reference file is read and checked before any instance is built
    def no_instances(*args, **kwargs):
        raise AssertionError("instance built before the reference file was checked")

    monkeypatch.setattr(bench, "generate", no_instances)
    (tmp_path / "refs.json").write_text(json.dumps(refs))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"source": GOOD_SOURCE, "solvers": [{"id": "bf"}],
                                "reference": "file",
                                "reference_file": str(tmp_path / "refs.json")}))
    assert run(["bench", path, "--out", tmp_path / "report"]) == 3
    assert "refs.json" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.json", "suite.json"]


def test_generate_tile_nan_p2_exits_3_without_files(tmp_path, capsys):
    assert run(["generate", "tile", "--L", 8, "--p2", "nan", "--out", tmp_path / "t.txt"]) == 3
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
