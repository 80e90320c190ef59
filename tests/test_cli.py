"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from qubokit.cli import main
from qubokit.instance_io import read_instance, write_instance
from qubokit.generators import gen_chain3, gen_random
from qubokit.model import HuboModel, IsingModel


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_wishart_writes_instance_and_certificate(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert run(["generate", "wishart", "--n", 32, "--m-cols", 16,
                    "--seed", 7, "--out", out]) == 0
        assert out.exists()
        assert (tmp_path / "w.txt.cert.json").exists()
        assert "planted_energy" in capsys.readouterr().out

    def test_tile_p2_shorthand(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run(["generate", "tile", "--L", 6, "--p2", 0.8, "--seed", 1,
                    "--out", out]) == 0
        cert = json.loads((tmp_path / "t.txt.cert.json").read_text())
        assert cert["hardness"]["p"][1] == pytest.approx(0.8)

    def test_repeat_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["generate", "3r3x", "--n", 9, "--seed", 3, "--out", a])
        run(["generate", "3r3x", "--n", 9, "--seed", 3, "--out", b])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_3(self, tmp_path, capsys, seed):
        assert run(["generate", "tile", "--L", 4, "--p2", 0.5, "--seed", seed,
                    "--out", tmp_path / "t.txt"]) == 3
        assert "seed must be an integer" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        assert run(["generate", "tile", "--out", tmp_path / "x.txt"]) == 3

    @pytest.mark.parametrize("flags", [
        ["random", "--n", 5, "--dist", "int_uniform", "--low", 3, "--high", 1],
        ["random", "--n", 5, "--dist", "int_uniform", "--low", 0.5, "--high", 0.7],
        ["wishart", "--n", 8, "--alpha", "nan"],
        ["wishart", "--n", 8, "--alpha", "inf"],
    ], ids=["int-low-above-high", "int-no-integer", "alpha-nan", "alpha-inf"])
    def test_bad_generator_value_exits_3(self, tmp_path, capsys, flags):
        out = tmp_path / "x.txt"
        assert run(["generate", *flags, "--seed", 1, "--out", out]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("text", ["1 2\n1 x\n", "1 2\n3\n"], ids=["not-int", "one-column"])
    def test_bad_edge_list_exits_3(self, tmp_path, capsys, text):
        edges, out = tmp_path / "edges.txt", tmp_path / "x.txt"
        edges.write_text(text)
        assert run(["generate", "random", "--topology", "edge_list", "--edges", edges,
                    "--seed", 1, "--out", out]) == 3
        assert "edges.txt: edge list needs" in capsys.readouterr().err
        assert not out.exists()


class TestConvertReduce:
    def test_qubo_ising_round_trip_files(self, tmp_path):
        from qubokit.model import QuboModel
        q = QuboModel.from_terms(3, terms=[(0, 0, 1.0), (0, 2, -2.0)], offset=0.5)
        src = write_instance(tmp_path / "q.txt", q)
        mid = tmp_path / "m.txt"
        back = tmp_path / "b.txt"
        assert run(["convert", src, "--to", "ising", "--out", mid]) == 0
        assert run(["convert", mid, "--to", "qubo", "--out", back]) == 0
        q2 = read_instance(back)
        for bits in range(8):
            x = np.array([(bits >> i) & 1 for i in range(3)], dtype=np.int8)
            assert q.energy(x) == pytest.approx(q2.energy(x), abs=1e-9)

    def test_reduce_writes_map(self, tmp_path):
        h = gen_chain3(6, seed=2)
        src = write_instance(tmp_path / "h.txt", h)
        out, mp = tmp_path / "r.txt", tmp_path / "map.json"
        assert run(["reduce", src, "--out", out, "--map", mp]) == 0
        rmap = json.loads(mp.read_text())
        assert rmap["original_n"] == 6
        assert len(rmap["aux_bindings"]) == 4
        assert isinstance(read_instance(out), type(read_instance(out)))


class TestSolve:
    def test_brute_force_recovers_planted_3r3x(self, tmp_path, capsys):
        inst = tmp_path / "x.txt"
        run(["generate", "3r3x", "--n", 12, "--seed", 5, "--out", inst])
        report = tmp_path / "report.json"
        assert run(["solve", inst, "--solver", "bf", "--out", report]) == 0
        data = json.loads(report.read_text())
        assert data["best_energy"] == -12.0
        assert data["lifted_energy"] == -12.0
        assert len(data["lifted_state"]) == 12

    def test_sa_and_bf_report_one_energy_per_state(self, tmp_path):
        src = write_instance(tmp_path / "c.txt", gen_random("complete", "gaussian", 1, n=11))
        reports = []
        for solver in ("sa", "bf"):
            report = tmp_path / f"{solver}.json"
            assert run(["solve", src, "--solver", solver, "--out", report]) == 0
            reports.append(json.loads(report.read_text()))
        sa, bf = reports
        assert sa["best_state"] == bf["best_state"]
        assert sa["best_energy"] == bf["best_energy"]
        assert sa["lifted_energy"] == bf["lifted_energy"]

    def test_qubo_solves_like_its_conversion(self, tmp_path):
        from qubokit.model import QuboModel
        rng = np.random.default_rng(8)
        q = QuboModel.from_terms(8, terms=[(i, j, float(rng.normal()))
                                           for i in range(8) for j in range(i, 8)])
        src = write_instance(tmp_path / "q.txt", q)
        rep1 = tmp_path / "r1.json"
        assert run(["solve", src, "--solver", "bf", "--out", rep1]) == 0
        from qubokit.transforms import qubo_to_ising
        isrc = write_instance(tmp_path / "i.txt", qubo_to_ising(q))
        rep2 = tmp_path / "r2.json"
        assert run(["solve", isrc, "--solver", "bf", "--out", rep2]) == 0
        e1 = json.loads(rep1.read_text())["best_energy"]
        e2 = json.loads(rep2.read_text())["best_energy"]
        assert e1 == pytest.approx(e2, abs=1e-9)

    def test_replicas_flag_controls_sample_count(self, tmp_path):
        inst = tmp_path / "r.txt"
        run(["generate", "random", "--n", 10, "--seed", 2, "--out", inst])
        report = tmp_path / "rep.json"
        assert run(["solve", inst, "--solver", "sa", "--replicas", 64,
                    "--params", _params(tmp_path, {"sweeps": 30}),
                    "--out", report]) == 0
        assert json.loads(report.read_text())["samples"] == 64

    def test_print_config(self, capsys):
        assert run(["solve", "--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert set(cfg) == {"sa", "pa", "sbm", "bb"}
        assert {sid: sorted(params) for sid, params in cfg.items()} == {
            "sa": ["T_final", "T_init", "replicas", "seed", "sweeps"],
            "pa": ["lambda0", "learning_rate", "momentum", "replicas", "seed", "steps"],
            "sbm": ["a0", "c0", "dt", "init_noise", "q_cap", "replicas", "seed", "steps"],
            "bb": ["bound_kind", "leaf_size", "pool_limit", "time_limit"],
        }
        assert cfg["sbm"]["dt"] == 0.01

    def test_brute_force_over_cap_clear_error(self, tmp_path, capsys):
        inst = tmp_path / "big.txt"
        run(["generate", "random", "--n", 40, "--seed", 0, "--out", inst])
        assert run(["solve", inst, "--solver", "bf"]) == 3
        assert "brute force" in capsys.readouterr().err

    @pytest.mark.parametrize("solver, params", [("bb", {"leaf_size": 2.5}),
                                                ("bb", {"leaf_size": 21}),
                                                ("sa", {"sweeps": 2.5}),
                                                ("sbm", {"replicas": True})])
    def test_non_integer_count_exits_3(self, tmp_path, capsys, solver, params):
        inst = tmp_path / "r10.txt"
        run(["generate", "random", "--n", 10, "--seed", 1, "--out", inst])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        assert run(["solve", inst, "--solver", solver, "--params", path]) == 3
        assert f"{next(iter(params))} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [({"T_final": -1}, "T_final must be positive"),
                                                 ({"T_init": -2, "T_final": -1},
                                                  "T_init must be positive"),
                                                 ({"T_final": 1e6}, "need T_init >= T_final")])
    def test_bad_sa_temperature_exits_3(self, tmp_path, capsys, params, message):
        inst = tmp_path / "r10.txt"
        run(["generate", "random", "--n", 10, "--seed", 1, "--out", inst])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        assert run(["solve", inst, "--solver", "sa", "--params", path]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ({"seed": -1}, "seed must be an integer"), ({"seed": 1.5}, "seed must be an integer"),
        ({"T_init": "1"}, "T_init must be positive and finite"),
        ({"T_init": float("inf")}, "T_init must be positive and finite"),
        ([], "p.json: solver parameters must be a JSON object"),
        (5, "p.json: solver parameters must be a JSON object")])
    def test_bad_sa_seed_or_real_exits_3(self, tmp_path, capsys, params, message):
        inst = tmp_path / "r10.txt"
        run(["generate", "random", "--n", 10, "--seed", 1, "--out", inst])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        assert run(["solve", inst, "--solver", "sa", "--params", path]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["pa", "sbm"])
    def test_field_scale_beyond_float32_exits_3(self, tmp_path, capsys, solver):
        m = IsingModel.from_terms(3, couplings=[(0, 1, 1e39), (1, 2, -1.0)])
        inst = write_instance(tmp_path / "big.txt", m)
        assert run(["solve", inst, "--solver", solver]) == 3
        assert "overflows float32" in capsys.readouterr().err

    def test_truncated_json_instance_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "bad.json"
        inst.write_text('{"format": "quadratic", "n": 2,')
        assert run(["solve", inst]) == 3
        assert "bad.json: not valid JSON" in capsys.readouterr().err

    def test_malformed_term_line_exits_3(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("# format: quadratic\n3 2 spin\n1 2 1.0\n2 3 x\n")
        assert run(["solve", inst]) == 3
        assert "bad.txt: line 4: quadratic line needs 'i j v', got '2 3 x'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name", ["utf16.txt", "utf16.json"])
    def test_undecodable_instance_exits_3(self, tmp_path, capsys, name):
        inst = tmp_path / name
        inst.write_bytes(b"\xff\xfe\x00" + "2 1 spin\n1 2 1.0\n".encode("utf-16-le"))
        assert run(["solve", inst]) == 3
        assert f"{name}: not UTF-8 text" in capsys.readouterr().err

    def test_order_above_three_clear_error(self, tmp_path, capsys):
        h = HuboModel.from_terms(5, "spin", [((0, 1, 2, 3), 1.0)])
        src = write_instance(tmp_path / "h4.txt", h)
        assert run(["solve", src, "--solver", "sa"]) == 3


def _params(tmp_path, data):
    p = tmp_path / "params.json"
    p.write_text(json.dumps(data))
    return p


class TestVerify:
    def test_untampered_certificate_passes(self, tmp_path, capsys):
        inst = tmp_path / "w.txt"
        run(["generate", "wishart", "--n", 12, "--m-cols", 6, "--seed", 4,
             "--out", inst])
        assert run(["verify", inst, "--certificate",
                    tmp_path / "w.txt.cert.json"]) == 0
        assert "global minimum" in capsys.readouterr().out

    def test_corrupted_certificate_fails(self, tmp_path, capsys):
        inst = tmp_path / "w.txt"
        run(["generate", "wishart", "--n", 10, "--m-cols", 5, "--seed", 4,
             "--out", inst])
        cert_path = tmp_path / "w.txt.cert.json"
        cert = json.loads(cert_path.read_text())
        cert["planted_energy"] -= 1.0
        cert_path.write_text(json.dumps(cert))
        assert run(["verify", inst, "--certificate", cert_path]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_missing_certificate_usage_error(self, tmp_path):
        inst = tmp_path / "w.txt"
        run(["generate", "random", "--n", 6, "--seed", 1, "--out", inst])
        assert run(["verify", inst, "--certificate", tmp_path / "nope.json"]) == 4


class TestBench:
    def test_suite_produces_expected_record_count(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "source": {"generator": {"family": "random", "sizes": [10],
                                     "seeds": [1, 2, 3, 4, 5]}},
            "solvers": [{"id": "sa", "params": {"sweeps": 50}},
                        {"id": "pa", "params": {"steps": 100}},
                        {"id": "bf"}],
            "reference": "best_of_suite",
            "replicas": 8,
        }))
        out = tmp_path / "report"
        assert run(["bench", suite, "--out", out, "--format", "csv"]) == 0
        from qubokit.bench import load_records
        records = load_records(out.with_suffix(".csv"))
        assert len(records) == 15

    def test_workers_override_is_validated(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "source": {"generator": {"family": "random", "sizes": [6], "seeds": [1]}},
            "solvers": [{"id": "bf"}],
        }))
        assert run(["bench", suite, "--out", tmp_path / "r", "--workers", 0]) == 3
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_rerun_determinism(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "source": {"generator": {"family": "tile", "sizes": [4], "seeds": [1],
                                     "p2": 0.2}},
            "solvers": [{"id": "sa", "params": {"sweeps": 100}}],
            "reference": "planted",
            "replicas": 8,
        }))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(["bench", suite, "--out", out1, "--format", "json"])
        run(["bench", suite, "--out", out2, "--format", "json"])
        a = json.loads(out1.with_suffix(".json").read_text())["records"]
        b = json.loads(out2.with_suffix(".json").read_text())["records"]
        for ra, rb in zip(a, b):
            assert ra["energy"] == rb["energy"]
            assert ra["gap"] == rb["gap"]


class TestTruncatedJson:
    """Every JSON file the CLI reads is a validation error naming the file."""

    BAD = '{"a": 1,'

    def _suite(self, tmp_path, **fields):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "source": {"generator": {"family": "random", "sizes": [6], "seeds": [1]}},
            "solvers": [{"id": "bf"}], **fields}))
        return suite

    def test_solver_params(self, tmp_path, capsys):
        inst = tmp_path / "r.txt"
        run(["generate", "random", "--n", 6, "--seed", 1, "--out", inst])
        params = tmp_path / "params.json"
        params.write_text(self.BAD)
        assert run(["solve", inst, "--params", params]) == 3
        assert "params.json: not valid JSON" in capsys.readouterr().err

    def test_suite_file(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(self.BAD)
        assert run(["bench", suite, "--out", tmp_path / "r"]) == 3
        assert "suite.json: not valid JSON" in capsys.readouterr().err

    def test_reference_file(self, tmp_path, capsys):
        ref = tmp_path / "refs.json"
        ref.write_text(self.BAD)
        suite = self._suite(tmp_path, reference="file", reference_file=str(ref))
        assert run(["bench", suite, "--out", tmp_path / "r"]) == 3
        assert "refs.json: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_records_file(self, tmp_path):
        from qubokit.bench import load_records
        from qubokit.errors import ValidationError

        path = tmp_path / "records.json"
        path.write_text(self.BAD)
        with pytest.raises(ValidationError, match=r"records\.json: not valid JSON"):
            load_records(path)


class TestSolveReports:
    def test_binary_hubo_lifts_to_bits(self, tmp_path):
        binary = HuboModel.from_terms(6, "binary", gen_chain3(6, seed=4).terms(), max_order=3)
        src = write_instance(tmp_path / "bh.txt", binary)
        report = tmp_path / "r.json"
        assert run(["solve", src, "--solver", "bf", "--out", report]) == 0
        data = json.loads(report.read_text())
        lifted = np.array(data["lifted_state"])
        assert set(lifted.tolist()) <= {0, 1}
        assert data["lifted_energy"] == binary.energy(lifted)
        assert data["lifted_energy"] == pytest.approx(data["best_energy"], abs=1e-9)

    @pytest.mark.parametrize("solver", ["bf", "bb"])
    def test_exact_solvers_report_measured_wall_time(self, tmp_path, solver):
        inst = tmp_path / "r.txt"
        run(["generate", "random", "--n", 14, "--seed", 2, "--out", inst])
        report = tmp_path / "rep.json"
        assert run(["solve", inst, "--solver", solver, "--out", report]) == 0
        assert json.loads(report.read_text())["wall_time"] > 0.0

    def test_bb_reports_lower_bound_and_gap(self, tmp_path, capsys):
        inst = tmp_path / "r.txt"
        run(["generate", "random", "--n", 14, "--seed", 2, "--out", inst])
        report = tmp_path / "rep.json"
        capsys.readouterr()
        assert run(["solve", inst, "--solver", "bb", "--out", report]) == 0
        data = json.loads(report.read_text())
        assert data["optimal"]
        assert data["lower_bound"] == data["best_energy"]
        assert data["gap"] == 0.0
        out = capsys.readouterr().out
        assert f"lower_bound={data['lower_bound']}" in out and "gap=0.0" in out
