"""Tests for the benchmark harness."""

import json

import numpy as np
import pytest

from qubokit import (
    GapRecord,
    ReferenceUndefinedError,
    SuiteSpec,
    ValidationError,
    export_records,
    load_records,
    optimality_gap,
    run_suite,
    spectrum,
)
from qubokit.generators import gen_random, gen_tile
from qubokit.instance_io import write_certificate, write_instance
from qubokit.solvers import SaParams, solve_sa


class TestOptimalityGap:
    def test_arithmetic(self):
        assert optimality_gap(-95.0, -100.0) == pytest.approx(0.05)

    def test_identity(self):
        assert optimality_gap(-3.7, -3.7) == 0.0

    def test_negative_when_better(self):
        assert optimality_gap(-105.0, -100.0) == pytest.approx(-0.05)

    def test_zero_reference_refused(self):
        with pytest.raises(ReferenceUndefinedError):
            optimality_gap(1.0, 0.0)


class TestSpectrum:
    def test_counts_conserved(self):
        m = gen_random("complete", "uniform", 1, n=12)
        sset = solve_sa(m, SaParams(sweeps=50, replicas=64, seed=0))
        edges, counts = spectrum(sset, bins=16)
        assert counts.sum() == 64
        assert len(edges) == len(counts) + 1

    def test_constant_samples_single_bin(self):
        from qubokit.solvers.common import Sample, SampleSet
        s = SampleSet(samples=[Sample(np.ones(2, dtype=np.int8), 1.5, r) for r in range(5)],
                      seed=0)
        edges, counts = spectrum(s, bins=10)
        assert len(counts) == 1
        assert counts[0] == 5

    def test_lowest_bin_holds_best_sample(self):
        m = gen_random("complete", "gaussian", 2, n=14)
        sset = solve_sa(m, SaParams(sweeps=40, replicas=128, seed=3))
        edges, counts = spectrum(sset, bins=20)
        best = sset.best.energy
        assert edges[0] <= best <= edges[1]
        assert counts[0] >= 1

    @pytest.mark.parametrize("bins", [0, -1, 2.5, True])
    def test_bins_must_be_a_positive_integer(self, bins):
        m = gen_random("complete", "uniform", 1, n=6)
        sset = solve_sa(m, SaParams(sweeps=5, replicas=4, seed=0))
        with pytest.raises(ValidationError, match="bins"):
            spectrum(sset, bins=bins)


def suite_for(tmp_path, reference="planted", solvers=None, workers=1):
    return SuiteSpec(
        source={"generator": {"family": "tile", "sizes": [4], "seeds": [1, 2, 3],
                              "p2": 0.2}},
        solvers=solvers or [{"id": "sa", "params": {"sweeps": 300}}],
        reference=reference,
        replicas=32,
        workers=workers,
    )


class TestRunSuite:
    def test_planted_reference_gaps_zero_when_solved(self, tmp_path):
        records = run_suite(suite_for(tmp_path))
        assert len(records) == 3
        for rec in records:
            assert rec.error == ""
            assert rec.gap == pytest.approx(0.0, abs=1e-9)

    def test_brute_force_reference_nonnegative_gaps(self, tmp_path):
        spec = SuiteSpec(
            source={"generator": {"family": "random", "sizes": [12], "seeds": [5, 6]}},
            solvers=[{"id": "sa", "params": {"sweeps": 100}},
                     {"id": "pa", "params": {"steps": 200}}],
            reference="brute_force", replicas=16)
        records = run_suite(spec)
        assert len(records) == 4
        for rec in records:
            assert rec.error == ""
            assert rec.gap >= -1e-12

    def test_best_of_suite_has_zero_gap_per_instance(self, tmp_path):
        spec = SuiteSpec(
            source={"generator": {"family": "random", "sizes": [10], "seeds": [7]}},
            solvers=[{"id": "sa", "name": "sa-short", "params": {"sweeps": 20}},
                     {"id": "sa", "name": "sa-long", "params": {"sweeps": 400}},
                     {"id": "bf"}],
            reference="best_of_suite", replicas=8)
        records = run_suite(spec)
        by_instance = {}
        for rec in records:
            by_instance.setdefault(rec.instance_id, []).append(rec.gap)
        for gaps in by_instance.values():
            assert min(gaps) == pytest.approx(0.0, abs=1e-12)

    def test_reference_failure_becomes_record_error(self, tmp_path):
        spec = SuiteSpec(
            source={"generator": {"family": "random", "sizes": [8], "seeds": [1]}},
            solvers=[{"id": "sa", "params": {"sweeps": 10}}],
            reference="planted", replicas=4)
        records = run_suite(spec)
        assert len(records) == 1
        assert "planted" in records[0].error

    def test_file_source_with_certificates(self, tmp_path):
        pi = gen_tile(4, (0, 0.2, 0, 0.8), seed=9)
        p = write_instance(tmp_path / "tile.txt", pi.model)
        write_certificate(tmp_path / "tile.txt.cert.json", pi)
        spec = SuiteSpec(source={"files": str(tmp_path / "*.txt")},
                         solvers=[{"id": "sa", "params": {"sweeps": 300, "seed": 0}}],
                         reference="planted", replicas=32)
        records = run_suite(spec)
        assert records[0].error == ""
        assert records[0].reference_energy == pi.planted_energy

    def test_brute_force_reference_runs_once_per_instance(self, monkeypatch):
        import qubokit.bench as bench

        calls = []
        real = bench.solve_brute_force

        def counting(model, **kwargs):
            calls.append(model.n)
            return real(model, **kwargs)

        monkeypatch.setattr(bench, "solve_brute_force", counting)
        spec = SuiteSpec(
            source={"generator": {"family": "random", "sizes": [10], "seeds": [1, 2, 3]}},
            solvers=[{"id": "sa", "params": {"sweeps": 50}},
                     {"id": "pa", "params": {"steps": 50}},
                     {"id": "sbm", "params": {"steps": 50, "dt": 0.1}},
                     {"id": "bb"}],
            reference="brute_force", replicas=4)
        records = run_suite(spec)
        assert len(records) == 12
        assert len(calls) == 3
        refs = {}
        for rec in records:
            assert rec.error == ""
            assert refs.setdefault(rec.instance_id, rec.reference_energy) == rec.reference_energy
            assert rec.gap == optimality_gap(rec.energy, rec.reference_energy)

    def test_file_reference(self, tmp_path):
        refs = {"tile-n4-s1": -100.0, "tile-n4-s3": -7.5}
        ref_path = tmp_path / "refs.json"
        ref_path.write_text(json.dumps(refs))
        spec = suite_for(tmp_path, reference="file")
        spec.reference_file = str(ref_path)
        records = run_suite(spec)
        assert [r.instance_id for r in records] == ["tile-n4-s1", "tile-n4-s2", "tile-n4-s3"]
        for rec in records:
            assert np.isfinite(rec.energy)
            if rec.instance_id in refs:
                assert rec.error == ""
                assert rec.reference_energy == refs[rec.instance_id]
                assert rec.gap == optimality_gap(rec.energy, rec.reference_energy)
            else:
                assert rec.error == "ValidationError: tile-n4-s2: not in reference file"
                assert np.isnan(rec.reference_energy) and np.isnan(rec.gap)

    def test_determinism_across_worker_budgets(self, tmp_path):
        a = run_suite(suite_for(tmp_path, workers=1))
        b = run_suite(suite_for(tmp_path, workers=4))
        for ra, rb in zip(a, b):
            assert ra.instance_id == rb.instance_id
            assert ra.energy == rb.energy
            assert ra.gap == rb.gap


class TestExport:
    def records(self):
        return [GapRecord("i1", "sa", -10.0, -10.0, 0.0, 0.123, 1),
                GapRecord("i2", "pa", -9.5, -10.0, 0.05, 0.456, 2, error="")]

    def test_csv_round_trip(self, tmp_path):
        p = export_records(self.records(), tmp_path / "r.csv")
        back = load_records(p)
        assert back == self.records()

    def test_csv_with_byte_order_mark(self, tmp_path):
        p = export_records(self.records(), tmp_path / "r.csv")
        p.write_text("\ufeff" + p.read_text(encoding="utf-8"), encoding="utf-8")
        assert load_records(p) == self.records()

    def test_json_round_trip(self, tmp_path):
        p = export_records(self.records(), tmp_path / "r.json")
        back = load_records(p)
        assert back == self.records()
        payload = json.loads(p.read_text())
        assert payload["version"] == 1

    def test_empty_records_header_only(self, tmp_path):
        p = export_records([], tmp_path / "empty.csv")
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == ["instance_id", "solver_id", "energy",
                                       "reference_energy", "gap", "wall_time",
                                       "seed", "error"]

    @pytest.mark.parametrize("name", ["r.txt", "r", "r.json.csv"])
    def test_format_follows_suffix(self, tmp_path, name):
        p = export_records(self.records(), tmp_path / name)
        assert p.read_text().startswith("instance_id,solver_id,")
        assert load_records(p) == self.records()
        p = export_records(self.records(), tmp_path / "r.json")
        assert json.loads(p.read_text())["version"] == 1


def _binary_hubo(n, seed):
    from qubokit.generators import gen_chain3
    from qubokit.model import HuboModel
    return HuboModel.from_terms(n, "binary", gen_chain3(n, seed).terms(), max_order=3)


class TestSuiteInputs:
    def test_binary_hubo_file_gives_records(self, tmp_path):
        write_instance(tmp_path / "bh.txt", _binary_hubo(6, 4))
        spec = SuiteSpec(source={"files": str(tmp_path / "*.txt")},
                         solvers=[{"id": "sa", "params": {"sweeps": 50}}, {"id": "bf"}],
                         reference="brute_force", replicas=8)
        records = run_suite(spec)
        assert len(records) == 2
        for rec in records:
            assert rec.error == ""
            assert rec.gap >= -1e-12

    def test_doctored_certificate_becomes_record_error(self, tmp_path):
        # the planted state is evaluated on the file's model; the other file still runs
        for name, seed in (("a.txt", 9), ("b.txt", 10)):
            pi = gen_tile(4, (0, 0.2, 0, 0.8), seed=seed)
            write_instance(tmp_path / name, pi.model)
            write_certificate(tmp_path / f"{name}.cert.json", pi)
        cert = tmp_path / "a.txt.cert.json"
        cert.write_text(json.dumps({**json.loads(cert.read_text()), "planted_energy": -1e6}))
        spec = SuiteSpec(source={"files": str(tmp_path / "*.txt")},
                         solvers=[{"id": "sa", "params": {"sweeps": 50}}],
                         reference="planted", replicas=8)
        a, b = run_suite(spec)
        assert a.instance_id == "a.txt" and "planted state evaluates to" in a.error
        assert np.isnan(a.gap)
        assert b.instance_id == "b.txt" and b.error == "" and np.isfinite(b.gap)

    def test_bad_file_becomes_record_error(self, tmp_path):
        from qubokit.model import HuboModel
        write_instance(tmp_path / "a_good.txt", gen_random("complete", "uniform", 3, n=6))
        (tmp_path / "b_header.txt").write_text("6 1\n1 2 0.5\n")
        write_instance(tmp_path / "c_order4.txt",
                       HuboModel.from_terms(5, "spin", [((0, 1, 2, 3), 1.0)]))
        spec = SuiteSpec(source={"files": str(tmp_path / "*.txt")},
                         solvers=[{"id": "sa", "params": {"sweeps": 20}}, {"id": "bf"}],
                         reference="best_of_suite", replicas=4)
        records = run_suite(spec)
        assert [(r.instance_id, r.solver_id) for r in records] == [
            (f, s) for f in ("a_good.txt", "b_header.txt", "c_order4.txt")
            for s in ("bf", "sa")]
        by_file = {}
        for rec in records:
            by_file.setdefault(rec.instance_id, []).append(rec)
        assert all(r.error == "" for r in by_file["a_good.txt"])
        assert all(r.error.startswith("ValidationError") for r in by_file["b_header.txt"])
        assert all(r.error.startswith("UnsupportedOrderError")
                   for r in by_file["c_order4.txt"])
        assert all(np.isnan(r.energy) for r in by_file["c_order4.txt"])

    def test_unknown_bf_params_rejected(self, tmp_path):
        spec = SuiteSpec(
            source={"generator": {"family": "random", "sizes": [6], "seeds": [1]}},
            solvers=[{"id": "bf", "params": {"bogus": 3}}], replicas=4)
        [rec] = run_suite(spec)
        assert "unknown bf parameters" in rec.error and "bogus" in rec.error

    @pytest.mark.parametrize("generator", [
        {"family": "tile", "sizes": [4], "seeds": [1], "p_2": 0.9},
        {"family": "tile", "sizes": [4], "seeds": [1]},
        {"family": "wishart", "sizes": [8], "seeds": [1]},
        {"family": "random", "sizes": [6], "seeds": [1], "n": 6},
        {"family": "r3x3", "sizes": [6], "seeds": [1]},
        {"family": "random", "sizes": [6], "seeds": [1], "dist": "int_uniform", "a": 3, "b": 1},
        {"family": "wishart", "sizes": [8], "seeds": [1], "alpha": float("nan")},
    ])
    def test_generator_keywords_checked(self, generator):
        from qubokit import ValidationError
        spec = SuiteSpec(source={"generator": generator},
                         solvers=[{"id": "bf"}], replicas=4)
        with pytest.raises(ValidationError):
            run_suite(spec)

    @pytest.mark.parametrize("value", [0, -3, 2.5, "2", True])
    @pytest.mark.parametrize("field", ["workers", "brute_force_cap", "replicas"])
    def test_counts_must_be_positive_integers(self, field, value):
        from qubokit import ValidationError
        spec = SuiteSpec(source={"generator": {"family": "random", "sizes": [6], "seeds": [1]}},
                         solvers=[{"id": "bf"}], **{"replicas": 4, field: value})
        with pytest.raises(ValidationError, match=field):
            run_suite(spec)

    def test_sample_count_is_an_unknown_field(self, tmp_path):
        from qubokit import ValidationError
        p = tmp_path / "suite.json"
        p.write_text(json.dumps({"source": {"files": "*.txt"}, "solvers": [{"id": "bf"}],
                                 "sample_count": 8}))
        with pytest.raises(ValidationError, match="unknown suite fields: \\['sample_count'\\]"):
            SuiteSpec.from_json(p)

    def test_3r3x_family_name(self):
        spec = SuiteSpec(source={"generator": {"family": "3r3x", "sizes": [6], "seeds": [2]}},
                         solvers=[{"id": "bf"}], reference="planted", replicas=4)
        [rec] = run_suite(spec)
        assert rec.instance_id == "3r3x-n6-s2"
        assert rec.gap == 0.0
