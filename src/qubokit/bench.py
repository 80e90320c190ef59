"""Benchmark harness: optimality gaps, suites, spectra, and report export.

A suite pairs an instance source (generator sweep or file glob) with a list
of solver configurations.  Generator families and their keywords are those
of ``generators.GENERATORS`` (the suite's ``sizes`` sweep each family's size
keyword); solver ids and parameters are those of ``solvers.SOLVERS``; every
instance reaches the solvers through ``transforms.to_ising``.  Each
(instance, solver) entry runs with its configured replicas, keeps the best
sample, and records the optimality gap

    gap = (energy - reference_energy) / |reference_energy|

against the suite's reference policy.  Wall time covers the solve call only
(monotonic clock, I/O excluded).  Failed entries become per-record errors
and the suite continues; a file in the glob that cannot be read or
normalised, or whose certificate's planted state does not reach the planted
energy on the file's model, gives each solver one record carrying that
error.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import glob as globmod
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ReferenceUndefinedError, ValidationError, check_count, check_finite_real
from .generators import GENERATORS, PlantedInstance, generate
from .instance_io import _read_json, _read_json_object, read_certificate, read_instance
from .model import IsingModel
from .solvers import DEFAULT_CAP, SOLVERS, run_solver, solve_brute_force
from .transforms import to_ising

REPORT_SCHEMA_VERSION = 1


def optimality_gap(e: float, e_ref: float) -> float:
    """Relative gap of an energy against a reference; negative means better."""
    if e_ref == 0:
        raise ReferenceUndefinedError(
            "optimality gap undefined for zero reference energy; "
            "use an absolute difference explicitly")
    return (e - e_ref) / abs(e_ref)


@dataclass
class GapRecord:
    instance_id: str
    solver_id: str
    energy: float
    reference_energy: float
    gap: float
    wall_time: float
    seed: int | None
    error: str = ""


@dataclass
class SuiteSpec:
    """Declarative description of a benchmark suite.

    ``source`` is either {"generator": {"family", "sizes", "seeds", ...}} or
    {"files": "<glob>"}.  ``solvers`` entries are {"id", "name"?, "params"?}.
    ``reference`` is one of planted | brute_force | best_of_suite | file.
    """

    source: dict
    solvers: list[dict]
    reference: str = "best_of_suite"
    replicas: int = 1024
    reference_file: str | None = None
    brute_force_cap: int = DEFAULT_CAP
    workers: int = 1

    def validate(self):
        """Refuse a malformed spec before any instance is built: bad counts,
        an unknown reference policy, a reference_file that is not a string,
        a source or solver entry of the wrong shape (family and files
        strings, sizes and seeds lists, solver entries objects with a known
        id, a string name and object params)."""
        _check_source(self.source)
        if not self.solvers:
            raise ValidationError("suite needs at least one solver")
        for solver in self.solvers:  # ids looked up in a list: an unhashable id is compared
            if not (isinstance(solver, dict) and solver.get("id") in list(SOLVERS)
                    and isinstance(solver.get("name", ""), str)
                    and isinstance(solver.get("params", {}), dict)):
                raise ValidationError(f"solver entry needs an object with an 'id' in "
                                      f"{sorted(SOLVERS)}, a string 'name' and object "
                                      f"'params' when given, got {solver!r}")
        for name in ("replicas", "brute_force_cap", "workers"):
            check_count(name, getattr(self, name))
        if self.reference not in ("planted", "brute_force", "best_of_suite", "file"):
            raise ValidationError(f"unknown reference policy {self.reference!r}")
        if not isinstance(self.reference_file, (str, type(None))):
            raise ValidationError(f"reference_file needs a string, got {self.reference_file!r}")
        if self.reference == "file" and not self.reference_file:
            raise ValidationError("reference policy 'file' needs reference_file")

    @classmethod
    def from_json(cls, path) -> "SuiteSpec":
        data = _read_json_object(path, "suite")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown suite fields: {sorted(unknown)}")
        spec = cls(**data)
        spec.validate()
        return spec


def _check_source(source):
    """Refuse a source other than {"generator": {"family": str, "sizes":
    list, "seeds": list, ...}} or {"files": str}."""
    if isinstance(source, dict) and "generator" in source:
        fields, kinds = source["generator"], {"family": str, "sizes": list, "seeds": list}
    elif isinstance(source, dict) and "files" in source:
        fields, kinds = source, {"files": str}
    else:
        raise ValidationError("suite source must contain 'generator' or 'files'")
    for key, kind in kinds.items():
        value = fields.get(key) if isinstance(fields, dict) else None
        if not isinstance(value, kind):
            raise ValidationError(f"suite source {key!r} needs a {kind.__name__}, got {value!r}")


@dataclass
class _Entry:
    instance_id: str
    model: IsingModel | None
    seed: int | None
    planted_energy: float | None
    error: str = ""


def _read_entry(path: str) -> _Entry:
    iid = Path(path).name
    try:
        instance = read_instance(path)
        model, _ = to_ising(instance)
        planted = None
        cert = Path(path).with_suffix(Path(path).suffix + ".cert.json")
        if cert.exists():  # the planted state is evaluated on the model as read
            c = read_certificate(cert)
            planted = PlantedInstance(instance, c["planted_energy"], c["planted_state"],
                                      c["family"]).planted_energy
    except Exception as exc:  # one unreadable file: per-record errors, suite continues
        return _Entry(iid, None, None, None, f"{type(exc).__name__}: {exc}")
    return _Entry(iid, model, None, planted)


def _resolve_instances(spec: SuiteSpec) -> list[_Entry]:
    if "generator" in spec.source:
        g = dict(spec.source["generator"])
        family = g.pop("family")
        sizes = g.pop("sizes")
        seeds = g.pop("seeds")
        if family not in GENERATORS:
            raise ValidationError(f"unknown generator family {family!r}")
        size_key = GENERATORS[family].size
        if size_key in g:
            raise ValidationError(f"{family}: {size_key!r} comes from 'sizes'")
        entries = []
        for size in sizes:
            for seed in seeds:
                model, planted = generate(family, seed, **g, **{size_key: size})
                entries.append(_Entry(f"{family}-n{size}-s{seed}", to_ising(model)[0], seed,
                                      planted.planted_energy if planted else None))
        return entries
    paths = sorted(globmod.glob(spec.source["files"]))
    if not paths:
        raise ValidationError(f"file glob {spec.source['files']!r} matched nothing")
    return [_read_entry(p) for p in paths]


def _read_references(path) -> dict[str, float]:
    """Reference energies by instance id from the JSON object at ``path``;
    a value that is not a finite real is a ValidationError naming the file."""
    refs = _read_json_object(path, "reference file")
    for iid, energy in refs.items():
        check_finite_real(f"{path}: reference energy of {iid!r}", energy)
    return {iid: float(energy) for iid, energy in refs.items()}


def run_suite(spec: SuiteSpec) -> list[GapRecord]:
    """Execute a suite and return one GapRecord per (instance, solver)."""
    spec.validate()
    file_refs = _read_references(spec.reference_file) if spec.reference == "file" else {}
    entries = _resolve_instances(spec)

    tasks = [(entry, solver) for entry in entries for solver in spec.solvers]

    def run_task(task):
        entry, solver = task
        sid = solver.get("name", solver["id"])
        if entry.error:
            return (entry, sid, np.nan, 0.0, entry.error)
        try:
            result = run_solver(solver["id"], entry.model, solver.get("params", {}),
                                replicas=spec.replicas,
                                seed=entry.seed if entry.seed is not None else 0,
                                cap=spec.brute_force_cap)
            return (entry, sid, result.energy, result.wall_time, "")
        except Exception as exc:  # per-entry failure: record and continue
            return (entry, sid, np.nan, 0.0, f"{type(exc).__name__}: {exc}")

    # one worker runs in the calling thread: a pool thread allocates from its
    # own glibc malloc arena, which raised a one-worker suite's peak RSS on
    # complete n=500 from 73.0 to 79.1 MB
    if spec.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=spec.workers) as pool:
            raw_results = list(pool.map(run_task, tasks))
    else:
        raw_results = [run_task(t) for t in tasks]

    best_by_instance: dict[str, float] = {}
    for entry, sid, energy, dt, err in raw_results:
        if not err and (entry.instance_id not in best_by_instance
                        or energy < best_by_instance[entry.instance_id]):
            best_by_instance[entry.instance_id] = energy

    records: list[GapRecord] = []
    references: dict[str, float] = {}  # per instance: brute force runs once, not per solver
    for entry, sid, energy, dt, err in raw_results:
        ref = np.nan
        gap = np.nan
        if not err:
            try:
                if entry.instance_id not in references:
                    references[entry.instance_id] = _resolve_reference(
                        entry, spec, best_by_instance, file_refs)
                ref = references[entry.instance_id]
                gap = optimality_gap(energy, ref)
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        records.append(GapRecord(instance_id=entry.instance_id, solver_id=sid,
                                 energy=float(energy), reference_energy=float(ref),
                                 gap=float(gap), wall_time=dt, seed=entry.seed,
                                 error=err))
    records.sort(key=lambda r: (r.instance_id, r.solver_id))
    return records


def _resolve_reference(entry: _Entry, spec: SuiteSpec, best_by_instance, file_refs) -> float:
    if spec.reference == "planted":
        if entry.planted_energy is None:
            raise ValidationError(f"{entry.instance_id}: no planted certificate")
        return entry.planted_energy
    if spec.reference == "brute_force":
        _, e = solve_brute_force(entry.model, cap=spec.brute_force_cap)
        return e
    if spec.reference == "best_of_suite":
        return best_by_instance[entry.instance_id]
    # "file": SuiteSpec.validate admits no other policy
    if entry.instance_id not in file_refs:
        raise ValidationError(f"{entry.instance_id}: not in reference file")
    return file_refs[entry.instance_id]


def spectrum(sampleset, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram of sample energies; counts sum to sample count."""
    check_count("bins", bins)
    energies = sampleset.energies()
    if energies.size == 0:
        raise ValidationError("spectrum needs at least one sample")
    lo, hi = float(energies.min()), float(energies.max())
    if lo == hi:
        return np.array([lo, hi]), np.array([energies.size])
    counts, edges = np.histogram(energies, bins=bins, range=(lo, hi))
    return edges, counts


def export_records(records: list[GapRecord], path) -> Path:
    """Write records in ``GapRecord``'s field order: JSON for a ``.json``
    path, else CSV."""
    path = Path(path)
    try:
        if path.suffix == ".json":
            payload = {"version": REPORT_SCHEMA_VERSION,
                       "records": [dataclasses.asdict(rec) for rec in records]}
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        else:
            fields = [f.name for f in dataclasses.fields(GapRecord)]
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                for rec in records:
                    writer.writerow(dataclasses.asdict(rec))
    except OSError as exc:
        raise OSError(f"failed to write report {path}: {exc}") from exc
    return path


def load_records(path) -> list[GapRecord]:
    """Records written by ``export_records``: JSON for a ``.json`` path, else
    CSV; a byte-order mark opening the file is skipped."""
    path = Path(path)
    records = []
    if path.suffix != ".json":
        with path.open(newline="", encoding="utf-8-sig") as fh:
            for row in csv.DictReader(fh):
                records.append(GapRecord(
                    instance_id=row["instance_id"], solver_id=row["solver_id"],
                    energy=float(row["energy"]), reference_energy=float(row["reference_energy"]),
                    gap=float(row["gap"]), wall_time=float(row["wall_time"]),
                    seed=None if row["seed"] in ("", "None") else int(row["seed"]),
                    error=row.get("error", "")))
    else:
        payload = _read_json(path)
        for row in payload["records"]:
            records.append(GapRecord(**row))
    return records
