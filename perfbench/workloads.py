"""The workloads of the qubokit benchmark.

Each workload is a closed loop with one client: a single process calls
qubokit's public functions one after another, and each call starts when the
previous one has returned.  A workload has three parts:

* ``setup(seed, tracer)`` does everything before the timed region: instance
  generation from the workload seed, cubic reduction of HUBO inputs, and a
  BLAS warm-up.  Solvers only ever see the generated inputs.
* ``run_pass(tracer)`` is one timed pass over every call the workload makes,
  with results consumed.  It returns one ``Outcome`` per operation.  Every
  pass hands the solvers fresh model objects, so each pass pays the lazy
  matrix builds that a user solving a new model pays.
* ``check(outcome)`` runs the output checks on one operation and returns the
  failures; a failed check counts the operation as failed.

Why each workload exists, which layers it stresses and which it bypasses is
written in ``BASELINE.md`` next to this file; the one-line reasons are in
``BENCHMARK.json``.
"""

from __future__ import annotations

import glob
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qubokit import (
    HuboModel,
    IsingModel,
    ReductionMap,
    SuiteSpec,
    gen_3r3x,
    gen_chain3,
    gen_random,
    gen_tile,
    gen_wishart,
    ising_to_qubo,
    qubo_to_ising,
    read_instance,
    reduce_cubic,
    run_suite,
    write_instance,
)
from qubokit.solvers import (
    BBParams,
    PaParams,
    SaParams,
    SbmParams,
    eig_extreme,
    make_sampleset,
    solve_bb,
    solve_brute_force,
    solve_pa,
    solve_sa,
    solve_sbm,
)

REL_TOL = 1e-9

# Sizes and budgets per workload.  A pass takes about 2-4 s on a 2-CPU Xeon
# box, so one run of 25 s holds several passes and reports their median.
SPECS: dict[str, dict] = {
    "sparse-planted": {
        "families": [
            {"family": "tile", "args": {"L": 32, "p": [0.0, 0.8, 0.0, 0.2]}, "count": 1,
             "budgets": {"sa": {"sweeps": 10, "replicas": 64},
                         "pa": {"steps": 200, "replicas": 64},
                         "sbm": {"steps": 300, "dt": 0.05, "replicas": 64}}},
            {"family": "r3x3", "args": {"n": 48}, "count": 1,
             "budgets": {"sa": {"sweeps": 200, "replicas": 128},
                         "pa": {"steps": 1000, "replicas": 128},
                         "sbm": {"steps": 2000, "dt": 0.05, "replicas": 128}}},
        ],
    },
    "dense-planted": {
        "families": [
            {"family": "wishart", "args": {"N": 96, "M": 96}, "count": 2,
             "budgets": {"sa": {"sweeps": 40, "replicas": 256},
                         "pa": {"steps": 500, "replicas": 256},
                         "sbm": {"steps": 1000, "dt": 0.05, "replicas": 256}}},
        ],
    },
    "exact-proof": {
        "sizes": [24, 24, 26],
        "couplings": {"a": -31, "b": 31},
        "bb": {"bound_kind": "spd_admissible", "leaf_size": 14, "time_limit": 60.0},
    },
    "large-io": {
        "n": 500,
        "pa": {"steps": 100, "replicas": 64},
        "sbm": {"steps": 200, "dt": 0.05, "replicas": 64},
        "qubo_check_states": 16,
        "hubo_n": 12,
    },
}


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a workload run with ``seed``."""
    return seed * 100 + index


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def fresh(m: IsingModel) -> IsingModel:
    """A new model object on the same arrays, with empty lazy caches."""
    return IsingModel(n=m.n, h=m.h, rows=m.rows, cols=m.cols, values=m.values,
                      offset=m.offset)


def blas_warmup():
    a = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(4):
        a = np.tanh(a @ a.T / 256.0)


@dataclass
class Instance:
    id: str
    model: IsingModel
    seed: int
    ref: float | None = None          # certified ground-state energy
    budgets: dict = field(default_factory=dict)
    hubo: HuboModel | None = None     # original cubic model of a reduced instance
    rmap: ReductionMap | None = None


@dataclass
class Outcome:
    """One operation of a pass and what it returned."""

    request: str
    op: str
    model: IsingModel | None = None
    instance: Instance | None = None
    ref: float | None = None          # energy the result is judged against
    energies: np.ndarray | None = None  # returned energies, best first
    states: np.ndarray | None = None
    proved: bool | None = None
    work: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    error: str = ""

    def signature(self) -> tuple:
        """Everything a deterministic rerun must reproduce bit for bit."""
        return (self.request, self.op, self.error,
                None if self.energies is None else self.energies.tobytes(),
                None if self.states is None else self.states.tobytes(),
                self.proved, tuple(sorted(self.work.items())))


def failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


_HEURISTICS = {
    "sa": ("annealing.solve_sa", solve_sa, SaParams),
    "pa": ("parallel_annealing.solve_pa", solve_pa, PaParams),
    "sbm": ("bifurcation.solve_sbm", solve_sbm, SbmParams),
}


class Workload:
    name = ""

    def __init__(self, spec: dict, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.instances: list[Instance] = []

    def setup(self, seed: int, tracer) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> list[Outcome]:
        raise NotImplementedError

    def check(self, out: Outcome) -> list[str]:
        raise NotImplementedError

    def probe_defects(self) -> dict:
        """Known-defect probes run once per run, outside the timed passes."""
        return {}

    def cleanup(self) -> None:
        pass

    def _probe_instance(self, tracer, inst: Instance, model: IsingModel):
        """Traced passes only: time the eigen solve and model construction."""
        if not tracer.enabled:
            return
        request = f"{inst.id}/probe"
        with tracer.span("workload.probe", request, probe=True):
            with tracer.span("eigen.eig_extreme", request, probe=True):
                eig_extreme(model.coupling_operator(), "min")
            couplings = model.couplings()
            with tracer.span("model.from_terms", request, probe=True):
                IsingModel.from_terms(model.n, h=model.h, couplings=couplings,
                                      offset=model.offset)

    def _heuristic(self, tracer, inst: Instance, model: IsingModel, sid: str,
                   budget: dict, request: str | None = None) -> Outcome:
        span_name, solve, params_cls = _HEURISTICS[sid]
        params = params_cls(seed=inst.seed, **budget)
        request = request or f"{inst.id}/{sid}"
        work = {"n": model.n, "replicas": params.replicas,
                "gather_mb": 2 * 8 * params.replicas * model.num_couplings / 1e6}
        work["updates" if sid == "sa" else "steps"] = (
            params.sweeps * model.n * params.replicas if sid == "sa" else params.steps)
        out = Outcome(request, sid, model=model, instance=inst, ref=inst.ref, work=work)
        with tracer.span("workload.request", request):
            try:
                with tracer.span(span_name, request):
                    result = solve(model, params)
            except Exception as exc:  # a failed call is counted, the pass goes on
                out.error = failure(exc)
                return out
            out.energies = np.array([s.energy for s in result.samples])
            out.states = np.stack([s.state for s in result.samples])
            if tracer.enabled:
                with tracer.span("model.energies", request, probe=True):
                    model.energies(out.states)
                with tracer.span("common.make_sampleset", request, probe=True):
                    make_sampleset(model, out.states, params.seed)
        return out


def check_samples(out: Outcome) -> list[str]:
    """Reported energies are model energies; none beats the certificate."""
    errors = []
    for e, s in zip(out.energies, out.states):
        if not close(e, out.model.energy(s)):
            errors.append(f"{out.request}: reported energy {e!r} != model energy")
            break
    if out.ref is not None and out.energies[0] < out.ref - REL_TOL * max(1.0, abs(out.ref)):
        errors.append(f"{out.request}: best {out.energies[0]!r} below certified {out.ref!r}")
    inst = out.instance
    if inst is not None and inst.hubo is not None:
        for e, s in zip(out.energies, out.states):
            lifted = inst.hubo.energy(inst.rmap.lift(s))
            if lifted > e + REL_TOL * max(1.0, abs(e)):
                errors.append(f"{out.request}: lifted HUBO energy {lifted!r} > reduced {e!r}")
                break
    return errors


# planted family -> (generator, names of its size arguments in the spec)
_PLANTED = {
    "tile": (gen_tile, ("L", "p")),
    "r3x3": (gen_3r3x, ("n",)),
    "wishart": (gen_wishart, ("N", "M")),
}


class PlantedWorkload(Workload):
    """Heuristic solvers on planted instances with certified energies."""

    def setup(self, seed, tracer):
        index = 0
        for fam in self.spec["families"]:
            for _ in range(fam["count"]):
                s = instance_seed(seed, index)
                index += 1
                gen, arg_names = _PLANTED[fam["family"]]
                with tracer.span(f"generators.{gen.__name__}", "setup"):
                    planted = gen(*(fam["args"][a] for a in arg_names), s)
                iid = f"{fam['family']}-n{planted.model.n}-s{s}"
                if isinstance(planted.model, HuboModel):
                    with tracer.span("transforms.reduce_cubic", "setup"):
                        reduced, rmap = reduce_cubic(planted.model)
                    self.instances.append(Instance(iid, reduced, s, planted.planted_energy,
                                                   fam["budgets"], planted.model, rmap))
                else:
                    self.instances.append(Instance(iid, planted.model, s,
                                                   planted.planted_energy, fam["budgets"]))
        blas_warmup()

    def run_pass(self, tracer):
        outcomes = []
        for inst in self.instances:
            model = fresh(inst.model)
            for sid, budget in inst.budgets.items():
                outcomes.append(self._heuristic(tracer, inst, model, sid, budget))
            self._probe_instance(tracer, inst, model)
        return outcomes

    def check(self, out):
        return check_samples(out)


class SparsePlanted(PlantedWorkload):
    name = "sparse-planted"


class DensePlanted(PlantedWorkload):
    name = "dense-planted"


class ExactProof(Workload):
    """Branch & bound asked to prove the optimum; brute force as reference."""

    name = "exact-proof"

    def setup(self, seed, tracer):
        c = self.spec["couplings"]
        for index, n in enumerate(self.spec["sizes"]):
            s = instance_seed(seed, index)
            with tracer.span("generators.gen_random", "setup"):
                model = gen_random("complete", "int_uniform", s, n=n, a=c["a"], b=c["b"])
            self.instances.append(Instance(f"int-n{n}-s{s}", model, s))
        blas_warmup()

    def run_pass(self, tracer):
        outcomes = []
        params = BBParams(**self.spec["bb"])
        for inst in self.instances:
            model = fresh(inst.model)
            bb = Outcome(f"{inst.id}/bb", "bb", model=model, instance=inst)
            with tracer.span("workload.request", bb.request):
                try:
                    with tracer.span("branch_bound.solve_bb", bb.request):
                        res = solve_bb(model, params)
                    bb.energies = np.array([res.energy])
                    bb.states = res.state[None, :]
                    bb.proved = bool(res.optimal)
                    bb.work = {"expansions": res.expansions, "evictions": res.evictions}
                except Exception as exc:
                    bb.error = failure(exc)
            bf = Outcome(f"{inst.id}/bf", "bf", model=model, instance=inst,
                         work={"states": 2 ** model.n})
            with tracer.span("workload.request", bf.request):
                try:
                    with tracer.span("brute_force.solve_brute_force", bf.request):
                        state, energy = solve_brute_force(model)
                    bf.energies = np.array([energy])
                    bf.states = state[None, :]
                except Exception as exc:
                    bf.error = failure(exc)
            if not bf.error:
                bb.ref = bf.ref = float(bf.energies[0])
            self._probe_instance(tracer, inst, model)
            outcomes += [bb, bf]
        return outcomes

    def check(self, out):
        errors = check_samples(out)
        if out.op == "bb":
            if not out.proved:
                errors.append(f"{out.request}: solve_bb did not prove optimality")
            elif out.ref is not None and not close(out.energies[0], out.ref):
                errors.append(f"{out.request}: proved energy {out.energies[0]!r} != "
                              f"brute force {out.ref!r}")
        return errors


class LargeIO(Workload):
    """Library form of generate -> write -> read -> convert -> solve -> bench."""

    name = "large-io"

    def setup(self, seed, tracer):
        self.seed = instance_seed(seed, 0)
        n = self.spec["n"]
        self.instances.append(Instance(f"complete-n{n}-s{self.seed}", None, self.seed))
        blas_warmup()

    def _step(self, outcomes, tracer, op: str, span_name: str, fn):
        out = Outcome(f"pipeline/{op}", op)
        outcomes.append(out)
        with tracer.span("workload.request", out.request):
            try:
                with tracer.span(span_name, out.request):
                    return out, fn()
            except Exception as exc:
                out.error = failure(exc)
                return out, None

    def run_pass(self, tracer):
        sp = self.spec
        n = sp["n"]
        path = self.workdir / "instance.txt"
        self.workdir.mkdir(parents=True, exist_ok=True)
        outs: list[Outcome] = []
        _, model = self._step(outs, tracer, "generate", "generators.gen_random",
                              lambda: gen_random("complete", "uniform", self.seed, n=n))
        if model is None:
            return outs
        out, written = self._step(outs, tracer, "write", "instance_io.write_instance",
                                  lambda: write_instance(path, model))
        if written is None:
            return outs
        out.work = {"bytes": path.stat().st_size}
        out, back = self._step(outs, tracer, "read", "instance_io.read_instance",
                               lambda: read_instance(path))
        if back is None:
            return outs
        out.model, out.data = back, {"expected": model}
        out, qubo = self._step(outs, tracer, "ising_to_qubo", "transforms.ising_to_qubo",
                               lambda: ising_to_qubo(back))
        if qubo is None:
            return outs
        out, again = self._step(outs, tracer, "qubo_to_ising", "transforms.qubo_to_ising",
                                lambda: qubo_to_ising(qubo))
        if again is None:
            return outs
        out.model, out.data = again, {"original": back, "qubo": qubo}
        inst = self.instances[0]
        outs.append(self._heuristic(tracer, inst, back, "pa", sp["pa"], "pipeline/solve_pa"))
        suite = SuiteSpec(source={"files": glob.escape(str(path))},
                          solvers=[{"id": "sbm", "params": {"steps": sp["sbm"]["steps"],
                                                            "dt": sp["sbm"]["dt"]}}],
                          reference="best_of_suite", replicas=sp["sbm"]["replicas"],
                          workers=1)
        out, records = self._step(outs, tracer, "run_suite", "bench.run_suite",
                                  lambda: run_suite(suite))
        if records is not None:
            out.work = {"records": len(records),
                        "records_failed": sum(1 for r in records if r.error)}
            out.data = {"records": records}
            energies = [r.energy for r in records if not r.error]
            if energies:
                out.energies = np.array(sorted(energies))
        self._probe_instance(tracer, inst, back)
        # No certificate exists at this size: the reference is the best energy
        # any call of the pass found, as run_suite's best_of_suite policy does.
        solved = [o for o in outs if o.energies is not None and not o.error]
        if solved:
            ref = min(float(o.energies[0]) for o in solved)
            for o in solved:
                o.ref = ref
        return outs

    def check(self, out):
        if out.op == "read":
            want, got = out.data["expected"], out.model
            if not (isinstance(got, IsingModel) and got.n == want.n
                    and np.array_equal(got.h, want.h) and np.array_equal(got.rows, want.rows)
                    and np.array_equal(got.cols, want.cols)
                    and np.array_equal(got.values, want.values) and got.offset == want.offset):
                return ["pipeline/read: read_instance(write_instance(m)) differs from m"]
            return []
        if out.op == "qubo_to_ising":
            orig, qubo, again = out.data["original"], out.data["qubo"], out.model
            rng = np.random.default_rng(self.seed)
            S = rng.choice(np.array([-1, 1], dtype=np.int8),
                           size=(self.spec["qubo_check_states"], orig.n))
            e_orig = orig.energies(S)
            e_qubo = qubo.energies((S + 1) // 2)
            e_again = again.energies(S)
            if not all(close(a, b) and close(a, c) for a, b, c in zip(e_orig, e_qubo, e_again)):
                return ["pipeline/qubo_to_ising: QUBO round trip changes energies"]
            return []
        if out.op == "pa":
            return check_samples(out)
        if out.op == "run_suite":
            records = out.data["records"]
            if len(records) != 1:
                return [f"pipeline/run_suite: expected 1 record, got {len(records)}"]
            if records[0].error or not math.isfinite(records[0].energy):
                return [f"pipeline/run_suite: record failed: {records[0].error}"]
        return []

    def probe_defects(self):
        """run_suite over a binary-domain HUBO file.

        The bench docstring promises per-record errors, but today the suite
        aborts while resolving instances (ROADMAP item 5).  This is timed and
        counted apart from the workload's operations, and reported as found.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        n = self.spec["hubo_n"]
        spin = gen_chain3(n, self.seed)
        binary = HuboModel.from_terms(n, "binary", spin.terms(), max_order=3)
        path = write_instance(self.workdir / "binary-hubo.txt", binary)
        suite = SuiteSpec(source={"files": glob.escape(str(path))},
                          solvers=[{"id": "sa", "params": {"sweeps": 10}}], replicas=4)
        try:
            records = run_suite(suite)
        except Exception as exc:
            return {"binary_hubo_suite": {"aborted": True, "error": failure(exc),
                                          "records_failed": 0}}
        return {"binary_hubo_suite": {"aborted": False, "error": "",
                                      "records_failed": sum(1 for r in records if r.error)}}

    def cleanup(self):
        for name in ("instance.txt", "binary-hubo.txt"):
            p = self.workdir / name
            if p.exists():
                p.unlink()
        for d in (self.workdir, self.workdir.parent):
            if d.exists() and not any(d.iterdir()):
                d.rmdir()


WORKLOADS = {cls.name: cls for cls in (SparsePlanted, DensePlanted, ExactProof, LargeIO)}


def make(name: str, workdir: Path, spec: dict | None = None) -> Workload:
    return WORKLOADS[name](SPECS[name] if spec is None else spec, workdir)
