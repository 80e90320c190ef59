"""qubokit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-planted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, one process each

A run sets the workload up from its seed in this process, then repeats timed
passes over the workload's calls for ``--seconds`` seconds and reports the
median pass time.  After each untraced pass it sets the workload up again in
fresh processes, so that import time counts, and it reports the median of
all set-up times.  Every operation's
output is checked on the first pass; later passes must reproduce the first
bit for bit, since the solvers are deterministic per seed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the last line holds the
per-layer metrics taken from spans around each call into qubokit, plus the
tracing overhead.  The line before the last is the run record: machine,
versions, sizes and budgets, and the sample count behind each metric.  The
exit code is 1 when an operation fails or an output check fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh-process set-ups after each untraced pass.  Spreading them over the
# run, rather than taking them all at the start, lets setup_s sample the same
# stretch of machine time as run_s.
SETUPS_PER_PASS = 2
MIN_PASSES = 3      # per kind of pass (untraced, traced)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "approx_ratio": "ratio",
    "replica_ratio": "ratio",
}

PER_LAYER = {
    "annealing.busy_s": "s",
    "annealing.ns_per_update": "ns",
    "annealing.replica_success": "ratio",
    "parallel_annealing.busy_s": "s",
    "parallel_annealing.ms_per_step": "ms",
    "bifurcation.busy_s": "s",
    "bifurcation.ms_per_step": "ms",
    "eigen.eig_extreme_ms": "ms",
    "common.make_sampleset_ms": "ms",
    "model.energies_ms": "ms",
    "model.energies_computed_mb": "MB",
    "model.from_terms_s": "s",
    "brute_force.busy_s": "s",
    "brute_force.mstates_per_s": "Mstates/s",
    "branch_bound.busy_s": "s",
    "branch_bound.expansions": "count",
    "branch_bound.us_per_expansion": "us",
    "branch_bound.evictions": "count",
    "branch_bound.proved": "ratio",
    "generators.busy_s": "s",
    "instance_io.write_s": "s",
    "instance_io.read_s": "s",
    "instance_io.file_mb": "MB",
    "instance_io.read_mb_per_s": "MB/s",
    "transforms.ising_to_qubo_s": "s",
    "transforms.qubo_to_ising_s": "s",
    "transforms.reduce_cubic_s": "s",
    "bench.run_suite_s": "s",
    "bench.overhead_s": "s",
    "bench.records_failed": "count",
    "bench.suite_aborts": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quality(outcomes) -> dict:
    """Solution quality of one pass against each call's reference energy."""
    from qubokit import optimality_gap
    from workloads import close

    judged = [o for o in outcomes if not o.error and o.energies is not None and o.ref is not None]
    best_gaps = [optimality_gap(float(o.energies[0]), o.ref) for o in judged]
    replica_gaps = [optimality_gap(float(e), o.ref) for o in judged for e in o.energies]
    hits = [close(float(o.energies[0]), o.ref) and o.proved is not False for o in judged]
    replica_hits = [close(float(e), o.ref) for o in judged for e in o.energies]
    bb = [o for o in outcomes if o.op == "bb"]
    return {
        "approx_ratio": 1.0 if not best_gaps else 1.0 - statistics.fmean(best_gaps),
        "replica_ratio": 1.0 if not replica_gaps else 1.0 - statistics.fmean(replica_gaps),
        "success_rate": _ratio(sum(hits), len(hits)),
        "replica_success": _ratio(sum(replica_hits), len(replica_hits)),
        "mean_gap": statistics.fmean(best_gaps) if best_gaps else 0.0,
        "proved_rate": _ratio(sum(1 for o in bb if o.proved), len(bb)) if bb else None,
        "calls": len(judged),
        "replicas": len(replica_gaps),
    }


def layer_metrics(tracer, setup_tracer, outcomes) -> dict:
    """Per-layer metrics of one traced pass (set-up spans added where noted)."""
    from workloads import close

    ok = [o for o in outcomes if not o.error]

    def work(op, key):
        return sum(o.work.get(key, 0) for o in ok if o.op == op)

    def mean_ms(name):
        d = tracer.durations(name)
        return 1e3 * statistics.fmean(d) if d else 0.0

    sa = [o for o in ok if o.op == "sa" and o.ref is not None]
    sa_hits = [close(float(e), o.ref) for o in sa for e in o.energies]
    bb = [o for o in ok if o.op == "bb"]
    suite = [o for o in ok if o.op == "run_suite"]
    records = [r for o in suite for r in o.data["records"]]
    m = {}
    m["annealing.busy_s"] = tracer.busy("annealing.solve_sa")
    m["annealing.ns_per_update"] = 1e9 * _ratio(m["annealing.busy_s"], work("sa", "updates"))
    m["annealing.replica_success"] = _ratio(sum(sa_hits), len(sa_hits))
    m["parallel_annealing.busy_s"] = tracer.busy("parallel_annealing.solve_pa")
    m["parallel_annealing.ms_per_step"] = 1e3 * _ratio(m["parallel_annealing.busy_s"],
                                                       work("pa", "steps"))
    m["bifurcation.busy_s"] = tracer.busy("bifurcation.solve_sbm")
    m["bifurcation.ms_per_step"] = 1e3 * _ratio(m["bifurcation.busy_s"], work("sbm", "steps"))
    m["eigen.eig_extreme_ms"] = mean_ms("eigen.eig_extreme")
    m["common.make_sampleset_ms"] = mean_ms("common.make_sampleset")
    m["model.energies_ms"] = mean_ms("model.energies")
    m["model.energies_computed_mb"] = max((o.work.get("gather_mb", 0.0) for o in ok), default=0.0)
    m["model.from_terms_s"] = tracer.busy("model.from_terms")
    m["brute_force.busy_s"] = tracer.busy("brute_force.solve_brute_force")
    m["brute_force.mstates_per_s"] = 1e-6 * _ratio(work("bf", "states"), m["brute_force.busy_s"])
    m["branch_bound.busy_s"] = tracer.busy("branch_bound.solve_bb")
    m["branch_bound.expansions"] = work("bb", "expansions")
    m["branch_bound.us_per_expansion"] = 1e6 * _ratio(m["branch_bound.busy_s"],
                                                      m["branch_bound.expansions"])
    m["branch_bound.evictions"] = work("bb", "evictions")
    m["branch_bound.proved"] = _ratio(sum(1 for o in bb if o.proved), len(bb))
    m["generators.busy_s"] = sum(s.duration for s in tracer.spans + setup_tracer.spans
                                 if s.name.startswith("generators."))
    m["instance_io.write_s"] = tracer.busy("instance_io.write_instance")
    m["instance_io.read_s"] = tracer.busy("instance_io.read_instance")
    m["instance_io.file_mb"] = work("write", "bytes") / 1e6
    m["instance_io.read_mb_per_s"] = _ratio(m["instance_io.file_mb"], m["instance_io.read_s"])
    m["transforms.ising_to_qubo_s"] = tracer.busy("transforms.ising_to_qubo")
    m["transforms.qubo_to_ising_s"] = tracer.busy("transforms.qubo_to_ising")
    m["transforms.reduce_cubic_s"] = (tracer.busy("transforms.reduce_cubic")
                                      + setup_tracer.busy("transforms.reduce_cubic"))
    m["bench.run_suite_s"] = tracer.busy("bench.run_suite")
    m["bench.overhead_s"] = (m["bench.run_suite_s"] - sum(r.wall_time for r in records)
                             if suite else 0.0)
    m["bench.records_failed"] = sum(1 for r in records if r.error)
    return m


def blas_info() -> dict:
    """BLAS library behind numpy and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set the workload up in a fresh process and return its set-up time."""
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                          "--workload", workload, "--seed", str(seed)],
                         capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed: {res.stderr.strip()[-500:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl, seconds: float, trace: bool, between):
    """Repeat passes for ``seconds``; check every outcome.  Returns pass records.

    ``between`` is called after each untraced pass, inside the measured time.
    """
    from tracing import Tracer

    passes = []
    start = time.perf_counter()
    reference = None
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        tracer = Tracer(index) if traced else Tracer.off()
        t = time.perf_counter()
        outcomes = wl.run_pass(tracer)
        wall = time.perf_counter() - t
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, failed_ops = [], 0
        for i, out in enumerate(outcomes):
            if out.error:
                problems = [out.error]
            elif reference is None:
                problems = wl.check(out)
            elif i >= len(reference) or out.signature() != reference[i]:
                problems = ["output differs from pass 0 (solvers are deterministic per seed)"]
            else:
                problems = []
            failed_ops += bool(problems)
            failures += [f"pass {index} {out.request}: {p}" for p in problems]
        if reference is None:
            reference = [o.signature() for o in outcomes]
        for out in outcomes:
            # keep what the metrics need; a retained model per pass would
            # make peak memory grow with the number of passes
            out.model = out.states = None
            out.data = {k: v for k, v in out.data.items() if k == "records"}
        passes.append({"traced": traced, "wall": wall, "rss_mb": rss_mb,
                       "probe": tracer.probe_seconds(),
                       "outcomes": outcomes, "tracer": tracer, "failures": failures,
                       "failed_ops": failed_ops})
        if not traced:
            between()
        enough = all(sum(1 for p in passes if p["traced"] == k) >= MIN_PASSES
                     for k in ((False, True) if trace else (False,)))
        elapsed = time.perf_counter() - start
        if enough and elapsed + elapsed / len(passes) > seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, spec=None,
                 tamper=None, setup_start: float | None = None) -> dict:
    """Set up, measure and check one workload; returns the result and run record.

    ``tamper`` is called with the workload after set-up; the self-test uses
    it to inject a wrong reference energy.
    """
    import numpy as np
    import scipy

    import workloads
    from tracing import Tracer

    t0 = _T0 if setup_start is None else setup_start
    workdir = OUT / f"{name}-{os.getpid()}"
    setup_tracer = Tracer(-1) if trace else Tracer.off()
    wl = workloads.make(name, workdir, spec)
    try:
        wl.setup(seed, setup_tracer)
        setup_samples = [time.perf_counter() - t0]
        if tamper is not None:
            tamper(wl)

        def sample_setups():
            # setup_s is an end-to-end metric: a traced run does not report it
            if not trace:
                setup_samples.extend(child_setup_seconds(name, seed)
                                     for _ in range(SETUPS_PER_PASS))

        passes = measure(wl, seconds, trace, sample_setups)
        defects = wl.probe_defects()
    finally:
        wl.cleanup()
    # Peak over set-up and the first pass: later passes add only allocator
    # history (freed blocks not yet returned), which grows with their number.
    peak_rss_mb = passes[0]["rss_mb"]

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]["outcomes"]
    q = quality(first)
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    run_s = _median([p["wall"] for p in untraced])

    if trace:
        per_pass = [layer_metrics(p["tracer"], setup_tracer, p["outcomes"])
                    for p in traced]
        traced_run_s = _median([p["wall"] - p["probe"] for p in traced])
        values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        values["bench.suite_aborts"] = sum(
            1 for d in defects.values() if d.get("aborted"))
        values["trace.overhead_s"] = traced_run_s - run_s
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        samples = {k: len(traced) for k in PER_LAYER}
        samples["bench.suite_aborts"] = 1
        samples["trace.overhead_s"] = min(len(traced), len(untraced))
        OUT.mkdir(exist_ok=True)
        spans = setup_tracer.to_rows() + [r for p in traced for r in p["tracer"].to_rows()]
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        values = {"setup_s": _median(setup_samples), "run_s": run_s,
                  "peak_rss_mb": peak_rss_mb, "approx_ratio": q["approx_ratio"],
                  "replica_ratio": q["replica_ratio"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        samples = {"setup_s": len(setup_samples), "run_s": len(untraced), "peak_rss_mb": 1,
                   "approx_ratio": q["calls"], "replica_ratio": q["replicas"]}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed, one client, one process, run_suite workers=1",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "blas": blas_info(), "platform": platform.platform()},
        "commit": git_commit(),
        "spec": wl.spec,
        "instances": [i.id for i in wl.instances],
        "samples": samples,
        "setup_samples_s": setup_samples,
        "pass_walls_s": {"untraced": [p["wall"] for p in untraced],
                         "traced": [p["wall"] - p["probe"] for p in traced]},
        # figures that are 0 or undefined on some workloads, so
        # they are reported here rather than as bounded metrics
        "quality": {"success_rate": {"value": q["success_rate"], "unit": "ratio"},
                    "replica_success": {"value": q["replica_success"], "unit": "ratio"},
                    "mean_gap": {"value": q["mean_gap"], "unit": "ratio"},
                    "proved_rate": {"value": q["proved_rate"], "unit": "ratio"},
                    "error_rate": {"value": _ratio(failed, attempted), "unit": "ratio"}},
        "calls": [{"request": o.request, "error": o.error, "ref": o.ref,
                   "best": None if o.energies is None else float(o.energies[0]),
                   "proved": o.proved, "work": o.work} for o in first],
        "known_defects": defects,
        "failures": failures[:20],
    }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "record": record}


def run_all(args) -> int:
    """Run every workload, each in a fresh process; nonzero if any fails."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900, cwd=str(ROOT))
        lines = res.stdout.strip().splitlines()
        record = json.loads(lines[-2])["run_record"] if len(lines) >= 2 else {}
        print(json.dumps({"workload": name, "exit": res.returncode,
                          "result": json.loads(lines[-1]) if lines else None,
                          "quality": record.get("quality")}), flush=True)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qubokit" / "__init__.py").is_file():
        print(f"qubokit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads

    if args.all:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        from tracing import Tracer

        workloads.make(args.workload, OUT / "unused").setup(args.seed, Tracer.off())
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_record": out["record"]}, default=str))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
