"""Command-line surface: generate | convert | reduce | solve | bench | verify.

Every subcommand is a thin adapter over the library API.  Exit codes:
0 success, 2 usage error (argparse), 3 validation error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .errors import QubokitError, ValidationError
from .generators import GENERATORS, generate
from .instance_io import (_read_json, read_certificate, read_instance, write_certificate,
                          write_instance)
from .solvers import DEFAULT_CAP, SOLVERS, default_config, run_solver, solve_brute_force
from .transforms import ising_to_qubo, to_ising

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qubokit",
                                     description="QUBO/Ising/HUBO toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an instance (+ certificate)")
    g.add_argument("family", choices=list(GENERATORS))
    g.add_argument("--n", type=int, help="variable count (chain3/mw3s/3r3x/wishart N/random)")
    g.add_argument("--m-cols", type=int, dest="M", help="wishart column count M")
    g.add_argument("--alpha", type=float, help="wishart ratio M/N (alternative to --m-cols)")
    g.add_argument("--L", type=int, help="tile lattice side")
    g.add_argument("--p2", type=float, help="tile C2 probability on the (0,p2,0,1-p2) line")
    g.add_argument("--p", type=float, nargs=4, metavar=("P1", "P2", "P3", "P4"),
                   help="tile full probability vector")
    g.add_argument("--topology", choices=["complete", "chimera", "edge_list"])
    g.add_argument("--rows", type=int, help="chimera rows")
    g.add_argument("--cols", type=int, help="chimera cols")
    g.add_argument("--edges", type=Path, help="edge list file (one 'i j' pair per line, 1-based)")
    g.add_argument("--dist", choices=["uniform", "int_uniform", "gaussian"])
    g.add_argument("--low", type=float, dest="a")
    g.add_argument("--high", type=float, dest="b")
    g.add_argument("--no-biases", action="store_false", dest="with_biases", default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path, required=True, help="instance output path")

    c = sub.add_parser("convert", help="convert between QUBO and Ising files")
    c.add_argument("instance", type=Path)
    c.add_argument("--to", choices=["ising", "qubo"], required=True)
    c.add_argument("--out", type=Path, required=True)

    r = sub.add_parser("reduce", help="reduce a cubic HUBO file to Ising")
    r.add_argument("instance", type=Path)
    r.add_argument("--out", type=Path, required=True)
    r.add_argument("--map", type=Path, dest="map_out", required=True,
                   help="reduction map output (JSON)")

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("instance", type=Path, nargs="?")
    s.add_argument("--solver", choices=list(SOLVERS), default="sa")
    s.add_argument("--params", type=Path, help="JSON file with solver parameters")
    s.add_argument("--replicas", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bf-cap", type=int, default=DEFAULT_CAP)
    s.add_argument("--out", type=Path, help="write report JSON here")
    s.add_argument("--print-config", action="store_true",
                   help="print solver parameter defaults and exit")

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", type=Path)
    b.add_argument("--out", type=Path, help="report path prefix")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--workers", type=int)

    v = sub.add_parser("verify", help="check a planted certificate")
    v.add_argument("instance", type=Path)
    v.add_argument("--certificate", type=Path, required=True)
    v.add_argument("--bf-cap", type=int, default=20,
                   help="run exhaustive confirmation when n <= cap")
    return parser


def _cmd_generate(args) -> int:
    # every flag left unset is dropped, so the family's own defaults apply
    params = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "family", "seed", "out")}
    if "edges" in params:  # one 1-based 'i j' pair per line
        params["edges"] = (np.loadtxt(params["edges"], dtype=np.int64, usecols=(0, 1),
                                      ndmin=2) - 1).tolist()
    model, planted = generate(args.family, args.seed, **params)
    summary = f"{args.family} n={model.n}"
    write_instance(args.out, model)
    if planted is not None:
        cert_path = args.out.with_suffix(args.out.suffix + ".cert.json")
        write_certificate(cert_path, planted)
        summary += f" planted_energy={planted.planted_energy} certificate={cert_path}"
    print(f"generated {summary} -> {args.out}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    model = read_instance(args.instance)
    out, lift = to_ising(model)
    if lift.reduction is not None:
        raise ValidationError("convert handles quadratic models; use 'reduce' for HUBO")
    if args.to == "qubo":  # a QUBO input is written back unchanged
        out = model if lift.binary else ising_to_qubo(out)
    write_instance(args.out, out)
    print(f"converted {args.instance} -> {args.out} ({args.to})")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    reduced, lift = to_ising(read_instance(args.instance))
    rmap = lift.reduction
    if rmap is None:
        raise ValidationError("reduce expects a HUBO instance file")
    write_instance(args.out, reduced)
    args.map_out.write_text(json.dumps(dataclasses.asdict(rmap), indent=2) + "\n",
                            encoding="utf-8")
    print(f"reduced {args.instance}: {rmap.original_n} vars + "
          f"{len(rmap.aux_bindings)} auxiliaries -> {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.print_config:
        print(default_config())
        return EXIT_OK
    if args.instance is None:
        raise ValidationError("solve needs an instance file")
    model = read_instance(args.instance)
    ising, lift = to_ising(model)
    rmap = lift.reduction
    if rmap is not None:
        print(f"reduction: {rmap.original_n} variables + {len(rmap.aux_bindings)} "
              f"auxiliaries (scale {rmap.energy_scale}, shift {rmap.energy_shift})")

    data = _read_json(args.params) if args.params is not None else {}
    result = run_solver(args.solver, ising, data, replicas=args.replicas, seed=args.seed,
                        cap=args.bf_cap)
    lifted = lift(result.state)
    report = {
        "instance": str(args.instance),
        "solver": args.solver,
        "n": ising.n,
        "samples": result.samples,
        "best_energy": result.energy,
        "best_state": [int(x) for x in result.state],
        "wall_time": result.wall_time,
        "optimal": result.optimal,
    }
    bound = ""
    if result.lower_bound is not None:
        report["lower_bound"] = result.lower_bound
        report["gap"] = result.energy - result.lower_bound
        bound = f" lower_bound={report['lower_bound']} gap={report['gap']}"
    if rmap is not None:
        report["reduction"] = dataclasses.asdict(rmap)
    report["lifted_state"] = [int(x) for x in lifted]
    report["lifted_energy"] = float(model.energy(lifted))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"solved {args.instance}: best_energy={result.energy}{bound}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    spec = bench_mod.SuiteSpec.from_json(args.suite)
    if args.workers is not None:
        spec.workers = args.workers
    records = bench_mod.run_suite(spec)
    out = args.out if args.out is not None else Path("bench_report")
    path = out.with_suffix(f".{args.format}")
    bench_mod.export_records(records, path)
    ok = [r for r in records if not r.error]
    mean_gap = float(np.mean([r.gap for r in ok])) if ok else float("nan")
    print(f"bench: {len(records)} records ({len(records) - len(ok)} errors), "
          f"mean gap {mean_gap:.6g} -> {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = read_instance(args.instance)
    cert = read_certificate(args.certificate)
    state = cert["planted_state"]
    energy = model.energy(state)
    declared = float(cert["planted_energy"])
    tol = 1e-9 * max(1.0, abs(declared))
    if abs(energy - declared) > tol:
        print(f"FAIL: planted state evaluates to {energy}, certificate says {declared}")
        return EXIT_VALIDATION

    check_model, _ = to_ising(model)
    if check_model.n <= args.bf_cap:
        _, ground = solve_brute_force(check_model, cap=args.bf_cap)
        if ground < declared - tol:
            print(f"FAIL: exhaustive minimum {ground} beats certificate {declared}")
            return EXIT_VALIDATION
        print(f"PASS: certificate energy {declared} confirmed as global minimum "
              f"(exhaustive, n={check_model.n})")
    else:
        print(f"PASS: planted state reproduces certificate energy {declared} "
              f"(search space of {check_model.n} spins above exhaustive cap)")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QubokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
