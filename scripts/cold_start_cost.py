"""Cold-start cost: wall time and peak memory of fresh qubokit processes.

Usage, from the root of a checkout:

    python3 scripts/cold_start_cost.py

Each case runs RUNS times in a fresh interpreter: ``import qubokit``; the
CLI ``solve`` of a small dense instance (complete, integer couplings in
[-31, 31], n = 20) with the ``bb`` and with the ``sa`` solver; the CLI
``solve`` of a tile L = 16 instance (n = 256, a CSR operator) with ``sa``;
the CLI ``generate`` of that tile instance, which builds no operator; and
the CLI ``solve`` with ``sbm`` (100 steps, 8 replicas, default c0, so the
Lanczos eigenvalue path above n = 512) of a tile L = 32 instance (n = 1024,
CSR) and of a dense complete uniform instance (n = 600).
The CLI runs in-process through ``qubokit.cli.main``, so the child can
report on itself afterwards.  For each case it reports the median wall time
of the child process as seen from here (interpreter start included), the
median peak resident set of the child in MB, and whether ``scipy`` was in
``sys.modules`` when the child finished.  The peak is the child's own
``VmHWM`` on Linux: a child's ``ru_maxrss`` includes the resident set this
script had when it started the child, its own imports and instances.  The children import nothing from
this directory.  It prints one JSON object:
the machine, the versions and one row per case.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qubokit import write_instance  # noqa: E402
from qubokit.generators import gen_random, gen_tile  # noqa: E402
from timing import environment  # noqa: E402

RUNS = 10

# the child's last stdout line: its peak RSS and whether it loaded scipy
_REPORT = """
import json, resource, sys
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"maxrss_mb": peak_kb / 1024.0, "scipy": "scipy" in sys.modules}))
"""


def _solve(path: Path, solver: str, *options: str) -> str:
    argv = ["solve", str(path), "--solver", solver, "--seed", "0", *options]
    return f"from qubokit.cli import main\nif main({argv!r}):\n    raise SystemExit(1)\n"


def _generate_tile(out: Path) -> str:
    argv = ["generate", "tile", "--L", "16", "--p2", "0.8", "--seed", "1", "--out", str(out)]
    return f"from qubokit.cli import main\nif main({argv!r}):\n    raise SystemExit(1)\n"


def measure(code: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    walls, rss = [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code + _REPORT], capture_output=True,
                             text=True, timeout=300, env=env, cwd=str(ROOT))
        walls.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise RuntimeError(f"child failed: {res.stderr.strip()[-500:]}")
        report = json.loads(res.stdout.strip().splitlines()[-1])
        rss.append(report["maxrss_mb"])
    return {"wall_s": round(statistics.median(walls), 4),
            "maxrss_mb": round(statistics.median(rss), 1),
            "scipy_loaded": report["scipy"]}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dense = write_instance(Path(tmp) / "dense.txt",
                               gen_random("complete", "int_uniform", 1, n=20, a=-31, b=31))
        tile = write_instance(Path(tmp) / "tile.txt",
                              gen_tile(16, [0.0, 0.8, 0.0, 0.2], 1).model)
        tile32 = write_instance(Path(tmp) / "tile32.txt",
                                gen_tile(32, [0.0, 0.8, 0.0, 0.2], 1).model)
        complete = write_instance(Path(tmp) / "complete.txt",
                                  gen_random("complete", "uniform", 1, n=600))
        sbm_params = Path(tmp) / "sbm.json"
        sbm_params.write_text(json.dumps({"steps": 100}))
        sbm = ("--params", str(sbm_params), "--replicas", "8")
        cases = {"import qubokit": "import qubokit\n",
                 "solve dense n=20 bb": _solve(dense, "bb"),
                 "solve dense n=20 sa": _solve(dense, "sa"),
                 "solve tile L=16 sa": _solve(tile, "sa"),
                 "generate tile L=16": _generate_tile(Path(tmp) / "generated.txt"),
                 "solve tile L=32 sbm": _solve(tile32, "sbm", *sbm),
                 "solve dense n=600 sbm": _solve(complete, "sbm", *sbm)}
        rows = [{"case": name, **measure(code)} for name, code in cases.items()]
    print(json.dumps({**environment(), "runs": RUNS, "results": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
