"""qci benchmark: one command for the end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the package in ``src``.
``--trace 0`` prints the end-to-end metrics of an untraced run, ``--trace 1``
the per-layer metrics of a traced run; without ``--trace`` both runs are
made and their metrics merged.  ``--workload all`` (the default) runs every
workload.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, record the machine and how the figures were taken.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("dense-node", "small-mix", "cli-sweep")
SETUP_PROBES = 11
RUN_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import qci from {SRC}:\n{proc.stderr}")
    return proc.stdout.strip()


def check_import() -> None:
    found = probe("import qci; print(qci.__file__)")
    if Path(found).resolve().parent != (SRC / "qci").resolve():
        raise SystemExit(f"perfbench: imported qci from {found}, not from {SRC}")


def setup_walls(n: int) -> list[float]:
    """Wall times of ``n`` cold interpreters that import qci and build the
    default field."""
    walls = []
    for _ in range(n):
        t0 = perf_counter()
        probe("import qci; qci.PrimeField(32003)")
        walls.append(perf_counter() - t0)
    return walls


def machine() -> dict:
    info = json.loads(probe(
        "import json, os, sys, numpy; print(json.dumps({'nproc': os.cpu_count(), "
        "'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
    ))
    info["blas_threads"] = {v: os.environ.get(v, "unset") for v in BLAS_VARS}
    return info


def run_one(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one workload in a fresh interpreter and return its parsed outcome."""
    cmd = [sys.executable, str(HERE / "workload.py"), name, str(seed), str(seconds), str(trace)]
    proc = subprocess.run(cmd + ["--quick"] * quick, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description="qci benchmark")
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if not (SRC / "qci" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qci package under {SRC}")

    names = NAMES if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    print("# machine: " + json.dumps(machine()))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    check_import()
    for name in names:
        metrics = {}
        for trace in traces:
            # setup probes before and after the run, so one burst of load
            # on the machine does not decide the median
            setup = setup_walls(SETUP_PROBES // 2) if trace == 0 else []
            res = run_one(name, args.seed, args.seconds, trace, args.quick)
            if trace == 0:
                setup += setup_walls(SETUP_PROBES - len(setup))
                metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            for note in res["notes"]:
                print(f"# {name}: {note}")
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            metrics.update(res["metrics"])
        for key, m in metrics.items():
            print(f"# {name}: {key} = {m['value']:.6g} {m['unit']}")
            total["metrics"][key if len(names) == 1 else f"{name}/{key}"] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
