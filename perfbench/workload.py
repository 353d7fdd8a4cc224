"""Run one workload in this interpreter and print its outcome as one JSON line.

    python3 perfbench/workload.py NAME SEED SECONDS TRACE [--quick]

run.py starts this script in a fresh interpreter for every workload, so peak
RSS and the ``functools.cache`` tables of ``qci.poly`` never carry over from
one workload to the next.  It expects ``src`` on ``PYTHONPATH``.

With TRACE 0 the script times the workload untraced and reports the
end-to-end metrics.  With TRACE 1 it makes one untraced and two traced
passes over the same tasks and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import spans
from workloads import NAMES, Task, build, check, run_inprocess

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
CHILD_TIMEOUT_S = 120
# cli-sweep: rounds of the single-input calls per pass over the task list
SINGLE_ROUNDS = 3


def run_main(task: Task) -> str:
    """``qci.cli.main`` on the task's argv, in this process; returns its stdout."""
    from qci import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(task.argv))
    if code != 0:
        raise RuntimeError(f"qci.cli.main exited {code}")
    return buf.getvalue()


def run_fresh(task: Task) -> str:
    """``python -m qci.cli`` on the task's argv in a fresh interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "qci.cli", *task.argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.stdout


def output_hashes(name: str, seed: int, quick: bool) -> list[str]:
    """sha256 of every task's output bytes, as the package produces them now."""
    inproc = run_main if name == "cli-sweep" else run_inprocess
    return [hashlib.sha256(inproc(t).encode()).hexdigest() for t in build(name, seed, quick)]


class Outcome:
    """Counts attempted and failed inputs and checks every output.

    An output fails if the task raised or exited nonzero, if it lacks the
    known answer, if its bytes differ from an earlier repetition of the same
    task, or (at the reference seed) if they differ from the recorded hash.
    """

    def __init__(self, name: str, seed: int, quick: bool):
        self.tasks = build(name, seed, quick)
        self.reference = None
        if seed == REFERENCE_SEED:
            key = name + (":quick" if quick else "")
            self.reference = json.loads(REFERENCE.read_text())[key]
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, i: int, payload: str | None, problem: str | None = None) -> None:
        task = self.tasks[i]
        self.attempted += task.rows
        if problem is None:
            problem = check(task, payload)
        if problem is None:
            digest = hashlib.sha256(payload.encode()).hexdigest()
            if self.first.setdefault(i, digest) != digest:
                problem = "output bytes differ between repetitions"
            elif self.reference is not None and self.reference[i] != digest:
                problem = "output bytes differ from the reference hash"
        if problem is not None:
            self.failed += task.rows
            self.error(f"task {i} ({' '.join(task.argv[:1])}): {problem}")

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            print(f"error: {message}", file=sys.stderr)
        self.errors.append(message)

    def attempt(self, i: int, fn) -> float:
        """Run ``fn(task)`` on task i, judge its output, return the wall seconds."""
        t0 = perf_counter()
        try:
            payload, problem = fn(self.tasks[i]), None
        except Exception as exc:  # a raising input is a counted failure, not a crash
            payload, problem = None, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.judge(i, payload, problem)
        return dt


def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def pass_order(tasks: list[Task]) -> list[int]:
    """Task indices of one pass.  Without sweeps every task runs once.  With
    sweeps (cli-sweep) the single-input calls run ``SINGLE_ROUNDS`` times,
    one round after each sweep and the rest after the last, so that their
    latency is a median over several samples spread across the run rather
    than over the few passes the long sweeps leave time for."""
    sweeps = [i for i, t in enumerate(tasks) if t.kind == "sweep"]
    if not sweeps:
        return list(range(len(tasks)))
    singles = [i for i, t in enumerate(tasks) if t.kind != "sweep"]
    order = []
    for r in range(SINGLE_ROUNDS):
        order += sweeps[r:r + 1] + singles
    return order + sweeps[SINGLE_ROUNDS:]


def end_to_end(name: str, out: Outcome, seconds: float, notes: list[str]) -> dict:
    """Passes over the task list until ``seconds`` have gone by; the first
    pass is always whole, the last may stop part-way.

    dense-node and small-mix run in process, cli-sweep as fresh CLI
    processes.  Each task's time is its median over its runs, which keeps
    a burst of load from a neighbour out of the figures.  The latency of an
    input is that median; on cli-sweep only the single-input subcommands
    have a latency, the sweeps count as rows.
    """
    fresh = name == "cli-sweep"
    fn = run_fresh if fresh else run_inprocess
    if not fresh:
        import qci  # noqa: F401  (import time is setup_s, not latency)
    walls = [[] for _ in out.tasks]
    order = pass_order(out.tasks)
    start = perf_counter()
    for k in itertools.count():
        i = order[k % len(order)]
        if k >= len(order) and perf_counter() - start >= seconds:
            break
        walls[i].append(out.attempt(i, fn))
    core, linalg = sys.modules.get("qci.core"), sys.modules.get("qci.linalg")
    if core is not None and (core.rank, core.kernel_basis) != (linalg.rank, linalg.kernel_basis):
        out.error("end-to-end pass ran with traced qci functions")
    per_task = [statistics.median(w) for w in walls]
    latency = [t for t, task in zip(per_task, out.tasks) if task.kind != "sweep"]
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    notes.append(
        f"end-to-end figures from an untraced run of {sum(map(len, walls))} task runs "
        f"over {len(out.tasks)} tasks; latency over {len(latency)} inputs, "
        f"{sum(t > p90 for t in latency)} beyond p90"
    )
    return {
        "inputs_per_s": (sum(t.rows for t in out.tasks) / sum(per_task), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (_peak_rss_mb(children=fresh), "MB"),
    }


def _median(summaries, part, key):
    return statistics.median(s[part].get(key, 0.0) for s in summaries)


def per_layer(name: str, out: Outcome, seconds: float, notes: list[str]) -> dict:
    """One untraced and two traced in-process passes, then the 1- and
    2-worker runs and the CLI start-up overhead.  The amount of work is
    fixed and ``seconds`` is not used: two traced passes are what the check
    that the counts repeat needs."""
    cli_wl = name == "cli-sweep"
    inproc = run_main if cli_wl else run_inprocess
    serial = [i for i, t in enumerate(out.tasks) if t.jobs == 1]
    if cli_wl:
        notes.append(
            "traced cli-sweep calls qci.cli.main in process with --jobs 1: "
            "forked sweep workers cannot return spans"
        )
    import qci.cli  # noqa: F401  (keep import time out of the first timed pass)

    tracer = spans.Tracer()
    untraced = sum(out.attempt(i, inproc) for i in serial)
    traced, summaries = [], []
    for _ in range(2):
        tracer.spans = []
        tracer.install()
        try:
            traced.append(
                sum(out.attempt(i, lambda t: tracer.request(inproc, t)) for i in serial)
            )
        finally:
            tracer.uninstall()
        for problem in spans.nesting_errors(tracer.spans):
            out.error(problem)
        summaries.append(spans.summarize(tracer.spans))
    counts = summaries[0]["counts"]
    for s in summaries[1:]:
        if s["counts"] != counts:
            out.error(f"deterministic counts differ between passes: {counts} vs {s['counts']}")

    # one- and two-worker throughput over the same inputs
    inputs = sum(out.tasks[i].rows for i in serial)
    if cli_wl:
        walls = {}
        for i, task in enumerate(out.tasks):
            if task.kind == "sweep":
                walls[task.jobs] = out.attempt(i, run_fresh)
        rows = out.tasks[0].rows
        jobs1, jobs2, pooled_wall = rows / walls[1], rows / walls[2], walls[2]
        row_time = _median(summaries, "seconds", "cli.sweep_row")
        sample = [i for i in serial if out.tasks[i].kind != "sweep"]
    else:
        jobs1 = inputs / untraced
        ctx = multiprocessing.get_context("spawn")
        t0 = perf_counter()
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            futures = [pool.submit(run_inprocess, t) for t in out.tasks]
        pooled_wall = perf_counter() - t0
        for i, fut in enumerate(futures):
            exc = fut.exception()
            problem = None if exc is None else f"raised {type(exc).__name__}: {exc}"
            out.judge(i, None if exc else fut.result(), problem)
        jobs2 = len(out.tasks) / pooled_wall
        row_time = _median(summaries, "seconds", "task")
        sample = serial[: 1 if name == "dense-node" else 5]

    # CLI overhead: fresh process minus in-process qci.cli.main, same argv
    overheads = []
    for i in sample:
        fresh_wall = out.attempt(i, run_fresh)
        overheads.append(fresh_wall - out.attempt(i, run_main))

    if tracer.unknown_callers:
        notes.append(f"linalg calls from unknown callers: {sorted(tracer.unknown_callers)}")
    linalg_names = [f"linalg.{v}" for v in spans.STAGES.values()] + ["linalg.unattributed"]
    linalg_total = sum(_median(summaries, "seconds", n) for n in linalg_names)
    report_total = statistics.median(
        sum(v for k, v in s["seconds"].items() if k.startswith("report.")) for s in summaries
    )
    notes.append(
        f"per-layer figures from {len(summaries)} traced passes of {inputs} inputs; "
        "seconds and counts are per pass"
    )
    return {
        "linalg.hilbert_rank_s": (_median(summaries, "seconds", "linalg.hilbert_rank"), "s"),
        "linalg.hilbert_rank_calls": (counts["linalg.hilbert_rank_calls"], "count"),
        "linalg.left_null_s": (_median(summaries, "seconds", "linalg.left_null"), "s"),
        "linalg.syzygy_kernel_s": (_median(summaries, "seconds", "linalg.syzygy_kernel"), "s"),
        "linalg.lift_rank_s": (_median(summaries, "seconds", "linalg.lift_rank"), "s"),
        "linalg.saturation_rank_s": (_median(summaries, "seconds", "linalg.saturation_rank"), "s"),
        "linalg.calls_per_input": (counts["linalg.calls"] / inputs, "count"),
        "linalg.cells": (counts["linalg.cells"], "count"),
        "linalg.ops_est": (counts["linalg.ops_est"], "count"),
        "linalg.max_cells": (counts["linalg.max_cells"], "count"),
        "linalg.repeat_frac": (counts["linalg.repeats"] / max(counts["linalg.calls"], 1), "1"),
        "linalg.share": (linalg_total / _median(summaries, "seconds", "task"), "1"),
        "poly.mult_matrix_s": (_median(summaries, "seconds", "poly.mult_matrix"), "s"),
        "poly.mult_matrix_calls": (counts["poly.mult_matrix_calls"], "count"),
        "poly.parse_s": (_median(summaries, "seconds", "poly.parse"), "s"),
        "core.self_s": (_median(summaries, "self", "core.analyze_qci"), "s"),
        "curve.self_s": (_median(summaries, "self", "curve.analyze_curve"), "s"),
        "report.serialize_s": (report_total, "s"),
        "cli.overhead_s": (statistics.median(overheads), "s"),
        "cli.pool_idle_frac": (1 - row_time / (2 * pooled_wall), "1"),
        "sweep_rows_per_s_jobs1": (jobs1, "1/s"),
        "sweep_rows_per_s_jobs2": (jobs2, "1/s"),
        "trace.overhead_frac": (statistics.median(traced) / untraced - 1, "1"),
        "trace.unattributed_frac": (
            _median(summaries, "seconds", "linalg.unattributed") / linalg_total, "1"
        ),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("name", choices=NAMES)
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    out = Outcome(args.name, args.seed, args.quick)
    notes = []
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.name, out, args.seconds, notes)
    if args.trace:
        metrics["failed_frac"] = (out.failed / out.attempted, "1")
    if out.reference is not None:
        notes.append(f"outputs compared with the reference hashes of seed {REFERENCE_SEED}")
    result = {
        "correct": out.failed == 0 and not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
