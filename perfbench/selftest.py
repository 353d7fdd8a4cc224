"""Quick self-test of the benchmark itself, on tiny inputs at seed 0.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced spans nest (children sum to no more than their parent), that
linalg time from an unknown caller is reported as unattributed, that the
end-to-end figures come from an untraced run, and that the benchmark fails
without printing a result when the package is missing.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_span_rules() -> None:
    parent = spans.Span("task", 0.0, None)
    parent.end = 1.0
    child = spans.Span("core.analyze_qci", 0.1, parent)
    child.end = 0.9
    expect(not spans.nesting_errors([parent, child]), "a nested span passes the nesting check")
    child.end = 1.5
    expect(bool(spans.nesting_errors([parent, child])), "a child outlasting its parent is caught")

    from qci import core, linalg

    tracer = spans.Tracer()
    tracer.install()
    try:
        def renamed_stage():
            return core.rank(np.eye(3, dtype=np.int64), linalg.PrimeField(7))

        tracer.request(renamed_stage)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    expect(names == ["task", "linalg.unattributed"], "a linalg call from an unknown caller is unattributed")
    expect(core.rank is linalg.rank, "uninstall restores the original functions")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workload(name: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(["--workload", name, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--quick"], ROOT)
        expect(proc.returncode == 0, f"{name} trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{name} trace {trace} result has exactly the four keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{name} trace {trace} is correct with no failed input")
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(got == want, f"{name} trace {trace} emits every {section} metric with its unit")
        values = [m["value"] for m in result["metrics"].values()]
        expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
               f"{name} trace {trace} values are finite numbers")
        if trace == 0:
            expect(all(v > 0 for v in values), f"{name} end-to-end values are positive")
            expect("end-to-end figures from an untraced run" in proc.stdout,
                   f"{name} end-to-end figures come from the untraced run")
        else:
            expect(result["metrics"]["trace.unattributed_frac"]["value"] == 0,
                   f"{name} attributes every linalg call to a stage")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "dense-node", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/qci the benchmark exits nonzero and prints no result")


if __name__ == "__main__":
    check_span_rules()
    check_bare_directory()
    for workload in NAMES:
        check_workload(workload)
    print("selftest passed")
