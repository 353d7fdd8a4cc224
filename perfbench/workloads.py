"""The benchmark's three workloads: seeded inputs, how each input runs, and
the known-answer checks on its output.

Inputs are generated here, from the seed alone, as the polynomial text a
user would type; the program under test only ever sees that text (or the
CLI argv built from it).  Every generated input has an answer that is known
without running qci, so every output can be checked.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

P = 32003
NAMES = ("dense-node", "small-mix", "cli-sweep")


@dataclass(frozen=True)
class Task:
    """One unit of work: a CLI argv, what it computes, and the answer expected.

    ``kind`` is ``curve``, ``qci``, ``hilbert`` or ``sweep``; ``texts`` are the
    input polynomials; ``rows`` is how many inputs the task completes (the
    CSV row count for a sweep, else 1).
    """

    kind: str
    texts: tuple[str, ...]
    expect: str
    argv: tuple[str, ...]
    rows: int = 1

    @property
    def jobs(self) -> int:
        return int(self.argv[self.argv.index("--jobs") + 1]) if self.kind == "sweep" else 1


# -- seeded polynomial generation (plain integers, independent of qci) ------


def _monomials(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def _random_form(rng, d, skip=()):
    return {m: rng.randrange(1, P) for m in _monomials(d) if m not in skip}


def _mul(f, g):
    out = {}
    for (a1, b1, c1), u in f.items():
        for (a2, b2, c2), v in g.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = (out.get(key, 0) + u * v) % P
    return out


def _power(f, e):
    out = {(0, 0, 0): 1}
    for _ in range(e):
        out = _mul(out, f)
    return out


def _text(f):
    terms = []
    for mono in sorted(f, reverse=True):
        c = f[mono] % P
        if c:
            factors = [str(c)] + [
                v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", mono) if e
            ]
            terms.append("*".join(factors))
    return " + ".join(terms)


def node_curve(rng, d):
    """Dense degree-d curve with an ordinary node at [0:0:1] (tau = 1).

    Dropping z^d, x*z^(d-1) and y*z^(d-1) makes f and its gradient vanish at
    [0:0:1]; a nonzero discriminant of the z^(d-2) quadratic makes the node
    ordinary.  Random coefficients make every other point smooth.
    """
    f = _random_form(rng, d, skip={(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)})
    while (f[(1, 1, d - 2)] ** 2 - 4 * f[(2, 0, d - 2)] * f[(0, 2, d - 2)]) % P == 0:
        f[(0, 2, d - 2)] = rng.randrange(1, P)
    return _text(f)


def smooth_curve(rng, d):
    """l1^d + l2^d + l3^d for independent random linear forms: a dense
    projective image of the Fermat curve, smooth whenever p does not divide d."""
    while True:
        rows = [[rng.randrange(P) for _ in range(3)] for _ in range(3)]
        (a, b, c), (e, f, g), (h, i, j) = rows
        if (a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)) % P:
            break
    out = {}
    for row in rows:
        lin = {(1, 0, 0): row[0], (0, 1, 0): row[1], (0, 0, 1): row[2]}
        for mono, v in _power(lin, d).items():
            out[mono] = (out.get(mono, 0) + v) % P
    return _text(out)


def nonreduced_curve(rng, d):
    return _text(_mul({(2, 0, 0): 1}, _random_form(rng, d - 2)))


def finite_triple(rng, degrees):
    """Three dense forms with no z^deg term, so all pass through [0:0:1]."""
    return tuple(_text(_random_form(rng, k, skip={(0, 0, k)})) for k in degrees)


def curve_task(text, expect):
    return Task("curve", (text,), expect, ("analyze-curve", "--f", text, "--json"))


def triple_task(kind, texts):
    command = "analyze-qci" if kind == "qci" else "hilbert"
    fa, fb, fc = texts
    return Task(kind, texts, "finite", (command, "--fa", fa, "--fb", fb, "--fc", fc, "--json"))


def sweep_task(lo, hi, jobs):
    argv = ("sweep", "--family", "lines", "--d-range", f"{lo}..{hi}", "--jobs", str(jobs))
    return Task("sweep", (), "lines", argv, rows=hi - lo + 1)


def build(name: str, seed: int, quick: bool = False) -> list[Task]:
    """The workload's task list for one seed; the same seed gives the same list."""
    rng = random.Random(f"qci-perfbench/{name}/{seed}")
    if name == "dense-node":
        # a few large dense maps, where elimination dominates
        degrees = (5, 6) if quick else (10, 11, 12, 13)
        return [curve_task(node_curve(rng, d), "node") for d in degrees]
    if name == "small-mix":
        # many tiny matrices, where per-call Python overhead dominates.  The
        # degrees cycle through fixed lists and only the coefficients and the
        # order are random, so the amount of work does not depend on the seed.
        counts = (3, 3, 2, 2) if quick else (120, 90, 45, 45)
        top = 5 if quick else 8
        triples = [(a, b, c) for a in range(1, 7) for b in range(a, 7) for c in range(b, 7)]
        curve_degrees = range(3, top + 1)

        def cycle(seq, n):
            return [seq[k % len(seq)] for k in range(n)]

        product_degrees = [(d, 1 + k % (d // 2)) for k, d in enumerate(cycle(curve_degrees, counts[1]))]
        tasks = [triple_task("qci", finite_triple(rng, t)) for t in cycle(triples, counts[0])]
        tasks += [curve_task(_text(_mul(_random_form(rng, e), _random_form(rng, d - e))), "finite")
                  for d, e in product_degrees]
        tasks += [curve_task(smooth_curve(rng, d), "smooth")
                  for d in cycle(curve_degrees, counts[2])]
        tasks += [curve_task(nonreduced_curve(rng, d), "nonreduced")
                  for d in cycle(curve_degrees, counts[3])]
        rng.shuffle(tasks)
        return tasks
    if name == "cli-sweep":
        # the user's path: fresh processes, serial and pooled sweeps, --json calls
        hi = 6 if quick else 13
        tasks = [sweep_task(4, hi, 1), sweep_task(4, hi, 2)]
        for _ in range(1 if quick else 2):
            tasks += [
                curve_task(node_curve(rng, 5 if quick else 8), "node"),
                triple_task("qci", finite_triple(rng, (2, 3, 3) if quick else (4, 5, 6))),
                triple_task("hilbert", finite_triple(rng, (2, 2, 3) if quick else (4, 5, 5))),
            ]
        return tasks
    raise ValueError(f"unknown workload {name!r}")


# -- the in-process path ------------------------------------------------------


def run_inprocess(task: Task) -> str:
    """The library calls qci.cli.main makes for this argv, without argparse.

    Functions are looked up on their modules at call time, so a tracer that
    replaces module attributes sees every call.
    """
    from qci import core, curve, linalg, poly, report

    field = linalg.PrimeField(P)
    if task.kind == "curve":
        (text,) = task.texts
        rep = curve.analyze_curve(curve.CurveInput(poly.parse_poly(text, field)))
        return report.document_json(report.curve_document(rep, text))
    polys = [poly.parse_poly(t, field) for t in task.texts]
    degrees = tuple(f.degree for f in polys)
    rep = core.analyze_qci(core.QciInput.of(*polys))
    make = report.qci_document if task.kind == "qci" else report.hilbert_document
    return report.document_json(make(rep, *task.texts, degrees))


# -- known-answer checks ----------------------------------------------------


def _flags_ok(results: dict) -> bool:
    """Every certified-bound flag of a finite report is true (or not applicable)."""
    q = results
    if "tau_bounds" in results:
        tb = results["tau_bounds"]
        if not (tb["lower_ok"] is True and tb["upper_ok"] is True):
            return False
        if tb["ii_applicable"] and tb["ii_ok"] is not True:
            return False
        q = results["qci"]
    bi, bii = q["bounds_i"], q["bounds_ii"]
    if not (bi["lower_ok"] is True and bi["upper_ok"] is True):
        return False
    return bii["ok"] is True or not bii["applicable"]


def _check_sweep(task: Task, payload: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(payload)))
    lo, hi = (int(x) for x in task.argv[task.argv.index("--d-range") + 1].split(".."))
    if [int(r["d"]) for r in rows] != list(range(lo, hi + 1)):
        return f"sweep rows cover the wrong degrees: {[r['d'] for r in rows]}"
    for r in rows:
        d = int(r["d"])
        want = {"tau": str((d - 1) ** 2), "r": "0", "class": "lines-through-point",
                "dpw_i": "pass", "status": "ok"}
        got = {k: r[k] for k in want}
        if got != want or r["dpw_ii"] not in ("pass", "na"):
            return f"lines row d={d}: {dict(r)}"
    return None


def check(task: Task, payload: str) -> str | None:
    """Return None if the output carries the known answer, else what is wrong."""
    if task.kind == "sweep":
        return _check_sweep(task, payload)
    res = json.loads(payload)["results"]
    if task.kind == "curve":
        qclass = res["qci"]["dimension_class"]
        if task.expect == "smooth":
            ok = res["curve_class"] == "smooth" and qclass == "empty"
        elif task.expect == "nonreduced":
            ok = res["refusal"] is not None and qclass == "dim_ge_1"
        else:
            ok = res["refusal"] is None and qclass == "dim0" and _flags_ok(res)
            if task.expect == "node":
                ok = ok and res["tau"] == 1
    elif task.kind == "qci":
        ok = res["refusal"] is None and res["dimension_class"] == "dim0" and _flags_ok(res)
    else:
        ok = res["refusal"] is None and res["dimension_class"] == "dim0" and res["t"] >= 1
    if ok:
        return None
    brief = {k: res.get(k) for k in ("curve_class", "dimension_class", "refusal", "tau", "t")}
    return f"{task.kind} expected {task.expect}, got {brief}"
