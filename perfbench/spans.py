"""In-memory span recorder that wraps qci's public functions from outside.

Nothing in the package is modified on disk: ``Tracer.install`` replaces
module attributes with timing wrappers and ``uninstall`` puts the originals
back.  Each span records its name, start, end and parent; linalg spans also
record the matrix shape, the rank found and whether the same map (in either
orientation) was already eliminated for the current input.

Linalg time is attributed to a stage by the name of the calling function.
A caller missing from ``STAGES`` lands in ``linalg.unattributed``, which the
benchmark reports, so renaming an engine method cannot silently hide time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

STAGES = {
    "rank_at": "hilbert_rank",
    "kernel_at": "syzygy_kernel",
    "left_null": "left_null",
    "_generator_degrees": "lift_rank",
    "saturation_dim": "saturation_rank",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "shape", "rank", "repeat")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.shape = None
        self.rank = None
        self.repeat = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._eliminated: list[np.ndarray] = []
        self.unknown_callers: set[str] = set()

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        s = Span(name, perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = perf_counter()
        self._stack.pop()

    def request(self, fn, *args):
        """Run one input as a root ``task`` span; repeats are judged per input."""
        self._eliminated = []
        s = self._open("task")
        try:
            return fn(*args)
        finally:
            self._close(s)

    def _is_repeat(self, A: np.ndarray) -> bool:
        for B in self._eliminated:
            if (B.shape == A.shape and np.array_equal(A, B)) or (
                B.shape == A.shape[::-1] and np.array_equal(A, B.T)
            ):
                return True
        self._eliminated.append(A)
        return False

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return wrapper

    def _linalg(self, fn):
        @functools.wraps(fn)
        def wrapper(M, field):
            caller = sys._getframe(1).f_code.co_name
            if caller not in STAGES:
                self.unknown_callers.add(caller)
            s = self._open("linalg." + STAGES.get(caller, "unattributed"))
            try:
                out = fn(M, field)
            finally:
                self._close(s)
            A = np.asarray(M)
            s.shape = A.shape
            # rank() returns the rank; kernel_basis() a basis of n - rank rows
            s.rank = out if isinstance(out, int) else A.shape[1] - out.shape[0]
            s.repeat = self._is_repeat(A)
            return out

        return wrapper

    def _patch(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self) -> None:
        import qci
        from qci import cli, core, curve, linalg, poly, report

        everywhere = (qci, cli, core, curve, linalg, poly, report)
        self._patch((core,), linalg.rank, self._linalg(linalg.rank))
        self._patch((core,), linalg.kernel_basis, self._linalg(linalg.kernel_basis))
        self._patch((core,), poly.mult_matrix, self._timed(poly.mult_matrix, "poly.mult_matrix"))
        self._patch(everywhere, poly.parse_poly, self._timed(poly.parse_poly, "poly.parse"))
        self._patch(everywhere, core.analyze_qci, self._timed(core.analyze_qci, "core.analyze_qci"))
        self._patch(everywhere, curve.analyze_curve, self._timed(curve.analyze_curve, "curve.analyze_curve"))
        for name in ("qci_document", "curve_document", "hilbert_document",
                     "document_json", "curve_csv_row", "sweep_csv"):
            fn = getattr(report, name)
            self._patch(everywhere, fn, self._timed(fn, "report." + name))
        self._patch((cli,), cli._sweep_worker, self._timed(cli._sweep_worker, "cli.sweep_row"))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()


def _child_seconds(spans: list[Span]) -> dict[int, float]:
    """Seconds covered by each span's direct children, keyed by ``id(span)``."""
    out: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            out[id(s.parent)] = out.get(id(s.parent), 0.0) + s.seconds
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans whose children lie outside them or sum to more than they do."""
    errors = [
        f"span {s.name} lies outside its parent {s.parent.name}"
        for s in spans
        if s.parent is not None and (s.start < s.parent.start or s.end > s.parent.end)
    ]
    child_sum = _child_seconds(spans)
    errors += [
        f"children of {s.name} sum to more than the span"
        for s in spans
        if child_sum.get(id(s), 0.0) > s.seconds + 1e-9  # float summation slack
    ]
    return errors


def summarize(spans: list[Span]) -> dict:
    """Per-layer totals for one pass: seconds per span name, self seconds,
    and the deterministic linalg counts."""
    child_sum = _child_seconds(spans)
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        self_seconds[s.name] = self_seconds.get(s.name, 0.0) + s.seconds - child_sum.get(id(s), 0.0)
        calls[s.name] = calls.get(s.name, 0) + 1
    elim = [s for s in spans if s.shape is not None]
    cells = [m * n for m, n in (s.shape for s in elim)]
    counts = {
        "linalg.calls": len(elim),
        "linalg.hilbert_rank_calls": calls.get("linalg.hilbert_rank", 0),
        "linalg.cells": sum(cells),
        "linalg.ops_est": sum(s.rank * c for s, c in zip(elim, cells)),
        "linalg.max_cells": max(cells, default=0),
        "linalg.repeats": sum(s.repeat for s in elim),
        "poly.mult_matrix_calls": calls.get("poly.mult_matrix", 0),
        "tasks": calls.get("task", 0),
    }
    return {"seconds": seconds, "self": self_seconds, "counts": counts}
