"""Command-line front end.

Subcommands: analyze-curve, analyze-qci, hilbert, sweep.  Exit codes are a
contract: 0 success (refusals and smooth verdicts included), 2 input parse
error, 3 guard violation, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from .core import QciInput, analyze_qci
from .curve import CurveInput, analyze_curve, family
from .errors import GuardError, InternalError, PolyParseError
from .linalg import PrimeField
from .poly import parse_poly
from .report import (
    curve_csv_row,
    curve_document,
    document_json,
    empty_csv_row,
    hilbert_document,
    qci_document,
    render_text,
    sweep_csv,
)

_FAMILY_MAP = {
    "lines": "lines_through_point",
    "smooth-plus-line": "smooth_plus_line",
}

# Status prefix of a sweep row whose analysis failed a certified invariant.
_INTERNAL_STATUS = "internal error: "

# Each sweep worker already has a core to itself, so its BLAS must not
# start threads of its own; spawned workers read these at numpy import.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"range must look like A..B, got {text!r}"
        )
    try:
        lo, hi = int(head), int(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range endpoints must be integers, got {text!r}"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range end is below its start in {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser, with_json: bool = True) -> None:
    sub.add_argument("--prime", type=int, default=32003, help="field characteristic")
    if with_json:
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--out", type=str, default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qci",
        description=(
            "Invariants of three-form ideals in the projective plane and of "
            "the singular schemes of plane curves"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("analyze-curve", help="analyze a reduced plane curve")
    p_curve.add_argument("--f", required=True, help="curve equation")
    _add_common(p_curve)

    p_qci = sub.add_parser("analyze-qci", help="analyze a triple of forms")
    p_qci.add_argument("--fa", required=True)
    p_qci.add_argument("--fb", required=True)
    p_qci.add_argument("--fc", required=True)
    _add_common(p_qci)

    p_hilb = sub.add_parser("hilbert", help="quotient Hilbert and syzygy tables")
    p_hilb.add_argument("--fa", required=True)
    p_hilb.add_argument("--fb", required=True)
    p_hilb.add_argument("--fc", required=True)
    _add_common(p_hilb)

    p_sweep = sub.add_parser("sweep", help="run a witness family over a degree range")
    p_sweep.add_argument(
        "--family", required=True, choices=sorted(_FAMILY_MAP), help="family name"
    )
    p_sweep.add_argument(
        "--d-range", required=True, type=_parse_range, help="degree range A..B"
    )
    p_sweep.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    _add_common(p_sweep, with_json=False)
    return parser


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        # an unwritable --out is bad input, refused like the others (exit 3)
        raise GuardError(f"cannot write {out}: {exc.strerror or exc}") from None


def _sweep_worker(task: tuple[str, int, int]) -> list[str]:
    family_name, d, prime = task
    try:
        field = PrimeField(prime)
        C = family(_FAMILY_MAP[family_name], field, d=d)
        rep = analyze_curve(C)
    except (GuardError, PolyParseError) as exc:
        return empty_csv_row(family_name, d, prime, f"error: {exc}")
    except InternalError as exc:
        return empty_csv_row(family_name, d, prime, f"{_INTERNAL_STATUS}{exc}")
    return curve_csv_row(family_name, d, prime, rep)


@contextmanager
def _single_threaded_blas_children():
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _run_sweep(args) -> int:
    lo, hi = args.d_range
    tasks = [(args.family, d, args.prime) for d in range(lo, hi + 1)]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        ctx = multiprocessing.get_context("spawn")
        with _single_threaded_blas_children(), ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx
        ) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]
    _emit(sweep_csv(rows), args.out)
    # Rows that hit an internal error are in the CSV; the exit code says so.
    failed = sum(row[-1].startswith(_INTERNAL_STATUS) for row in rows)
    if failed:
        print(f"internal error in {failed} sweep row(s); see the status column",
              file=sys.stderr)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a bad prime refuses the whole sweep; per-row guards are row statuses
        field = PrimeField(args.prime)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "analyze-curve":
            f = parse_poly(args.f, field)
            rep = analyze_curve(CurveInput(f))
            doc = curve_document(rep, args.f)
        else:
            texts = (args.fa, args.fb, args.fc)
            polys = [parse_poly(text, field) for text in texts]
            rep = analyze_qci(QciInput.of(*polys))
            build = qci_document if args.command == "analyze-qci" else hilbert_document
            doc = build(rep, *texts, tuple(f.degree for f in polys))
        payload = document_json(doc) if getattr(args, "json", False) else render_text(doc)
        _emit(payload, args.out)
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
