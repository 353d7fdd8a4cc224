"""Report documents: canonical JSON, text rendering, CSV sweep rows.

Documents are plain dicts with a fixed key order so serialized output is
byte-stable across runs.  Text renderers read values back out of the
document rather than out of live report objects, which forces the two
output modes to agree on every number.
"""

from __future__ import annotations

import csv
import io
import json

from .core import QciReport
from .curve import CurveReport

SCHEMA_VERSION = "1"

CSV_COLUMNS = (
    "family",
    "d",
    "prime",
    "tau",
    "r",
    "c2",
    "class",
    "dpw_i",
    "dpw_ii",
    "status",
)

_BOUND_FLAG = {True: "pass", False: "fail", None: "na"}


def _diagnostics(rep: QciReport) -> dict:
    return {
        "k_star": int(rep.hilbert.k_star),
        "k_max": int(rep.hilbert.k_max),
        # schema 1 keeps the key; the Hilbert window is fixed
        "window_extensions": 0,
    }


def qci_document(
    rep: QciReport, fa: str, fb: str, fc: str, degrees: tuple[int, int, int]
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze-qci",
        "prime": int(rep.prime),
        "input": {
            "fa": fa,
            "fb": fb,
            "fc": fc,
            "degrees": [int(x) for x in degrees],
            "degrees_sorted": [int(x) for x in rep.degrees],
        },
        "results": rep.to_dict(),
        "diagnostics": _diagnostics(rep),
    }


def curve_document(rep: CurveReport, f: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze-curve",
        "prime": int(rep.prime),
        "input": {"f": f, "d": int(rep.d)},
        "results": rep.to_dict(),
        "diagnostics": _diagnostics(rep.qci),
    }


def hilbert_document(
    rep: QciReport, fa: str, fb: str, fc: str, degrees: tuple[int, int, int]
) -> dict:
    full = rep.to_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "hilbert",
        "prime": int(rep.prime),
        "input": {
            "fa": fa,
            "fb": fb,
            "fc": fc,
            "degrees": [int(x) for x in degrees],
            "degrees_sorted": [int(x) for x in rep.degrees],
        },
        "results": {
            "dimension_class": full["dimension_class"],
            "refusal": full["refusal"],
            "t": full["t"],
            "hilbert": full["hilbert"],
            "syzygies": full["syzygies"],
        },
        "diagnostics": _diagnostics(rep),
    }


def document_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _hilbert_lines(results: dict, out: list[str]) -> None:
    table = results["hilbert"]
    out.append(
        f"hilbert values (k = 0 .. {table['k_max']}): "
        + ", ".join(str(v) for v in table["values"])
    )
    out.append(
        f"  plateau: {_fmt(table['plateau'])}   anchor degree: {table['k_star']}"
        f"   window extensions: {table['extensions']}"
    )
    syz = results.get("syzygies")
    if syz is not None:
        lo, hi = syz["window"]
        dims = ", ".join(str(v) for _, v in syz["dims"])
        out.append(f"syzygy dims (k = {lo} .. {hi}): {dims}")
        out.append(f"  minimal syzygy degree r: {syz['r']}")


def _qci_result_lines(results: dict, out: list[str]) -> None:
    out.append(f"dimension class: {results['dimension_class']}")
    if results["refusal"] is not None:
        out.append(f"refused: {results['refusal']}")
        _hilbert_lines(results, out)
        return
    out.append(f"t: {results['t']}")
    out.append(f"r: {results['r']}")
    out.append(f"gamma: {results['gamma']}")
    out.append(f"c2 at r: {results['c2_at_r']}")
    out.append(f"m0: {results['m0']}   h1 at m0: {results['h1_at_m0']}")
    out.append(f"splits: {_fmt(results['splits'])}")
    bi = results["bounds_i"]
    out.append(
        f"bounds i: {bi['lower']} <= t <= {bi['upper']} "
        f"[lower {_BOUND_FLAG[bi['lower_ok']]}, upper {_BOUND_FLAG[bi['upper_ok']]}]"
    )
    bii = results["bounds_ii"]
    if bii["applicable"]:
        out.append(f"bounds ii: t <= {bii['bound']} [{_BOUND_FLAG[bii['ok']]}]")
    else:
        out.append("bounds ii: not applicable")
    out.append(f"generator degrees: {_fmt(results['generator_degrees'])}")
    cls = results["classification"]
    line = f"classification: {cls['tag']}"
    if cls["case"] is not None:
        line += f" (case {cls['case']})"
    out.append(line)
    if cls["e_type"] is not None:
        out.append(f"  split type: {_fmt(cls['e_type'])}")
    if cls["resolution"] is not None:
        out.append(
            f"  resolution: u={_fmt(cls['resolution']['u'])}, "
            f"v={_fmt(cls['resolution']['v'])}"
        )
        out.append(f"  resolution verified: {_fmt(results['resolution_verified'])}")
    _hilbert_lines(results, out)


def render_text(doc: dict) -> str:
    """Human-readable view of a document; numbers sourced from the document."""
    out = [f"command: {doc['command']}", f"prime: {doc['prime']}"]
    inp = doc["input"]
    if "f" in inp:
        out.append(f"input: f = {inp['f']}   (degree {inp['d']})")
    else:
        out.append(f"input: fa = {inp['fa']}, fb = {inp['fb']}, fc = {inp['fc']}")
        out.append(
            f"degrees: {_fmt(inp['degrees'])}   sorted: {_fmt(inp['degrees_sorted'])}"
        )
    results = doc["results"]
    if doc["command"] == "analyze-curve":
        _curve_result_lines(results, out)
    elif doc["command"] == "hilbert":
        out.append(f"dimension class: {results['dimension_class']}")
        if results["refusal"] is not None:
            out.append(f"refused: {results['refusal']}")
        if results["t"] is not None:
            out.append(f"t: {results['t']}")
        _hilbert_lines(results, out)
    else:
        _qci_result_lines(results, out)
    return "\n".join(out) + "\n"


def _curve_result_lines(results: dict, out: list[str]) -> None:
    if results["refusal"] is not None:
        out.append(f"refused: {results['refusal']}")
        _hilbert_lines(results["qci"], out)
        return
    out.append(f"curve class: {results['curve_class']}")
    if results["curve_class"] == "smooth":
        out.append("tau: 0 (no singular points)")
        return
    out.append(f"tau: {results['tau']}")
    out.append(f"r: {results['r']}")
    if results["exponents"] is not None:
        out.append(f"exponents: {_fmt(results['exponents'])}")
    if results["plus_one_case"] is not None:
        out.append(f"high-tau signature case: {results['plus_one_case']}")
    tb = results["tau_bounds"]
    out.append(
        f"tau bounds: {tb['lower']} <= tau <= {tb['upper']} "
        f"[lower {_BOUND_FLAG[tb['lower_ok']]}, upper {_BOUND_FLAG[tb['upper_ok']]}]"
    )
    if tb["ii_applicable"]:
        out.append(f"tau bound ii: tau <= {tb['ii_bound']} [{_BOUND_FLAG[tb['ii_ok']]}]")
    else:
        out.append("tau bound ii: not applicable")
    _qci_result_lines(results["qci"], out)


def sweep_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def curve_csv_row(family: str, d: int, prime: int, rep: CurveReport) -> list[str]:
    """One sweep row; refusals land in the status column, not in an exception."""
    if rep.refusal is not None:
        return [family, str(d), str(prime), "", "", "", "", "", "", f"refused: {rep.refusal}"]
    if rep.curve_class == "smooth":
        return [family, str(d), str(prime), "0", "", "", "smooth", "na", "na", "ok"]
    tb = rep.tau_bounds
    dpw_i = "pass" if (tb.lower_ok and tb.upper_ok) else "fail"
    dpw_ii = _BOUND_FLAG[tb.ii_ok] if tb.ii_applicable else "na"
    return [
        family,
        str(d),
        str(prime),
        str(rep.tau),
        str(rep.r),
        str(rep.qci.c2_at_r),
        rep.curve_class,
        dpw_i,
        dpw_ii,
        "ok",
    ]


_BOUNDS_I_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "lower": {"type": "integer"},
        "upper": {"type": "integer"},
        "lower_ok": {"type": "boolean"},
        "upper_ok": {"type": "boolean"},
    },
    "required": ["lower", "upper", "lower_ok", "upper_ok"],
}

_HILBERT_SCHEMA = {
    "type": "object",
    "properties": {
        "k_star": {"type": "integer"},
        "k_max": {"type": "integer"},
        "extensions": {"const": 0},
        "plateau": {"type": ["integer", "null"]},
        "values": {"type": "array", "items": {"type": "integer"}},
    },
    "required": ["k_star", "k_max", "extensions", "plateau", "values"],
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["analyze-qci", "analyze-curve", "hilbert"]},
        "prime": {"type": "integer", "minimum": 2},
        "input": {"type": "object"},
        "results": {"$ref": "#/definitions/results"},
        "diagnostics": {
            "type": "object",
            "properties": {
                "k_star": {"type": "integer"},
                "k_max": {"type": "integer"},
                "window_extensions": {"const": 0},
            },
            "required": ["k_star", "k_max", "window_extensions"],
        },
    },
    "required": [
        "schema_version",
        "command",
        "prime",
        "input",
        "results",
        "diagnostics",
    ],
    "definitions": {
        # a curve's results hold the triple's under "qci"
        "results": {
            "type": "object",
            "properties": {
                "bounds_i": _BOUNDS_I_SCHEMA,
                "hilbert": _HILBERT_SCHEMA,
                "qci": {"$ref": "#/definitions/results"},
            },
        },
    },
}
