"""Command line interface: exit codes, JSON shape, CSV sweeps."""

import contextlib
import csv
import io
import json
import os
import warnings

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qci import InternalError, PolyParseError, PrimeField, cli, parse_poly
from qci.cli import build_parser, main
from qci.report import CSV_COLUMNS, REPORT_SCHEMA, SCHEMA_VERSION


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv + ["--json"])
    assert rc == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(capsys):
    rc, out, _ = run_cli(capsys, ["analyze-curve", "--f", "x*y*z"])
    assert rc == 0 and "tau: 3" in out


def test_exit_two_on_parse_error(capsys):
    rc, _, err = run_cli(capsys, ["analyze-curve", "--f", "x^2 + y"])
    assert rc == 2 and err.startswith("error:")


def test_exit_three_on_guard_error(capsys):
    rc, _, err = run_cli(capsys, ["analyze-curve", "--f", "x*y*z", "--prime", "15"])
    assert rc == 3 and "not prime" in err


def test_sweep_with_bad_prime_exits_three(capsys):
    rc, out, err = run_cli(
        capsys, ["sweep", "--family", "lines", "--d-range", "3..4", "--prime", "4"]
    )
    assert rc == 3 and out == ""
    assert err.splitlines() == ["error: 4 is not prime (divisible by 2)"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-curve", "--f", "x*y*z"],
        ["sweep", "--family", "lines", "--d-range", "3..4"],
    ],
)
def test_unwritable_out_exits_three(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    rc, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert rc == 3 and out == "" and not path.exists()
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_refusals_exit_zero(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["analyze-qci", "--fa", "x*z", "--fb", "y*z", "--fc", "x*z + y*z"],
    )
    assert rc == 0 and "refus" in out


def test_bad_range_syntax_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "lines", "--d-range", "3-5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bad",
    [["--d-range", "8..3"], ["--jobs", "0"], ["--jobs", "-2"], ["--jobs", "two"]],
    ids=["reversed-range", "jobs-zero", "jobs-negative", "jobs-text"],
)
def test_bad_sweep_arguments_exit_two(capsys, bad):
    # a reversed range or a nonpositive worker count is a usage error, not
    # a header-only CSV or a silently serial run
    argv = ["sweep", "--family", "lines", "--d-range", "3..4"] + bad
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--family", "cubics", "--d-range", "3..5"])


# Polynomial text for the fuzz test: mostly near the grammar, with total
# degree at most 6 so that no draw builds a large map.
_MAX_DEGREE = 6


@st.composite
def _term(draw, degree):
    exps = [0, 0, 0]
    for _ in range(degree):
        exps[draw(st.integers(0, 2))] += 1
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exps) if e]
    coeff = draw(st.none() | st.integers(0, 10**30))
    if coeff is not None or not factors:
        factors.insert(0, str(1 if coeff is None else coeff))
    return draw(st.sampled_from(["*", "", " * "])).join(factors)


@st.composite
def _poly_text(draw):
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        degrees = [draw(st.integers(0, _MAX_DEGREE))] * count
    else:  # mixed degrees, for the homogeneity check
        degrees = [draw(st.integers(0, _MAX_DEGREE)) for _ in range(count)]
    text = draw(st.sampled_from(["", "-", " "])) + draw(_term(degrees[0]))
    for degree in degrees[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + draw(_term(degree))
    return text


def _degree_at_most(text, bound):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse_poly(text, PrimeField(32003)).degree <= bound
        except PolyParseError:
            return True


_junk = st.text(max_size=16) | st.text(alphabet="xyz0123456789^*+- \t", max_size=16)
_poly_arg = (_poly_text() | _junk).filter(lambda t: _degree_at_most(t, _MAX_DEGREE))


@settings(max_examples=150, deadline=None)
@example(command="analyze-curve", texts=("x^\u00b2", "", ""), as_json=False)
@example(command="hilbert", texts=("\u0663x", "y", "z"), as_json=True)
@example(command="analyze-qci", texts=("x", "y", "0"), as_json=False)
@given(
    command=st.sampled_from(["analyze-curve", "analyze-qci", "hilbert"]),
    texts=st.tuples(_poly_arg, _poly_arg, _poly_arg),
    as_json=st.booleans(),
)
def test_cli_fuzz_exit_codes(command, texts, as_json):
    # --name=value keeps text that starts with '-' out of option parsing
    if command == "analyze-curve":
        argv = [command, f"--f={texts[0]}"]
    else:
        argv = [command] + [f"--{n}={t}" for n, t in zip(("fa", "fb", "fc"), texts)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv + ["--json"] * as_json)
    assert rc in (0, 2, 3), (rc, err.getvalue())
    if rc:
        assert err.getvalue().startswith("error:")


# ---------------------------------------------------------------------------
# JSON documents


def test_curve_json_document(capsys):
    doc = run_json(capsys, ["analyze-curve", "--f", "x*y*z"])
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "analyze-curve"
    assert doc["prime"] == 32003
    res = doc["results"]
    assert res["tau"] == 3 and res["r"] == 1
    assert res["curve_class"] == "free" and res["exponents"] == [1, 1]
    assert res["qci"]["t"] == 3
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_qci_json_document(capsys):
    doc = run_json(
        capsys, ["analyze-qci", "--fa", "x", "--fb", "y^2", "--fc", "y*z"]
    )
    res = doc["results"]
    assert res["t"] == 1 and res["r"] == 1 and res["c2_at_r"] == 1
    assert res["splits"] is False
    assert res["classification"]["tag"] == "c2-one-resolution"
    assert res["classification"]["resolution"] == {"u": [2, 2, 2], "v": [1, 1, 2, 2]}
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_hilbert_json_document(capsys):
    doc = run_json(
        capsys, ["hilbert", "--fa", "x", "--fb", "y^2", "--fc", "y*z"]
    )
    res = doc["results"]
    assert res["hilbert"]["values"] == [1, 2, 1, 1, 1, 1, 1]
    assert res["hilbert"]["plateau"] == 1
    assert res["syzygies"]["r"] == 1
    jsonschema.validate(doc, REPORT_SCHEMA)


_DEFECTS = {
    "extensions": lambda res: res["hilbert"].update(extensions=7),
    "values": lambda res: res["hilbert"].pop("values"),
    "bounds_i": lambda res: res.update(bounds_i="junk"),
}


@pytest.mark.parametrize(
    "argv",
    [["analyze-qci", "--fa", "x", "--fb", "y^2", "--fc", "y*z"],
     ["analyze-curve", "--f", "x*y*z"]],
    ids=["qci", "curve"],
)
@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_schema_checks_the_results(argv, defect, capsys):
    # a curve's results hold the triple's under "qci"
    doc = run_json(capsys, argv)
    _DEFECTS[defect](doc["results"].get("qci", doc["results"]))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)


def test_alternate_prime_flag(capsys):
    doc = run_json(capsys, ["analyze-curve", "--f", "x*y*z", "--prime", "31013"])
    assert doc["prime"] == 31013
    assert doc["results"]["tau"] == 3


def test_text_and_json_agree(capsys):
    doc = run_json(capsys, ["analyze-curve", "--f", "x^3 - y^2*z"])
    rc, text, _ = run_cli(capsys, ["analyze-curve", "--f", "x^3 - y^2*z"])
    assert rc == 0
    assert f"tau: {doc['results']['tau']}" in text
    assert f"curve class: {doc['results']['curve_class']}" in text


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, ["analyze-curve", "--f", "x*y*z", "--json", "--out", str(path)]
    )
    assert rc == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["tau"] == 3


def test_window_extensions_flag_removed(capsys):
    # the Hilbert window is fixed; schema 1 still carries the key as 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze-curve", "--f", "x*y*z", "--max-window-extensions", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    doc = run_json(capsys, ["analyze-curve", "--f", "x*y*z"])
    assert doc["results"]["tau"] == 3
    assert doc["diagnostics"]["window_extensions"] == 0


# ---------------------------------------------------------------------------
# sweeps


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_lines_sweep_rows(capsys):
    rc, out, _ = run_cli(capsys, ["sweep", "--family", "lines", "--d-range", "3..5"])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    taus = [int(row[3]) for row in rows[1:]]
    assert taus == [4, 9, 16]
    assert all(row[9] == "ok" and row[7] == "pass" for row in rows[1:])


def test_sweep_parallel_matches_serial(capsys):
    rc, serial, _ = run_cli(
        capsys, ["sweep", "--family", "smooth-plus-line", "--d-range", "4..6"]
    )
    assert rc == 0
    rc, parallel, _ = run_cli(
        capsys,
        ["sweep", "--family", "smooth-plus-line", "--d-range", "4..6", "--jobs", "2"],
    )
    assert rc == 0
    assert serial == parallel


def test_single_degree_sweep_range(capsys):
    rc, out, _ = run_cli(capsys, ["sweep", "--family", "lines", "--d-range", "4..4"])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == list(CSV_COLUMNS) and [row[1] for row in rows[1:]] == ["4"]


def test_sweep_out_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    rc, out, _ = run_cli(
        capsys,
        ["sweep", "--family", "lines", "--d-range", "3..4", "--out", str(path)],
    )
    assert rc == 0 and out == ""
    rows = read_csv(path.read_text())
    assert len(rows) == 3


def test_sweep_reports_internal_error_per_row(capsys, monkeypatch):
    real = cli.analyze_curve

    def fails_at_degree_4(C):
        if C.f.degree == 4:
            raise InternalError("injected failure")
        return real(C)

    monkeypatch.setattr(cli, "analyze_curve", fails_at_degree_4)
    rc, out, err = run_cli(capsys, ["sweep", "--family", "lines", "--d-range", "3..5"])
    assert rc == 4 and "internal error in 1 sweep row" in err
    rows = read_csv(out)
    assert [row[9] for row in rows[1:]] == ["ok", "internal error: injected failure", "ok"]
    assert rows[2][3:9] == [""] * 6
    assert [int(row[3]) for row in (rows[1], rows[3])] == [4, 16]


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2)])
def test_sweep_pool_size_and_blas_threads(capsys, monkeypatch, cpus, workers):
    seen = {}

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            seen["workers"] = max_workers
            seen["start"] = mp_context.get_start_method()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            seen["blas"] = os.environ.get("OPENBLAS_NUM_THREADS")
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    argv = ["sweep", "--family", "lines", "--d-range", "3..5", "--jobs", "16"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and len(read_csv(out)) == 4
    assert seen == {"workers": workers, "start": "spawn", "blas": "1"}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"


# ---------------------------------------------------------------------------
# parser shape


def test_parser_rejects_json_on_sweep():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["sweep", "--family", "lines", "--d-range", "3..4", "--json"]
        )


def test_parser_defaults():
    args = build_parser().parse_args(["analyze-curve", "--f", "x*y*z"])
    assert args.prime == 32003
