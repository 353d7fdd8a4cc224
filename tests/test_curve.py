"""Plane curve layer: total Tjurina number, bounds, classification."""

import random

import pytest

from qci import (
    CurveInput,
    GuardError,
    PrimeField,
    analyze_curve,
    analyze_qci,
    QciInput,
    certify_tau_bounds,
    classify_curve,
    family,
    free_lower_bound_check,
    parse_poly,
    random_homog,
    variables,
)


def lines_product(field, d, shift=0):
    """z * prod_{i=1..d-1} (x - (i+shift) y): d lines, d-1 through one point."""
    x, y, z = variables(field)
    f = z
    for i in range(1, d):
        f = f * (x - (i + shift) * y)
    return f


# ---------------------------------------------------------------------------
# input guards


def test_curve_input_rejects_zero(field):
    from qci import HomogPoly

    with pytest.raises(GuardError):
        CurveInput(HomogPoly.zero(3, field))


def test_curve_input_rejects_linear(field):
    with pytest.raises(GuardError):
        CurveInput(parse_poly("x", field))


def test_curve_input_rejects_small_prime():
    F5 = PrimeField(5)
    with pytest.raises(GuardError):
        CurveInput(parse_poly("x^5 + y^5 + z^5", F5))


@pytest.mark.parametrize("d, p", [(2, 3), (3, 5), (4, 5), (4, 7), (5, 7), (5, 11), (7, 17)])
def test_curve_input_refuses_primes_up_to_the_partials_bound(d, p):
    # p > d, yet the partials of degree d-1 sum to 3(d-1) >= p
    with pytest.raises(GuardError) as info:
        CurveInput(parse_poly(f"x^{d} + y^{d} + z^{d}", PrimeField(p)))
    message = str(info.value)
    assert f"degree d = {d}" in message and f"3(d-1) = {3 * (d - 1)}" in message
    assert "a+b+c" not in message


@pytest.mark.parametrize("d, p", [(2, 5), (3, 7), (4, 11), (5, 13), (7, 19)])
def test_curve_input_accepts_primes_above_the_partials_bound(d, p):
    rep = analyze_curve(CurveInput(parse_poly(f"x^{d} + y^{d} + z^{d}", PrimeField(p))))
    assert rep.curve_class == "smooth"


def test_small_prime_refusals_name_the_curve_degree(capsys):
    from qci.cli import main

    rc = main(["analyze-curve", "--f", "x^4+y^4+z^4", "--prime", "7"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "degree d = 4" in err and "a+b+c" not in err
    rc = main(["sweep", "--family", "lines", "--d-range", "3..5", "--prime", "7"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rc == 0 and len(rows) == 3
    assert "error" not in rows[0]
    for d, row in zip((4, 5), rows[1:]):
        assert f"degree d = {d}" in row and "a+b+c" not in row


@pytest.mark.parametrize(
    "family_name, lo, hi, p", [("lines", 2, 4, 3), ("smooth-plus-line", 3, 7, 5)]
)
def test_small_prime_sweep_rows_name_the_curve_degree(family_name, lo, hi, p, capsys):
    # one guard for every family row: the curve's p > 3(d-1)
    from qci.cli import main

    rc = main(["sweep", "--family", family_name, "--d-range", f"{lo}..{hi}",
               "--prime", str(p)])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rc == 0 and len(rows) == hi - lo + 1
    for d, row in zip(range(lo, hi + 1), rows):
        assert f"degree d = {d}; need p > 3(d-1) = {3 * (d - 1)}" in row, row


# ---------------------------------------------------------------------------
# frozen examples


def test_smooth_conic(field):
    rep = analyze_curve(CurveInput(parse_poly("x^2 + y*z", field)))
    assert rep.curve_class == "smooth"
    assert rep.tau == 0 and rep.r is None
    assert rep.tau_bounds is None and rep.exponents is None
    assert rep.qci.dimension_class == "empty"
    assert rep.refusal is None


def test_triangle_cubic_is_free(field):
    rep = analyze_curve(CurveInput(parse_poly("x*y*z", field)))
    assert (rep.d, rep.tau, rep.r) == (3, 3, 1)
    assert rep.curve_class == "free" and rep.exponents == (1, 1)
    assert rep.qci.splits is True and rep.qci.c2_at_r == 0
    assert free_lower_bound_check(rep.d, rep.tau)


def test_cuspidal_cubic_is_nearly_free(field):
    rep = analyze_curve(CurveInput(parse_poly("x^3 - y^2*z", field)))
    assert (rep.d, rep.tau, rep.r) == (3, 2, 1)
    assert rep.curve_class == "nearly-free" and rep.exponents is None
    assert rep.qci.splits is False and rep.qci.c2_at_r == 1
    assert rep.tau_bounds.lower_ok and rep.tau_bounds.upper_ok


def test_concurrent_lines(field):
    rep = analyze_curve(CurveInput(parse_poly("x^2*y + x*y^2", field)))
    assert (rep.d, rep.tau, rep.r) == (3, 4, 0)
    assert rep.curve_class == "lines-through-point"
    assert rep.tau == (rep.d - 1) ** 2
    assert rep.qci.splits is True


def test_near_pencil_is_free(field):
    rep = analyze_curve(CurveInput(lines_product(field, 4)))
    assert (rep.d, rep.tau, rep.r) == (4, 7, 1)
    assert rep.curve_class == "free" and rep.exponents == (1, 2)
    assert rep.plus_one_case is None


def test_near_pencil_degree_eight_screening(field):
    rep = analyze_curve(CurveInput(lines_product(field, 8)))
    assert (rep.d, rep.tau, rep.r) == (8, 43, 1)
    assert rep.curve_class == "free" and rep.exponents == (1, 6)
    assert rep.tau == rep.d**2 - 3 * rep.d + 3
    assert rep.plus_one_case == 1


def test_non_reduced_refusal(field):
    rep = analyze_curve(CurveInput(parse_poly("x^2*y^2", field)))
    assert rep.refusal is not None
    assert rep.tau is None and rep.r is None and rep.curve_class is None
    assert rep.qci.dimension_class == "dim_ge_1"


# ---------------------------------------------------------------------------
# bound certification


def test_certify_tau_bounds_cubic_cases(field):
    b = certify_tau_bounds(3, 1, 3)
    assert (b.lower, b.upper, b.lower_ok, b.upper_ok) == (2, 3, True, True)
    assert not b.ii_applicable


def test_certify_tau_bounds_sharpened_cut(field):
    b = certify_tau_bounds(4, 2, 3)
    assert (b.lower, b.upper) == (3, 7)
    assert b.ii_applicable and b.ii_bound == 6 and b.ii_ok


def test_certify_tau_bounds_detects_violation(field):
    # no reduced quintic has r=4 and tau=7; the sharpened bound rejects it
    b = certify_tau_bounds(5, 4, 7)
    assert (b.lower, b.upper) == (0, 16)
    assert b.ii_applicable and b.ii_bound == 6 and not b.ii_ok


def test_certify_tau_bounds_guards():
    with pytest.raises(GuardError):
        certify_tau_bounds(1, 0, 0)
    with pytest.raises(GuardError):
        certify_tau_bounds(4, 4, 1)
    with pytest.raises(GuardError):
        certify_tau_bounds(4, -1, 1)


@pytest.mark.parametrize(
    "spec",
    ["x*y*z", "y^2*z - x^3 - x^2*z", "x^5 + y^5 + x^2*y^2*z", "x^4*z - y^4*z + x^5"],
)
def test_curve_tau_bounds_are_the_triple_bounds(spec, field):
    # the tau bounds are the triple's bounds at a = b = c = d-1
    rep = analyze_curve(CurveInput(parse_poly(spec, field)))
    tb, bi, bii = rep.tau_bounds, rep.qci.bounds_i, rep.qci.bounds_ii
    assert tb == certify_tau_bounds(rep.d, rep.r, rep.tau)
    assert (tb.lower, tb.upper, tb.lower_ok, tb.upper_ok) == (
        bi.lower, bi.upper, bi.lower_ok, bi.upper_ok
    )
    assert (tb.ii_applicable, tb.ii_bound, tb.ii_ok) == (
        bii.applicable, bii.bound, bii.ok
    )


def test_free_lower_bound_check_values():
    assert free_lower_bound_check(3, 3)
    assert free_lower_bound_check(5, 13)
    assert not free_lower_bound_check(4, 6)


# ---------------------------------------------------------------------------
# families


def test_lines_family(field):
    for d in (3, 5):
        rep = analyze_curve(family("lines_through_point", field, d=d))
        assert rep.tau == (d - 1) ** 2
        assert rep.r == 0 and rep.curve_class == "lines-through-point"


def test_smooth_plus_line_family(field):
    rep = analyze_curve(family("smooth_plus_line", field, d=5))
    assert (rep.tau, rep.r) == (4, 3)
    assert rep.curve_class == "generic"
    assert rep.tau_bounds.lower == rep.tau


def test_family_guards(field):
    with pytest.raises(GuardError):
        family("lines_through_point", field, d=1)
    with pytest.raises(GuardError):
        family("smooth_plus_line", field, d=2)
    with pytest.raises(GuardError):
        family("smooth_plus_line", PrimeField(5), d=6)
    with pytest.raises(GuardError):
        family("ci_qci", field, a=5, c=6)
    with pytest.raises(GuardError):
        family("ci_qci", field, a=3, c=3)
    with pytest.raises(GuardError):
        family("no-such-family", field, d=3)


def test_ci_family_returns_triple(field):
    Q = family("ci_qci", field, a=2, c=4)
    assert Q.degrees == (2, 3, 4)
    rep = analyze_qci(Q)
    assert rep.t == 8


# ---------------------------------------------------------------------------
# coherence


def test_classify_curve_rederives_class(field):
    for text in ("x*y*z", "x^3 - y^2*z", "x^2*y + x*y^2"):
        rep = analyze_curve(CurveInput(parse_poly(text, field)))
        assert classify_curve(rep) == rep.curve_class


def test_curve_report_embeds_partials_analysis(field):
    f = parse_poly("x*y*z", field)
    rep = analyze_curve(CurveInput(f))
    direct = analyze_qci(QciInput.of(*f.partials()))
    assert rep.qci.to_dict() == direct.to_dict()
    assert rep.tau == direct.t


def test_random_products_satisfy_bounds(field):
    """Products of generic lower-degree forms are singular but reduced."""
    rng = random.Random(977)
    seen = 0
    while seen < 8:
        d1 = rng.randrange(1, 3)
        d2 = rng.randrange(1, 3)
        f = random_homog(d1, field, rng) * random_homog(d2, field, rng)
        if f.is_zero or f.degree < 2:
            continue
        rep = analyze_curve(CurveInput(f))
        if rep.refusal is not None or rep.curve_class == "smooth":
            continue
        assert rep.tau_bounds.lower_ok and rep.tau_bounds.upper_ok
        if rep.tau_bounds.ii_applicable:
            assert rep.tau_bounds.ii_ok
        assert classify_curve(rep) == rep.curve_class
        seen += 1
