"""Homogeneous polynomials: parsing, printing, arithmetic, matrices."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qci import (
    GuardError,
    HomogPoly,
    NonHomogeneousError,
    PolyParseError,
    PrimeField,
    ZeroModPWarning,
    basis_index,
    dim_S,
    monomial_basis,
    mult_matrix,
    parse_poly,
    random_homog,
    variables,
)
from qci import core
from qci.poly import product_positions


def test_dim_S_values():
    assert [dim_S(k) for k in (-3, -1, 0, 1, 2, 5)] == [0, 0, 1, 3, 6, 21]


def test_monomial_basis_order_degree_two():
    assert monomial_basis(2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_basis_index_inverts_basis():
    for k in range(5):
        basis = monomial_basis(k)
        assert len(basis) == dim_S(k)
        index = basis_index(k)
        assert all(basis[index[m]] == m for m in basis)


def test_product_positions_match_basis_index():
    for k in range(-1, 7):
        for e in range(3):
            tgt = basis_index(k + e)
            expected = [
                [tgt[(m[0] + nu[0], m[1] + nu[1], m[2] + nu[2])] for m in monomial_basis(k)]
                for nu in monomial_basis(e)
            ]
            assert product_positions(k, e).tolist() == expected


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_term_cubic(field):
    f = parse_poly("x^2*y + x*y^2", field)
    assert f.degree == 3
    assert f.coeffs == {(2, 1, 0): 1, (1, 2, 0): 1}


def test_parse_signs_and_coefficients(field):
    f = parse_poly("2*x^2*y - z^3", field)
    assert f.coeffs == {(2, 1, 0): 2, (0, 0, 3): field.p - 1}
    g = parse_poly("-x^2 + y*z", field)
    assert g.coeffs == {(2, 0, 0): field.p - 1, (0, 1, 1): 1}


def test_parse_juxtaposition(field):
    assert parse_poly("3x^2y", field) == parse_poly("3*x^2*y", field)
    assert parse_poly(" x y z ", field) == parse_poly("x*y*z", field)


def test_parse_reduces_large_integers(field):
    f = parse_poly("64009*x", field)
    assert f.coeffs == {(1, 0, 0): 3}


def test_parse_reads_a_coefficient_of_any_length(field):
    # int() alone refuses a run of more than 4300 digits
    f = parse_poly("1" + "0" * 5000 + "*x^2 + y^2", field)
    assert f.coeffs == {(2, 0, 0): pow(10, 5000, field.p), (0, 2, 0): 1}


def test_parse_keeps_a_long_coefficient_exact_until_reduced(field):
    # p times a power of ten is zero mod p but not over the integers
    p, zeros = field.p, "0" * 4999
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        f = parse_poly(f"{p}{zeros}*x - 1{zeros}*x", field)
    assert f.coeffs == {(1, 0, 0): (-pow(10, 4999, p)) % p} and not rec
    with pytest.warns(ZeroModPWarning):
        assert parse_poly(f"{p}{zeros}*x", field).is_zero


@pytest.mark.parametrize(
    "exponent",
    ["2097152", "9" * 5000, "0" * 4999 + "2097152"],
    ids=["prime-max", "5000-nines", "leading-zeros"],
)
def test_parse_refuses_an_exponent_no_prime_exceeds(field, exponent):
    with pytest.raises(GuardError, match="2\\*\\*21 or more") as err:
        parse_poly(f"y + x^{exponent}", field)
    assert "position 6" in str(err.value) and exponent not in str(err.value)


def test_parse_accepts_an_exponent_below_the_prime_bound(field):
    assert parse_poly("x^2097151", field).degree == 2097151
    assert parse_poly("x^" + "0" * 5000 + "7", field).degree == 7


def test_parse_constant(field):
    c = parse_poly("7", field)
    assert c.degree == 0 and c.coeffs == {(0, 0, 0): 7}


def test_parse_rejects_mixed_degrees(field):
    with pytest.raises(NonHomogeneousError):
        parse_poly("x^2 + y", field)


def test_non_homogeneous_is_a_parse_error(field):
    with pytest.raises(PolyParseError):
        parse_poly("x^2 + y", field)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("x^", "exponent"),
        ("2*", "variable"),
        ("w + x", "term"),
        ("x^0", "positive"),
        ("x +", "dangling sign"),
    ],
)
def test_parse_error_positions(field, text, fragment):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, field)
    assert fragment in str(err.value)
    assert "position" in str(err.value)


def test_parse_warns_when_zero_mod_p(field):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        f = parse_poly("32003*x^3", field)
    assert any(issubclass(w.category, ZeroModPWarning) for w in rec)
    assert f.is_zero and f.degree == 3


def test_parse_no_warning_for_plain_zero_coefficient(field):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        f = parse_poly("0*x^2 + y^2", field)
    assert not rec
    assert f.coeffs == {(0, 2, 0): 1}


# ---------------------------------------------------------------------------
# printing


def test_str_is_canonical(field):
    assert str(parse_poly("y*z + x*z", field)) == "x*z + y*z"
    assert str(parse_poly("x - y", field)) == "x + 32002*y"
    assert str(HomogPoly.zero(3, field)) == "0"
    x, y, _ = variables(field)
    assert str(3 * (x * y)) == "3*x*y"


@given(degree=st.integers(0, 4), seed=st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_print_parse_roundtrip(degree, seed):
    F = PrimeField(32003)
    f = random_homog(degree, F, random.Random(seed))
    assert parse_poly(str(f), F) == f


# ---------------------------------------------------------------------------
# arithmetic


def test_product_of_conjugates(field):
    x, y, _ = variables(field)
    assert (x + y) * (x - y) == x * x - y * y


def test_add_requires_equal_degree(field):
    x, y, _ = variables(field)
    with pytest.raises(ValueError):
        x + x * y


@given(seed=st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_multiplication_algebra(seed):
    F = PrimeField(32003)
    rng = random.Random(seed)
    f = random_homog(rng.randrange(0, 3), F, rng)
    g = random_homog(rng.randrange(0, 3), F, rng)
    h = random_homog(g.degree, F, rng)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f * g).degree == f.degree + g.degree


def test_partials_of_triangle(field):
    x, y, z = variables(field)
    fx, fy, fz = (x * y * z).partials()
    assert fx == y * z and fy == x * z and fz == x * y


def test_partials_with_vanishing_component(field):
    f = parse_poly("x^2*y + x*y^2", field)
    fx, fy, fz = f.partials()
    assert fx == parse_poly("2*x*y + y^2", field)
    assert fy == parse_poly("x^2 + 2*x*y", field)
    assert fz.is_zero and fz.degree == 2


def test_partials_rejected_in_degree_zero(field):
    with pytest.raises(GuardError):
        parse_poly("5", field).partials()


@given(degree=st.integers(1, 4), seed=st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_euler_identity(degree, seed):
    F = PrimeField(32003)
    x, y, z = variables(F)
    f = random_homog(degree, F, random.Random(seed))
    fx, fy, fz = f.partials()
    assert x * fx + y * fy + z * fz == degree * f


# ---------------------------------------------------------------------------
# multiplication matrices


@given(seed=st.integers(0, 10**9), kind=st.sampled_from(["dense", "sparse", "zero"]))
@settings(max_examples=40, deadline=None)
def test_mult_matrix_matches_product(seed, kind):
    F = PrimeField(32003)
    rng = random.Random(seed)
    degree = rng.randrange(0, 6)
    if kind == "dense":
        g = random_homog(degree, F, rng)
    elif kind == "sparse":
        monos = rng.sample(monomial_basis(degree), min(2, dim_S(degree)))
        g = HomogPoly(degree, {m: rng.randrange(1, F.p) for m in monos}, F)
    else:
        g = HomogPoly.zero(degree, F)
    k = rng.randrange(0, 13)
    h = random_homog(k, F, rng)
    M = mult_matrix(g, k)
    assert M.shape == (dim_S(g.degree + k), dim_S(k))
    product = (M @ h.coeff_vector()) % F.p
    assert np.array_equal(product, (g * h).coeff_vector())


@given(seed=st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_column_builders_match_products(seed):
    # the x-steps' block A (core._x_block) holds g times y^(e-q) z^q for
    # each form g and q = 0 .. e, e = degree - deg g, at that multiplier's
    # birth column, cut to the x-divisible monomials, the first
    # dim S_{degree-1}; the window's top degree is the block's own or above
    F = PrimeField(32003)
    rng = random.Random(seed)
    forms = []
    for _ in range(rng.randrange(1, 4)):
        d = rng.randrange(0, 5)
        kind = rng.choice(["dense", "sparse", "zero"])
        if kind == "dense":
            forms.append(random_homog(d, F, rng))
        elif kind == "sparse":
            monos = rng.sample(monomial_basis(d), min(2, dim_S(d)))
            forms.append(HomogPoly(d, {m: rng.randrange(1, F.p) for m in monos}, F))
        else:
            forms.append(HomogPoly.zero(d, F))
    degree = rng.randrange(0, 9)
    expected = [
        (g * HomogPoly.monomial((0, e - q, q), F)).coeff_vector()[: dim_S(degree - 1)]
        for g in forms
        for e in [degree - g.degree]
        for q in range(e + 1)
    ]
    carried = core._Carried(forms, degree + rng.randrange(0, 4))
    place = [
        j
        for g, cols in zip(forms, carried.columns)
        for j in cols[: max(degree - g.degree + 1, 0)]
    ]
    M = core._x_block(carried, degree)
    assert M.shape == (dim_S(degree - 1), len(expected))
    assert sorted(place) == list(range(len(expected)))
    assert all(np.array_equal(M[:, j], v) for j, v in zip(place, expected))


def test_coeff_vector_layout(field):
    f = parse_poly("x^2 + 5*y*z", field)
    vec = f.coeff_vector()
    assert vec.tolist() == [1, 0, 0, 0, 5, 0]
