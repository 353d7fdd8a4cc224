"""Invariants of finite schemes cut out by three homogeneous forms.

Fixed expected values in this file were either computed by the monomial
counting oracle in conftest.py, checked by hand against textbook facts
(Bezout degrees, ideals of coordinate points), or both.
"""

import dataclasses
import random

import numpy as np
import pytest

from qci import (
    GuardError,
    HomogPoly,
    InternalError,
    QciInput,
    analyze_qci,
    basis_index,
    degree_t,
    dim_S,
    dimension_class,
    family,
    graded_map_matrix,
    h1_E,
    kernel_basis,
    parse_poly,
    quotient_hilbert,
    random_homog,
    rank,
    saturation_dim,
    variables,
    verify_resolution,
)
from qci import core
from qci.core import _c2, _classify, _gamma, _split_flag
from qci.report import results


@pytest.fixture()
def triangle(field):
    # partials of xyz: the ideal (yz, xz, xy) of the three coordinate points
    return QciInput.of(*parse_poly("x*y*z", field).partials())


@pytest.fixture()
def point_ideal(field):
    # (x, y^2, yz) cuts out one reduced point at (0:0:1)
    return QciInput.of(
        parse_poly("x", field),
        parse_poly("y^2", field),
        parse_poly("y*z", field),
    )


@pytest.fixture()
def ci_23(field):
    # (F2, x*F2, F3): the ideal equals (F2, F3), a complete intersection
    return family("ci_qci", field, a=2, c=3)


# ---------------------------------------------------------------------------
# input guards


def test_input_sorts_by_degree(field):
    f3 = parse_poly("x^3", field)
    f1 = parse_poly("y", field)
    f2 = parse_poly("z^2", field)
    Q = QciInput.of(f3, f1, f2)
    assert Q.degrees == (1, 2, 3)
    assert Q.polys == (f1, f2, f3)


def test_input_rejects_mixed_fields(field, alt_field):
    with pytest.raises(GuardError):
        QciInput.of(
            parse_poly("x", field),
            parse_poly("y", alt_field),
            parse_poly("z", field),
        )


def test_input_rejects_all_zero(field):
    zero = HomogPoly.zero(2, field)
    with pytest.raises(GuardError):
        QciInput.of(zero, zero, zero)


def test_input_rejects_zero_form_of_least_degree(field):
    x, y = parse_poly("x", field), parse_poly("y", field)
    with pytest.raises(GuardError, match="least degree 0"):
        QciInput.of(x, y, HomogPoly.zero(0, field))
    with pytest.raises(GuardError, match="least degree 1"):
        QciInput.of(
            HomogPoly.zero(1, field),
            parse_poly("x^2", field),
            parse_poly("y^2", field),
        )


def test_zero_form_tied_in_degree_still_analyzes(field):
    # (0, x^2, y^3): the zero form ties with x^2, so the scheme is the
    # complete intersection V(x^2, y^3) of degree 6
    rep = analyze_qci(
        QciInput.of(
            HomogPoly.zero(2, field),
            parse_poly("x^2", field),
            parse_poly("y^3", field),
        )
    )
    assert rep.dimension_class == "dim0" and rep.t == 6
    assert rep.classification.tag == "complete-intersection"


def test_input_rejects_small_prime():
    from qci import PrimeField

    F5 = PrimeField(5)
    x, y, z = variables(F5)
    with pytest.raises(GuardError):
        QciInput.of(x * y, y * z, x * z)


@pytest.mark.parametrize(
    "texts", [("x^2", "y", "x*z"), ("x^3", "y^2", "x*y"), ("x^2*z", "y", "x*y*z")]
)
def test_direct_construction_sorts_like_of(texts, field):
    polys = tuple(parse_poly(s, field) for s in texts)
    direct = results(analyze_qci(QciInput(polys)))
    assert direct == results(analyze_qci(QciInput.of(*polys)))


def test_direct_construction_applies_the_guards(field, alt_field):
    from qci import PrimeField

    x, y, z = variables(field)
    with pytest.raises(GuardError, match="same prime field"):
        QciInput((x, parse_poly("y", alt_field), z))
    with pytest.raises(GuardError, match="least degree 0"):
        QciInput((x, y, HomogPoly.zero(0, field)))
    u, v, w = variables(PrimeField(7))
    with pytest.raises(GuardError, match="need p > a\\+b\\+c"):
        QciInput((u * v, v * w, u * w * w))


# ---------------------------------------------------------------------------
# graded pieces of the ideal


def test_graded_map_of_coordinates_is_identity(field):
    Q = QciInput.of(*variables(field))
    M = graded_map_matrix(Q, 1)
    assert M.shape == (3, 3)
    assert rank(M, field) == 3
    assert (M != 0).sum(axis=0).tolist() == [1, 1, 1]
    assert (M != 0).sum(axis=1).tolist() == [1, 1, 1]
    assert sorted(M[M != 0].tolist()) == [1, 1, 1]


def test_graded_map_detects_repeated_form(field):
    x, y, _ = variables(field)
    M = graded_map_matrix(QciInput.of(x, y, x), 1)
    assert rank(M, field) == 2


def test_graded_map_rank_against_monomial_oracle(field, triangle, monomial_oracle):
    gens = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    for m in range(7):
        expected = dim_S(m) - monomial_oracle(gens, m)
        assert rank(graded_map_matrix(triangle, m), field) == expected


def test_syzygy_vector_lies_in_kernel(field, triangle):
    # (x)*yz + (-y)*xz + 0*xy = 0; block layout is one slot per form
    M = graded_map_matrix(triangle, 3)
    vec = np.zeros(M.shape[1], dtype=np.int64)
    idx = basis_index(1)
    vec[idx[(1, 0, 0)]] = 1
    vec[3 + idx[(0, 1, 0)]] = field.p - 1
    assert not ((M @ vec) % field.p).any()


def test_quotient_hilbert_monomial_ideals(field, triangle, point_ideal, monomial_oracle):
    tri_gens = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    pt_gens = ((1, 0, 0), (0, 2, 0), (0, 1, 1))
    for k in range(8):
        assert quotient_hilbert(triangle, k) == monomial_oracle(tri_gens, k)
        assert quotient_hilbert(point_ideal, k) == monomial_oracle(pt_gens, k)


def test_quotient_hilbert_rejects_negative_degree(field, triangle):
    with pytest.raises(GuardError):
        quotient_hilbert(triangle, -1)


# ---------------------------------------------------------------------------
# dimension classes


def test_dimension_class_empty(field):
    assert dimension_class(QciInput.of(*variables(field))) == ("empty", 0)
    cubes = QciInput.of(
        parse_poly("x^3", field), parse_poly("y^3", field), parse_poly("z^3", field)
    )
    assert dimension_class(cubes) == ("empty", 0)


def test_dimension_class_positive_dimensional(field):
    x, y, z = variables(field)
    Q = QciInput.of(x * z, y * z, (x + y) * z)
    assert dimension_class(Q) == ("dim_ge_1", None)
    # two zero forms tied below a nonzero form of higher degree: the ideal
    # is zero below that degree, where the window's x-steps start
    zero = HomogPoly.zero(0, field)
    Q = QciInput.of(zero, zero, parse_poly("x^4 + y^4 + z^4", field))
    assert dimension_class(Q) == ("dim_ge_1", None)


def test_dimension_class_finite(triangle):
    assert dimension_class(triangle) == ("dim0", 3)


def test_degree_requires_finite_scheme(field):
    with pytest.raises(GuardError):
        degree_t(QciInput.of(*variables(field)))


_STAGE_CALLS = {
    "degree_t": lambda Q: degree_t(Q),
    "saturation_dim": lambda Q: saturation_dim(Q, 2),
    "h1_E": lambda Q: h1_E(Q, 0),
    "verify_resolution": lambda Q: verify_resolution(Q, ((2,), (1, 1))),
}


@pytest.mark.parametrize("stage", sorted(_STAGE_CALLS))
@pytest.mark.parametrize(
    "forms, tag",
    [(("x", "y", "z"), "empty"), (("x*z", "y*z", "x*z + y*z"), "dim_ge_1")],
)
def test_every_stage_refuses_a_scheme_that_is_not_finite(stage, forms, tag, field):
    Q = QciInput.of(*(parse_poly(s, field) for s in forms))
    message = f"operation needs a finite nonempty scheme; input is {tag}$"
    with pytest.raises(GuardError, match=message):
        _STAGE_CALLS[stage](Q)


# ---------------------------------------------------------------------------
# frozen invariant batteries for the three standing witnesses


def test_triangle_invariants(field, triangle):
    rep = analyze_qci(triangle)
    assert rep.refusal is None
    assert (rep.t, rep.r, rep.gamma, rep.c2_at_r) == (3, 1, 1, 0)
    assert (rep.m0, rep.h1_at_m0, rep.splits) == (0, 0, True)
    assert rep.hilbert.values == (1, 3, 3, 3, 3, 3, 3, 3)
    assert (rep.hilbert.k_star, rep.hilbert.k_max) == (4, 7)
    hilbert = results(rep)["hilbert"]
    assert hilbert["plateau"] == 3 and hilbert["extensions"] == 0
    assert rep.syzygies.window == (0, 2)
    assert rep.syzygies.dims == ((0, 0), (1, 2), (2, 6))
    assert rep.generator_degrees == (1, 1)
    assert (rep.bounds_i.lower, rep.bounds_i.upper) == (2, 3)
    assert rep.bounds_i.lower_ok and rep.bounds_i.upper_ok
    assert not rep.bounds_ii.applicable
    cls = rep.classification
    assert (cls.tag, cls.case, cls.e_type) == ("aci-split", 2, (-1, -1))
    assert cls.resolution == ((3, 3), (2, 2, 2))
    assert rep.resolution_verified is True


def test_point_ideal_invariants(field, point_ideal):
    rep = analyze_qci(point_ideal)
    assert (rep.t, rep.r, rep.gamma, rep.c2_at_r) == (1, 1, 1, 1)
    assert (rep.m0, rep.h1_at_m0, rep.splits) == (-1, 1, False)
    assert rep.hilbert.values == (1, 2, 1, 1, 1, 1, 1)
    assert rep.syzygies.window == (-1, 1)
    assert rep.syzygies.dims == ((-1, 0), (0, 0), (1, 3))
    assert rep.generator_degrees == (1, 1, 1)
    assert (rep.bounds_i.lower, rep.bounds_i.upper) == (0, 2)
    assert rep.bounds_i.lower_ok and rep.bounds_i.upper_ok
    assert rep.bounds_ii == type(rep.bounds_ii)(True, 1, True)
    cls = rep.classification
    assert (cls.tag, cls.case, cls.e_type) == ("c2-one-resolution", None, None)
    assert cls.resolution == ((2, 2, 2), (1, 1, 2, 2))
    assert rep.resolution_verified is True


def test_complete_intersection_invariants(field, ci_23):
    rep = analyze_qci(ci_23)
    assert rep.degrees == (2, 3, 3)
    assert (rep.t, rep.r, rep.gamma, rep.c2_at_r) == (6, 0, 0, 0)
    assert rep.splits is True
    assert rep.hilbert.values == (1, 3, 5, 6, 6, 6, 6, 6, 6, 6)
    assert rep.syzygies.window == (-1, 2)
    assert rep.syzygies.dims == ((-1, 0), (0, 1), (1, 3), (2, 7))
    assert rep.generator_degrees == (0, 2)
    assert rep.bounds_i == type(rep.bounds_i)(6, 6, True, True)
    cls = rep.classification
    assert (cls.tag, cls.case, cls.e_type) == ("r-eq-a-minus-c-plus-1", 3, (0, -2))
    assert cls.resolution == ((3, 5), (2, 3, 3))
    assert rep.resolution_verified is True


def test_dependent_triple_is_a_complete_intersection(field):
    x, y, _ = variables(field)
    rep = analyze_qci(QciInput.of(x, 2 * x, y))
    assert (rep.t, rep.r) == (1, 0)
    cls = rep.classification
    assert cls.tag == "complete-intersection"
    assert cls.resolution == ((2,), (1, 1))


# ---------------------------------------------------------------------------
# individual operations


def test_single_invariant_entry_points(field, triangle, point_ideal, ci_23):
    assert degree_t(triangle) == 3
    assert degree_t(point_ideal) == 1
    assert degree_t(ci_23) == 6
    tri, pt, ci = (analyze_qci(Q) for Q in (triangle, point_ideal, ci_23))
    assert tri.c2_at_r == 0
    assert pt.c2_at_r == 1
    assert tri.splits and not pt.splits and ci.splits
    assert tri.generator_degrees == (1, 1)
    assert pt.generator_degrees == (1, 1, 1)
    assert ci.generator_degrees == (0, 2)
    assert tri.gamma == 1
    assert ci.gamma == 0


# each single-field reader the library once had, by its name, with the
# report expression that replaces it
_READER_FIELDS = {
    "syzygy_dims": lambda rep: rep.syzygies,
    "syzygy_generator_degrees": lambda rep: rep.generator_degrees,
    "c2_at_r": lambda rep: rep.c2_at_r,
    "certify_bounds": lambda rep: (rep.bounds_i, rep.bounds_ii),
    "splits": lambda rep: rep.splits,
    "classify": lambda rep: rep.classification,
    "linked_degree": lambda rep: rep.gamma,
}


def _seeded_finite_triples(field):
    # (Ga, Gb, u*Ga + v*Gb) cut out the finite scheme V(Ga, Gb), and the
    # partials of a product of two forms cut out its nodes and more
    rng = random.Random(4417)
    out = []
    for a, b, c in ((1, 2, 2), (2, 2, 3), (2, 3, 4)):
        ga, gb = random_homog(a, field, rng), random_homog(b, field, rng)
        third = random_homog(c - a, field, rng) * ga + random_homog(c - b, field, rng) * gb
        out.append(QciInput.of(ga, gb, third))
    for e, d in ((1, 3), (2, 4)):
        f = random_homog(e, field, rng) * random_homog(d - e, field, rng)
        out.append(QciInput.of(*f.partials()))
    return out


def test_stage_functions_equal_their_report_field(field, triangle, point_ideal, ci_23):
    # the functions that take a degree or stop at the dimension stage agree
    # with the one-pass report, and every replaced reader has a value
    triples = [triangle, point_ideal, ci_23] + _seeded_finite_triples(field)
    for Q in triples:
        rep = analyze_qci(Q)
        assert rep.dimension_class == "dim0"
        assert dimension_class(Q) == ("dim0", rep.t)
        assert degree_t(Q) == rep.t
        assert h1_E(Q, rep.m0) == rep.h1_at_m0
        hilbert = [quotient_hilbert(Q, k) for k in range(rep.hilbert.k_max + 1)]
        assert tuple(hilbert) == rep.hilbert.values
        resolution = rep.classification.resolution
        if resolution is not None:
            assert verify_resolution(Q, resolution) is rep.resolution_verified
        for name, read in _READER_FIELDS.items():
            assert read(rep) is not None, name


@pytest.mark.parametrize("read", list(_READER_FIELDS))
@pytest.mark.parametrize(
    "texts, tag", [(("x", "y", "z"), "empty"), (("x*z", "y*z", "x*z+y*z"), "dim_ge_1")]
)
def test_report_readers_refuse_schemes_that_are_not_finite(field, read, texts, tag):
    # a refusal is on the report, not a GuardError: the field that replaces
    # each reader holds no value
    rep = analyze_qci(QciInput.of(*(parse_poly(t, field) for t in texts)))
    assert rep.dimension_class == tag and rep.refusal
    assert _READER_FIELDS[read](rep) in (None, (None, None))


# ---------------------------------------------------------------------------
# the paper's arithmetic on (a, b, c, t, r): every fault branch


def _classify_at(a, b, c, t, r):
    return _classify(a, b, c, t, r, _c2(a, b, c, t, r))


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (_c2, (1, 1, 1, 2, 0), "second Chern number -1 .* is negative"),
        (_gamma, (2, 3, 7), "residual degree -1 outside \\[0, 6\\]"),
        (_split_flag, (1, 0), "splitting tests disagree: .* says False but .* says True"),
        (_split_flag, (0, 1), "splitting tests disagree: .* says True but .* says False"),
        # r = a-c forces t = ac
        (_classify_at, (2, 2, 2, 3, 0), "forces a pencil intersection of degree 4"),
        # r = a-c+1 needs b <= a+1
        (_classify_at, (1, 3, 3, 3, -1), "incompatible with degrees \\(1, 3, 3\\)"),
        # r = a-c+1 in none of the three cases
        (_classify_at, (2, 2, 2, 1, 1), "matches none of the three admissible cases"),
        # split (c2 = 0) with 2r > a+b-c
        (_classify_at, (2, 2, 2, 4, 2), "split bundle .* violates 2r <= a\\+b-c$"),
        # Chern one with 2r > a+b-c+1
        (_classify_at, (2, 2, 2, 3, 2), "Chern-one bundle .* violates 2r <= a\\+b-c\\+1"),
    ],
)
def test_arithmetic_faults_raise_internal_errors(fn, args, match):
    with pytest.raises(InternalError, match=match):
        fn(*args)


def test_near_minimal_cases_fix_their_chern_number():
    # at r = a-c+1, c2 = r(c-a-b) + ab - t + r^2 is 1 in case 1 and 0 in
    # cases 2 and 3, whatever a and c, so _classify checks none of them
    for a in range(1, 40):
        for c in range(a, a + 40):
            r = a - c + 1
            assert _c2(a, a, c, c * (a - 1), r) == 1
            assert _c2(a, a, c, c * (a - 1) + 1, r) == 0
            if c >= a + 1:
                assert _c2(a, a + 1, c, a * c, r) == 0


def test_linked_degree_of_concurrent_lines(field):
    Q = QciInput.of(*parse_poly("x^2*y + x*y^2", field).partials())
    assert degree_t(Q) == 4
    assert analyze_qci(Q).gamma == 0


def test_syzygy_table_structure(triangle):
    table = analyze_qci(triangle).syzygies
    lo, hi = table.window
    assert [k for k, _ in table.dims] == list(range(lo, hi + 1))
    assert table.r == 1


def test_saturation_of_coordinate_points(field, triangle):
    # ideal of three coordinate points: codim 3 in each degree >= 2
    assert [saturation_dim(triangle, m) for m in range(5)] == [0, 0, 3, 7, 12]


def test_saturation_of_single_point(field, point_ideal):
    # saturation is (x, y): one linear relation per degree
    assert [saturation_dim(point_ideal, m) for m in range(5)] == [0, 2, 5, 9, 14]


def test_saturation_requires_finite_scheme(field):
    with pytest.raises(GuardError):
        saturation_dim(QciInput.of(*variables(field)), 2)


def test_saturation_meets_ideal_in_high_degree(field, triangle, point_ideal):
    for Q in (triangle, point_ideal):
        rep = analyze_qci(Q)
        m = rep.hilbert.k_max - 3 + 1
        ideal_dim = dim_S(m) - rep.hilbert.values[m]
        assert saturation_dim(Q, m) == ideal_dim


def test_h1_values(field, triangle, point_ideal):
    assert [h1_E(triangle, k) for k in range(-2, 3)] == [0, 0, 0, 0, 0]
    assert [h1_E(point_ideal, k) for k in range(-2, 3)] == [0, 1, 0, 0, 0]


def test_certify_bounds_flags(field, point_ideal):
    rep = analyze_qci(point_ideal)
    b1, b2 = rep.bounds_i, rep.bounds_ii
    assert (b1.lower, b1.upper, b1.lower_ok, b1.upper_ok) == (0, 2, True, True)
    assert (b2.applicable, b2.bound, b2.ok) == (True, 1, True)


def test_verify_resolution_negative_controls(field, point_ideal):
    assert verify_resolution(point_ideal, ((2, 2, 2), (1, 1, 2, 2)))
    assert not verify_resolution(point_ideal, ((2, 2, 3), (1, 1, 2, 2)))
    assert not verify_resolution(point_ideal, ((2, 2, 2), (1, 1, 2, 3)))
    assert not verify_resolution(point_ideal, ((2, 2), (1, 2, 2)))


def test_verify_resolution_for_split_case(field, triangle):
    assert verify_resolution(triangle, ((3, 3), (2, 2, 2)))
    assert not verify_resolution(triangle, ((3, 4), (2, 2, 2)))
    # right Euler characteristic, and the right saturation from k*-1 on:
    # only the low degrees (here m = 1, where it predicts a linear form)
    # tell it apart
    assert not verify_resolution(triangle, ((4,), (1, 3)))


# ---------------------------------------------------------------------------
# the engine's cross-checks fail loudly on an inconsistent table or rank


def test_generator_lift_of_excess_rank_raises(triangle, monkeypatch):
    # a lift rank one too high leaves fewer syzygies than the kernel holds
    table, tails = core._hilbert_window(triangle)
    real = core.rank
    monkeypatch.setattr(core, "rank", lambda M, field: real(M, field) + 1)
    with pytest.raises(InternalError, match="lifted syzygies exceed the kernel dimension"):
        core._generator_degrees(triangle, table.values, tails)


def test_syzygy_window_without_a_syzygy_raises(triangle):
    # lower each degree of the window by its kernel dimension: no twist of
    # a-c .. a+b-c then has a syzygy
    a, b, c = triangle.degrees
    values = core._hilbert_window(triangle)[0].values
    bad = list(values)
    for k in range(a - c, a + b - c + 1):
        bad[k + c] -= core._h0E(triangle, values, k)
    with pytest.raises(InternalError, match="no syzygy found in the guaranteed window"):
        core._syzygy_table(triangle, tuple(bad))


def test_ideal_larger_than_its_saturation_raises(triangle):
    # HF(2) one lower makes the degree-2 ideal one larger than its saturation
    values = core._hilbert_window(triangle)[0].values
    assert core._h1E(triangle, values, 0) == 0
    bad = values[:2] + (values[2] - 1,) + values[3:]
    with pytest.raises(InternalError, match="saturation lost ideal elements in degree 2"):
        core._h1E(triangle, bad, 0)


def test_resolution_that_fails_verification_raises(triangle, monkeypatch):
    # HF(0) = 0 leaves t, r and the class (aci-split) as they are, but the
    # saturation it implies in degree 3 no longer matches the resolution
    table, tails = core._hilbert_window(triangle)
    bad = dataclasses.replace(table, values=(0,) + table.values[1:])
    monkeypatch.setattr(core, "_hilbert_window", lambda Q: (bad, tails))
    with pytest.raises(InternalError, match="predicted resolution for tag aci-split failed"):
        analyze_qci(triangle)


# ---------------------------------------------------------------------------
# refusal paths


def test_analyze_empty_scheme(field):
    rep = analyze_qci(QciInput.of(*variables(field)))
    assert rep.dimension_class == "empty"
    assert rep.refusal is not None and "no common zero" in rep.refusal
    assert rep.t == 0
    assert rep.r is None and rep.classification is None
    assert rep.hilbert.values[-1] == 0


def test_analyze_positive_dimensional(field):
    x, y, z = variables(field)
    rep = analyze_qci(QciInput.of(x * z, y * z, (x + y) * z))
    assert rep.dimension_class == "dim_ge_1"
    assert rep.refusal is not None
    assert rep.t is None and rep.classification is None


# ---------------------------------------------------------------------------
# randomized cross-checks


def test_random_dependent_triples_have_bezout_degree(field):
    """(G_a, G_b, u*G_a + v*G_b) generates the same ideal as (G_a, G_b).

    When that pair cuts out a finite scheme its degree is a*b exactly, so
    the plateau value has an independent prediction.
    """
    rng = random.Random(1203)
    checked = 0
    while checked < 12:
        a = rng.randrange(1, 4)
        b = rng.randrange(a, 5)
        c = rng.randrange(b, 5)
        ga = random_homog(a, field, rng)
        gb = random_homog(b, field, rng)
        u = random_homog(c - a, field, rng)
        v = random_homog(c - b, field, rng)
        third = u * ga + v * gb
        if ga.is_zero or gb.is_zero or third.is_zero:
            continue
        rep = analyze_qci(QciInput.of(ga, gb, third))
        if rep.dimension_class != "dim0":
            continue
        assert rep.t == a * b
        assert rep.bounds_i.lower_ok and rep.bounds_i.upper_ok
        if rep.bounds_ii.applicable:
            assert rep.bounds_ii.ok
        assert rep.c2_at_r >= 0
        assert 0 <= rep.gamma <= a * c
        lo, hi = rep.syzygies.window
        assert lo <= rep.r <= hi
        if rep.resolution_verified is not None:
            assert rep.resolution_verified
        checked += 1
    assert checked == 12


def test_analysis_is_deterministic(field, point_ideal):
    one = results(analyze_qci(point_ideal))
    two = results(analyze_qci(point_ideal))
    assert one == two
