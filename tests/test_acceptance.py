"""End-to-end acceptance battery.

Each criterion is one test with exact integer assertions and, where one
applies, an explicit wall-clock budget. The conftest hook prints one
PASS/FAIL line per criterion at the end of the run. Randomized suites
use fixed seeds so every run certifies the same inputs.
"""

import json
import random
import time

from qci import (
    CurveInput,
    HomogPoly,
    PrimeField,
    QciInput,
    analyze_curve,
    analyze_qci,
    dim_S,
    family,
    free_lower_bound_check,
    parse_poly,
    random_homog,
    saturation_dim,
    variables,
    verify_resolution,
)
from qci.cli import main

PRIME = 32003
ALT_PRIME = 31013


def lines_product(field, d):
    x, y, z = variables(field)
    f = z
    for i in range(1, d):
        f = f * (x - i * y)
    return f


def certify_qci_report(rep, Q=None):
    """Every guaranteed property a finite-scheme report must satisfy."""
    a, b, c = rep.degrees
    assert rep.t >= 1
    assert rep.bounds_i.lower_ok and rep.bounds_i.upper_ok, rep
    if rep.bounds_ii.applicable:
        assert rep.bounds_ii.ok, rep
    assert rep.c2_at_r >= 0
    assert 0 <= rep.gamma <= a * c
    lo, hi = rep.syzygies.window
    assert (lo, hi) == (a - c, a + b - c)
    assert lo <= rep.r <= hi
    assert all(lo <= g <= hi + 1 for g in rep.generator_degrees)
    assert rep.generator_degrees[0] == rep.r
    assert rep.splits == (rep.c2_at_r == 0)
    assert rep.splits == (rep.h1_at_m0 == 0)
    if rep.resolution_verified is not None:
        assert rep.resolution_verified, rep
    if Q is not None:
        # the saturation contains the ideal degreewise and meets it
        # past the stabilization anchor
        ideal_dim = dim_S(c) - rep.hilbert.values[c]
        assert saturation_dim(Q, c) >= ideal_dim
        m = rep.hilbert.k_max - 3 + 1
        assert saturation_dim(Q, m) == dim_S(m) - rep.hilbert.values[m]
    return rep


def certify_curve_report(rep):
    assert rep.tau >= 1
    tb = rep.tau_bounds
    assert tb.lower_ok and tb.upper_ok, rep
    if tb.ii_applicable:
        assert tb.ii_ok, rep
    # the three freeness tests must render the same verdict on every
    # curve: the tau formula, the split flag, and the Chern number
    free_value = (rep.d - 1) * (rep.d - 1 - rep.r) + rep.r * rep.r
    is_free = rep.curve_class in ("free", "lines-through-point")
    assert (rep.tau == free_value) == is_free, rep
    assert rep.qci.splits == is_free, rep
    assert (rep.qci.c2_at_r == 0) == is_free, rep
    if rep.curve_class == "free":
        e1, e2 = rep.exponents
        assert rep.tau == (rep.d - 1) * (rep.d - 1 - e1) + e1 * e1
        assert e1 + e2 == rep.d - 1
        assert rep.qci.splits and rep.qci.c2_at_r == 0
        assert free_lower_bound_check(rep.d, rep.tau)
    if rep.curve_class == "nearly-free":
        assert not rep.qci.splits and rep.qci.c2_at_r == 1
    certify_qci_report(rep.qci)
    assert rep.tau == rep.qci.t
    return rep


# ---------------------------------------------------------------------------


def test_criterion_1_lines_family():
    field = PrimeField(PRIME)
    start = time.perf_counter()
    for d in range(3, 9):
        rep = analyze_curve(family("lines_through_point", field, d=d))
        assert rep.tau == (d - 1) ** 2, (d, rep.tau)
        assert rep.r == 0
        assert rep.curve_class == "lines-through-point"
        certify_curve_report(rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"lines family took {elapsed:.2f}s"


def test_criterion_2_smooth_plus_line_family():
    field = PrimeField(PRIME)
    start = time.perf_counter()
    for d in range(4, 9):
        rep = analyze_curve(family("smooth_plus_line", field, d=d))
        assert rep.tau == d - 1, (d, rep.tau)
        assert rep.r == d - 2
        # the lower bound is attained exactly on this family
        assert rep.tau_bounds.lower == rep.tau and rep.tau_bounds.lower_ok
        certify_curve_report(rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"smooth-plus-line family took {elapsed:.2f}s"


def test_criterion_3_complete_intersection():
    field = PrimeField(PRIME)
    Q = family("ci_qci", field, a=2, c=3)
    rep = analyze_qci(Q)
    assert rep.degrees == (2, 3, 3)
    assert rep.t == 6 == 2 * 3
    assert rep.r == 0
    assert rep.bounds_i.lower == rep.t == rep.bounds_i.upper
    assert rep.bounds_i.lower_ok and rep.bounds_i.upper_ok
    assert rep.gamma == 0
    assert rep.splits is True
    certify_qci_report(rep, Q)


def test_criterion_4_triangle_curve():
    field = PrimeField(PRIME)
    rep = analyze_curve(CurveInput(parse_poly("x*y*z", field)))
    assert (rep.tau, rep.r) == (3, 1)
    assert rep.curve_class == "free" and rep.exponents == (1, 1)
    # free class, split bundle and vanishing second Chern class coincide
    assert rep.qci.splits is True
    assert rep.qci.c2_at_r == 0
    assert rep.tau == (rep.d - 1) * (rep.d - 1 - rep.r) + rep.r**2
    certify_curve_report(rep)


def test_criterion_5_point_ideal():
    field = PrimeField(PRIME)
    Q = QciInput.of(
        parse_poly("x", field),
        parse_poly("y^2", field),
        parse_poly("y*z", field),
    )
    rep = analyze_qci(Q)
    assert (rep.t, rep.r, rep.c2_at_r) == (1, 1, 1)
    assert rep.splits is False
    assert rep.h1_at_m0 == 1
    assert rep.classification.resolution == ((2, 2, 2), (1, 1, 2, 2))
    assert verify_resolution(Q, ((2, 2, 2), (1, 1, 2, 2)))
    # perturbed controls must be rejected
    assert not verify_resolution(Q, ((2, 2, 3), (1, 1, 2, 2)))
    assert not verify_resolution(Q, ((2, 2, 2), (1, 1, 2, 3)))
    certify_qci_report(rep, Q)


def test_criterion_6_randomized_finite_schemes():
    field = PrimeField(PRIME)
    rng = random.Random(260819)
    start = time.perf_counter()
    total = 0
    finite = 0

    # raw dense draws: usually empty, occasionally more
    for _ in range(120):
        degrees = sorted(rng.randrange(1, 5) for _ in range(3))
        polys = [random_homog(d, field, rng) for d in degrees]
        if any(f.is_zero for f in polys):
            continue
        Q = QciInput.of(*polys)
        rep = analyze_qci(Q)
        total += 1
        if rep.dimension_class == "empty":
            assert rep.t == 0 and rep.refusal is not None
        elif rep.dimension_class == "dim_ge_1":
            assert rep.refusal is not None
        else:
            certify_qci_report(rep, Q)
            finite += 1

    # dependent triples: ideal equals (G_a, G_b), degree is a*b by Bezout
    attempts = 0
    while finite < 60 or total < 180:
        attempts += 1
        assert attempts < 2000, "constructed triples kept degenerating"
        a = rng.randrange(1, 4)
        b = rng.randrange(a, 5)
        c = rng.randrange(b, 5)
        ga = random_homog(a, field, rng)
        gb = random_homog(b, field, rng)
        third = random_homog(c - a, field, rng) * ga + random_homog(
            c - b, field, rng
        ) * gb
        if ga.is_zero or gb.is_zero or third.is_zero:
            continue
        Q = QciInput.of(ga, gb, third)
        rep = analyze_qci(Q)
        total += 1
        if rep.dimension_class != "dim0":
            continue
        certify_qci_report(rep, Q)
        assert rep.t == a * b, (a, b, rep.t)
        finite += 1

    # triples forced through a common point: never empty
    made = 0
    while made < 40:
        degrees = sorted(rng.randrange(1, 5) for _ in range(3))
        polys = []
        for d in degrees:
            f = random_homog(d, field, rng)
            corner = f.coeffs.get((0, 0, d), 0)
            f = f - HomogPoly.monomial((0, 0, d), field, corner)
            polys.append(f)
        if any(f.is_zero for f in polys):
            continue
        Q = QciInput.of(*polys)
        rep = analyze_qci(Q)
        total += 1
        made += 1
        assert rep.dimension_class != "empty"
        if rep.dimension_class == "dim0":
            certify_qci_report(rep, Q)
            assert rep.t >= 1
            finite += 1

    elapsed = time.perf_counter() - start
    assert total >= 200, total
    assert finite >= 80, finite
    assert elapsed < 60.0, f"randomized scheme suite took {elapsed:.2f}s"


def test_criterion_7_randomized_singular_curves():
    field = PrimeField(PRIME)
    rng = random.Random(190826)
    start = time.perf_counter()
    analyzed = 0
    classes = {"free": 0, "nearly-free": 0}

    def record(rep):
        nonlocal analyzed
        certify_curve_report(rep)
        if rep.curve_class in classes:
            classes[rep.curve_class] += 1
        analyzed += 1

    # products of generic forms: reduced with ordinary double points
    for _ in range(40):
        d = rng.randrange(3, 7)
        d1 = rng.randrange(1, d // 2 + 1)
        f = random_homog(d1, field, rng) * random_homog(d - d1, field, rng)
        if f.is_zero:
            continue
        rep = analyze_curve(CurveInput(f))
        if rep.refusal is not None or rep.curve_class == "smooth":
            continue
        record(rep)

    # dense curves forced singular at one corner point
    for _ in range(18):
        d = rng.randrange(3, 7)
        f = random_homog(d, field, rng)
        for mono in ((0, 0, d), (1, 0, d - 1), (0, 1, d - 1)):
            f = f - HomogPoly.monomial(mono, field, f.coeffs.get(mono, 0))
        if f.is_zero:
            continue
        rep = analyze_curve(CurveInput(f))
        if rep.refusal is not None or rep.curve_class == "smooth":
            continue
        record(rep)

    # constructed witnesses: free and nearly-free classes are non-vacuous
    record(analyze_curve(CurveInput(parse_poly("x*y*z", field))))
    record(analyze_curve(CurveInput(parse_poly("x^3 - y^2*z", field))))
    for d in (4, 5, 6):
        rep = analyze_curve(CurveInput(lines_product(field, d)))
        assert rep.curve_class == "free" and rep.exponents == (1, d - 2)
        record(rep)

    # degree-8 screening: tau above d^2-4d+5 forces one of four signatures
    rep = analyze_curve(CurveInput(lines_product(field, 8)))
    assert rep.tau == 43 and rep.tau > 8 * 8 - 4 * 8 + 5
    assert rep.plus_one_case == 1
    assert rep.curve_class == "free" and rep.exponents == (1, 6)
    record(rep)
    x, _, _ = variables(field)
    f8 = x * random_homog(7, field, rng)
    rep = analyze_curve(CurveInput(f8))
    assert rep.refusal is None
    assert rep.tau <= 8 * 8 - 4 * 8 + 5 and rep.plus_one_case is None
    record(rep)

    elapsed = time.perf_counter() - start
    assert analyzed >= 50, analyzed
    assert classes["free"] >= 4 and classes["nearly-free"] >= 1, classes
    assert elapsed < 120.0, f"randomized curve suite took {elapsed:.2f}s"


def test_criterion_8_determinism_and_prime_independence(tmp_path, capsys):
    # byte-identical JSON reports across repeated runs
    for name, argv in {
        "qci": ["analyze-qci", "--fa", "x", "--fb", "y^2", "--fc", "y*z", "--json"],
        "curve": ["analyze-curve", "--f", "x*y*z", "--json"],
    }.items():
        paths = [tmp_path / f"{name}-{i}.json" for i in (1, 2)]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second and first
        json.loads(first)

    # serial and parallel sweeps agree byte for byte
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["sweep", "--family", "lines", "--d-range", "3..6"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    capsys.readouterr()

    # headline invariants do not depend on the working prime
    for p in (PRIME, ALT_PRIME):
        field = PrimeField(p)
        outcomes = []
        for d in range(3, 9):
            rep = analyze_curve(family("lines_through_point", field, d=d))
            outcomes.append((rep.tau, rep.r, rep.curve_class))
        for d in range(4, 9):
            rep = analyze_curve(family("smooth_plus_line", field, d=d))
            outcomes.append((rep.tau, rep.r, rep.curve_class))
        rep = analyze_qci(family("ci_qci", field, a=2, c=3))
        outcomes.append((rep.t, rep.r, rep.classification.tag))
        rep = analyze_curve(CurveInput(parse_poly("x*y*z", field)))
        outcomes.append((rep.tau, rep.r, rep.curve_class))
        rep = analyze_qci(
            QciInput.of(
                parse_poly("x", field),
                parse_poly("y^2", field),
                parse_poly("y*z", field),
            )
        )
        outcomes.append((rep.t, rep.r, rep.classification.tag))
        if p == PRIME:
            reference = outcomes
        else:
            assert outcomes == reference
