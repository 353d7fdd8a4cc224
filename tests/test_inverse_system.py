"""The x-steps that carry I_T^perp up the Hilbert window.

``_hilbert_window`` carries a basis N_T of the degree-T map's left null
space from the least degree of a nonzero form up to k_max, one x-step
(``core.left_null``) per degree, N being the identity below that degree;
HF(T) is the row count of N_T.  Every N_T the window makes (the tests
capture each by wrapping ``core.left_null``) is compared with a direct left
null space through the RREF of both, as a stepped basis is not the
canonical one, and the values also with the counting oracle of conftest.py
on monomial ideals.

The x-steps carry the echelon form of the binary block B_T, the x-free
multipliers' columns on the x-free monomials, each multiplier at its birth
rank; at every degree its pivot count, syzygy rows and units are compared
with a direct elimination of B_T, built from products in birth order, and
losing one of its syzygy rows must trip a cross-check.

Each map is eliminated at most once, and most not at all: besides the
x-steps, whose eliminations (a block Y^T) are not graded maps and which
grow the binary echelon form without one, ``_hilbert_window`` builds and
eliminates only the x-ordered
degree-(a+b+1) map, for the x-free tails V_m of the K_m of the syzygy
window, which the generator lifts read, and for a cross-check of
HF(0 .. a+b+1).  The ranks of the x-steps' systems, rank Y_T + rank B_T,
sum to the rank of the degree-k_max map.  The saturation reads only
values of the Hilbert window, and nothing above k_max is ranked, as
HF(m) = t there (``h1_E`` above the window is arithmetic); a lone
``rank_at`` outside the window, as ``quotient_hilbert`` makes, is one
plain rank.  A V_m read off a higher degree's kernel is a basis but not
the canonical one, so it is compared through the RREF with the x-free
coordinates of a direct kernel.  The annihilation check of N_{k_max}, a
contraction with each form's terms, must agree with the product of N and
the built map on corrupted N.  The saturation, read off the window by
Riemann-Roch and Serre duality, is compared in every degree with the
common kernel of the shifted copies of a directly eliminated left null
space.
"""

import importlib.util
import random
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qci import (
    CurveInput,
    HomogPoly,
    InternalError,
    PrimeField,
    QciInput,
    analyze_curve,
    analyze_qci,
    dim_S,
    family,
    kernel_basis,
    monomial_basis,
    parse_poly,
    random_homog,
    rank,
    rref,
)
from qci import core, linalg
from qci.poly import product_positions

LARGE_PRIMES = (32003, 2097143)


def _prime_above(n):
    q = n + 1
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def _node_partials(d, field, seed):
    # a dense curve without z^d, x z^(d-1), y z^(d-1): singular at [0:0:1]
    rng = random.Random(seed)
    skip = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
    coeffs = {m: rng.randrange(1, field.p) for m in monomial_basis(d) if m not in skip}
    return HomogPoly(d, coeffs, field).partials()


def _direct_hilbert(Q, m):
    return dim_S(m) - rank(core.graded_map_matrix(Q, m), Q.field)


def _carried_state(T, carried):
    """The carried binary state of degree T as (C, piv): C's rows are the
    pivot rows (b | e), then the syzygy rows (0 | z), b on the binary
    columns z^0 .. z^T and e on the n multipliers of degree T, in birth
    order; piv holds the pivot columns.  A copy, as the carry grows its
    arrays in place."""
    r, s = carried.r, carried.s
    units = carried.rows.shape[1] - carried.syzygies.shape[1]
    C = np.zeros((r + s, T + 1 + r + s), dtype=np.int64)
    C[:r, : T + 1] = carried.rows[:r, : T + 1]
    C[:r, T + 1 :] = carried.rows[:r, units : units + r + s]
    C[r:, T + 1 :] = carried.syzygies[:s, : r + s]
    return C, carried.piv[:r].copy()


def _record_steps(monkeypatch, part=0):
    """Each input's x-steps {T: N_T}, filled as its Hilbert window makes them;
    with ``part=1``, {T: the carried binary state (C, piv)} instead (see
    ``_carried_state``).

    The window keeps no N_T, so ``core.left_null`` is wrapped, and the
    original still makes the elimination under its own caller name.
    """
    steps = defaultdict(dict)
    left_null = core.left_null

    def recording(Q, T, N_prev, carried):
        out = left_null(Q, T, N_prev, carried)
        steps[Q][T] = _carried_state(T, out[1]) if part else out[0]
        return out

    monkeypatch.setattr(core, "left_null", recording)
    return steps


def _least_degree(Q):
    # the least degree of a nonzero form, where the x-steps start
    return min(f.degree for f in Q.polys if not f.is_zero)


def _case_input(field, which):
    if which.startswith("node"):
        d = int(which[4:])
        return QciInput.of(*_node_partials(d, field, seed=d))
    if which.startswith("lines"):
        d = int(which[5:])
        return QciInput.of(*family("lines_through_point", field, d=d).f.partials())
    if which == "smooth":
        rng = random.Random(7)
        f = HomogPoly.zero(5, field)
        for _ in range(3):
            l = random_homog(1, field, rng)
            f = f + l * l * l * l * l
        return QciInput.of(*f.partials())
    if which == "x2g":
        g = random_homog(3, field, random.Random(11))
        return QciInput.of(*(parse_poly("x^2", field) * g).partials())
    if which == "zero-form":
        return QciInput.of(*parse_poly("x^6 + y^6", field).partials())
    raise ValueError(which)


_CASES = [f"node{d}" for d in range(4, 8)] + [
    "lines4",
    "lines6",
    "smooth",
    "x2g",
    "zero-form",
]


@pytest.mark.parametrize(
    "which, prime",
    [(w, p) for w in _CASES for p in ("small", *LARGE_PRIMES)]
    + [("node8", "small"), ("node9", "small")],
)
def test_stepped_hilbert_matches_direct_rank(which, prime, monkeypatch):
    # every N_T of the window spans the direct left null space of the
    # degree-T map, T = 0 .. k_max, and its row count is HF(T)
    if prime == "small":
        # the least prime the input guard admits for these degrees
        prime = _prime_above(sum(_case_input(PrimeField(32003), which).degrees))
    field = PrimeField(prime)
    Q = _case_input(field, which)
    steps = _record_steps(monkeypatch)
    table, _ = core._hilbert_window(Q)
    low = _least_degree(Q)
    assert sorted(steps[Q]) == list(range(low, table.k_max + 1))
    for T in range(table.k_max + 1):
        direct = kernel_basis(core.graded_map_matrix(Q, T).T, field)
        N = steps[Q].get(T, np.eye(dim_S(T), dtype=np.int64))
        assert N.shape == direct.shape, T
        assert rref(N, field)[0].tobytes() == rref(direct, field)[0].tobytes(), T
        assert table.values[T] == N.shape[0], T


@pytest.mark.parametrize(
    "gens",
    [
        ((2, 0, 0), (1, 1, 0), (0, 3, 0)),
        ((1, 0, 0), (0, 2, 0), (0, 1, 1)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
        ((2, 1, 0), (0, 4, 0), (1, 0, 3)),
    ],
)
@pytest.mark.parametrize("p", [13, *LARGE_PRIMES])
def test_stepped_hilbert_matches_monomial_oracle(gens, p, monomial_oracle):
    field = PrimeField(p)
    Q = QciInput.of(*(HomogPoly.monomial(g, field) for g in gens))
    for m, h in enumerate(core._hilbert_window(Q)[0].values):
        assert h == monomial_oracle(gens, m), m


def _stepped_engine(field, monkeypatch):
    Q = QciInput.of(*_node_partials(7, field, seed=3))
    steps = _record_steps(monkeypatch)
    table, _ = core._hilbert_window(Q)
    return Q, table, steps[Q]


def test_chain_spans_the_direct_left_null_space(field, monkeypatch):
    # the x-steps' chain of N_T, from the least degree up to k_max
    Q, table, steps = _stepped_engine(field, monkeypatch)
    assert sorted(steps) == list(range(_least_degree(Q), table.k_max + 1))
    for m, N in sorted(steps.items()):
        K = kernel_basis(core.graded_map_matrix(Q, m).T, field)
        assert rref(N, field)[0].tobytes() == rref(K, field)[0].tobytes(), m


def test_lone_rank_above_the_window_is_direct(field, monkeypatch):
    # after the x-steps, a degree above k_max (only a lone quotient_hilbert
    # call ranks one) is one plain rank, not a step from N_{k_max}
    Q, table, steps = _stepped_engine(field, monkeypatch)
    top = table.k_max + 1
    before = set(steps)
    calls = _record_eliminations(monkeypatch)
    v = core.rank_at(Q, top)
    assert calls == ["rank"]
    assert set(steps) == before
    assert v == rank(core.graded_map_matrix(Q, top), field)


def test_lone_hilbert_value_stays_direct(field, monkeypatch):
    # a lone value on the x-steps' top degree is one plain rank, equal to
    # the stepped one
    Q, table, steps = _stepped_engine(field, monkeypatch)
    top = max(steps)
    calls = _record_eliminations(monkeypatch)
    assert core.quotient_hilbert(Q, top) == table.values[top]
    assert calls == ["rank"]


def test_lone_syzygy_table_runs_the_plan(field):
    # the generator lifts read the tails V_m that the window returns,
    # passed in, so the lift scan depends on no earlier call
    Q = QciInput.of(*_node_partials(6, field, seed=1))
    table, tails = core._hilbert_window(Q)
    lifts = core._generator_degrees(Q, table.values, tails)
    assert lifts == core.analyze_qci(Q).generator_degrees


def _corrupt_step(monkeypatch, degree, corrupt, part=0):
    # left_null, with its N_T (or, with part=1, the binary state it carries
    # up, which corrupt changes in place) at one degree passed through
    # corrupt
    left_null = core.left_null

    def corrupted(Q, T, N_prev, carried):
        out = list(left_null(Q, T, N_prev, carried))
        if T == degree:
            out[part] = corrupt(out[part], Q.prime)
        return tuple(out)

    monkeypatch.setattr(core, "left_null", corrupted)


def _bump_entry(N, p):
    N[0, 0] = (N[0, 0] + 1) % p
    return N


def test_corrupted_lift_fails_the_annihilation_check(field, monkeypatch):
    # one wrong entry in the last step's N_{k_max}: it no longer annihilates
    # the degree-k_max map, which the check builds apart from the steps
    Q, table, _ = _stepped_engine(field, monkeypatch)
    _corrupt_step(monkeypatch, table.k_max, _bump_entry)
    with pytest.raises(InternalError, match="does not annihilate"):
        analyze_qci(Q)


@pytest.mark.parametrize(
    "which", ["node7", "lines6", "x2g", "zero-form", "x,y^2,y*z", "ci_qci(2, 4)"]
)
def test_annihilation_check_agrees_with_the_map_product(which, field, monkeypatch):
    # the check contracts N with each form's terms and builds no map; on
    # N_{k_max} moved by one unit at a random entry, or with a row replaced
    # by the sum of two (still an annihilator), it must fail exactly when
    # N times the built degree-k_max map is nonzero
    Q = _named_input(field, which)
    steps = _record_steps(monkeypatch)
    table, _ = core._hilbert_window(Q)
    N, M = steps[Q][table.k_max], core.graded_map_matrix(Q, table.k_max)
    rng = random.Random(table.k_max)
    changed = []
    for _ in range(8):
        bumped = N.copy()
        i, j = rng.randrange(N.shape[0]), rng.randrange(N.shape[1])
        bumped[i, j] = (bumped[i, j] + 1) % field.p
        changed.append(bumped)
    if N.shape[0] > 1:
        summed = N.copy()
        summed[0] = (N[0] + N[1]) % field.p
        changed.append(summed)
    for C in changed:
        nonzero = linalg.matmul(C, M, field.p).any()
        try:
            core._check_annihilation(Q, C, table.k_max)
        except InternalError:
            assert nonzero
        else:
            assert not nonzero


@pytest.mark.parametrize("which", ["node7", "nodal cubic", "x,y,x+y", "ci_qci(2, 4)"])
def test_corrupted_low_step_fails_the_prefix_rank_check(which, field, monkeypatch):
    # a step at a degree <= a+b+1 that loses a row of N_T: every later N
    # still annihilates its map, so only the top kernel's prefix ranks,
    # read off other matrices, see the wrong HF
    Q = _named_input(field, which)
    a, b, _ = Q.degrees
    for degree in (_least_degree(Q), a + b + 1):
        with monkeypatch.context() as mp:
            _corrupt_step(mp, degree, lambda N, p: N[1:])
            with pytest.raises(InternalError, match="prefix rank"):
                core._hilbert_window(Q)


def _binary_input(field, which):
    if which == "a<b<c":
        return _random_triple(field, (2, 3, 4))
    return _named_input(field, which)


# the x-step cases, a form divisible by x (x*y, x*z, x^2 have g_i = 0), a
# binary block x^2*y, x*y^2, z^3 that gains its rank late, and forms that
# enter at three different degrees
_BINARY_CASES = _CASES + ["x*y,x*z,x^2", "x^2*y,x*y^2,z^3", "a<b<c"]


def _birth_order(degrees, T):
    # the x-free multipliers (i, q) of degree T, sorted by the degree a_i + q
    # where each enters as z^q, ties by form
    found = [(i, q) for i, a in enumerate(degrees) for q in range(T - a + 1)]
    return sorted(found, key=lambda iq: (degrees[iq[0]] + iq[1], iq[0]))


def _binary_block(forms, T):
    # B_T from products: the column of multiplier (i, q), in birth order, is
    # y^(T-a_i-q) z^q g_i on the x-free monomials y^T .. z^T, the last T+1
    field = forms[0].field
    B = np.zeros((T + 1, 0), dtype=np.int64)
    for i, q in _birth_order([f.degree for f in forms], T):
        y_z = HomogPoly.monomial((0, T - forms[i].degree - q, q), field)
        column = (forms[i] * y_z).coeff_vector()[dim_S(T - 1) :]
        B = np.column_stack([B, column])
    return B


@pytest.mark.parametrize("which", _BINARY_CASES)
@pytest.mark.parametrize("prime", [13, *LARGE_PRIMES])
def test_carried_binary_echelon_matches_direct_elimination(which, prime, monkeypatch):
    # at every degree T of the window, the carried rows (b | e) against the
    # binary block B_T of the x-free multipliers in birth order, built from
    # products and eliminated directly: as
    # many pivot rows as rank(B_T), each 1 at its pivot column and 0 at the
    # others; syzygy rows spanning ker B_T (equal RREF); E B_T^T = [B_p; 0]
    # for the units E, which are invertible.  Where the guard refuses 13,
    # the least prime it admits stands in for it
    degrees = _binary_input(PrimeField(32003), which).degrees
    field = PrimeField(max(prime, _prime_above(sum(degrees))))
    Q = _binary_input(field, which)
    states = _record_steps(monkeypatch, part=1)
    table, _ = core._hilbert_window(Q)
    forms = [f for f in Q.polys if not f.is_zero]
    assert sorted(states[Q]) == list(range(_least_degree(Q), table.k_max + 1))
    for T, (C, piv) in states[Q].items():
        B = _binary_block(forms, T)
        n, r = B.shape[1], piv.size
        assert C.shape == (n, T + 1 + n), T
        assert r == rank(B, field), T
        assert np.array_equal(C[:r, piv], np.eye(r, dtype=np.int64)), T
        E = C[:, T + 1 :]
        assert rank(E, field) == n, T
        assert np.array_equal(linalg.matmul(E, B.T, field.p), C[:, : T + 1]), T
        assert not C[r:, : T + 1].any(), T
        Z, direct = E[r:], kernel_basis(B, field)
        assert Z.shape == direct.shape, T
        assert rref(Z, field)[0].tobytes() == rref(direct, field)[0].tobytes(), T


@pytest.mark.parametrize(
    "degrees",
    [(1, 1, 1), (1, 2, 2), (2, 2, 5), (2, 4, 4), (0, 3, 3), (1, 3, 6), (3, 3, 3)],
)
def test_raise_columns_follow_the_monomials(degrees):
    # the x-free multipliers of degree e, one block per form, as (form,
    # exponent triple) in monomial_basis order; one degree up, y and z
    # times each must land at the raise rule's columns and one column on,
    # and z^(m-a_i) at its new column.  m runs over blocks of size 0 and 1
    # (a form entering exactly at m) and longer ones
    def layout(m):
        return [
            (i, mono)
            for i, d in enumerate(degrees)
            for mono in monomial_basis(m - d)
            if mono[0] == 0
        ]

    for m in range(degrees[0] - 1, degrees[-1] + 4):
        up, new = core._raise_columns(degrees, m)
        old, place = layout(m - 1), {entry: j for j, entry in enumerate(layout(m))}
        assert up.tolist() == [place[(i, (0, y + 1, z))] for i, (_, y, z) in old]
        assert (up + 1).tolist() == [place[(i, (0, y, z + 1))] for i, (_, y, z) in old]
        assert new.tolist() == [
            place[(i, (0, 0, m - d))] for i, d in enumerate(degrees) if d <= m
        ]
        assert sorted(up.tolist() + new.tolist()) == list(range(len(place)))


@pytest.mark.parametrize(
    "degrees",
    [(1, 1, 1), (1, 2, 2), (2, 2, 5), (2, 4, 4), (0, 3, 3), (1, 3, 6), (3, 3, 3)],
)
def test_carry_places_each_multiplier_at_its_birth_rank(degrees):
    # form i's multiplier y^(e-q) z^q keeps one unit column for the window,
    # at the rank of (a_i + q, i); the carry grown to degree T uses only the
    # first sum_i max(T - a_i + 1, 0) of them, and its rows (b | e) satisfy
    # b = e B_T^T for B_T built from products in birth order.  The units E
    # are invertible, so B_T is the only such block: each new row's binary
    # part is z^q g_i, at its multiplier's column.  The degrees have ties
    # (forms entering together) and a form of degree 0
    field = PrimeField(32003)
    rng = random.Random(sum(degrees))
    forms = [random_homog(d, field, rng) for d in degrees]
    k_max = max(sum(degrees) - 2, 0) + 3
    carried = core._Carried(forms, k_max)
    order = _birth_order(degrees, k_max)
    for i, cols in enumerate(carried.columns):
        assert cols.tolist() == [order.index((i, q)) for q in range(cols.size)]
    units = carried.rows.shape[1] - carried.syzygies.shape[1]
    for T in range(min(degrees), k_max + 1):
        core._carry(field, T, carried)
        n = sum(max(T - a + 1, 0) for a in degrees)
        assert set(order[:n]) == set(_birth_order(degrees, T)), T
        assert not carried.rows[: carried.r, units + n :].any(), T
        assert not carried.syzygies[: carried.s, n:].any(), T
        C, _ = _carried_state(T, carried)
        E = C[:, T + 1 :]
        assert E.shape == (n, n) and rank(E, field) == n, T
        B = _binary_block(forms, T)
        assert np.array_equal(linalg.matmul(E, B.T, field.p), C[:, : T + 1]), T


def _lose_last_syzygy(carried, p):
    # the newest carried syzygy row set to 0: the steps above no longer
    # impose that syzygy
    carried.syzygies[carried.s - 1] = 0
    return carried


@pytest.mark.parametrize(
    "which, degree, check",
    # node7 has a+b+1 = 13, lines6 a+b+1 = 11
    [("node7", d, "prefix rank") for d in (8, 9, 10)]
    + [("lines6", d, "does not annihilate") for d in (12, 13, 14, 15)],
)
def test_lost_carried_syzygy_fails_a_check(which, degree, check, field, monkeypatch):
    # a syzygy row lost from the carried state adds functionals that do not
    # kill the ideal: at a degree <= a+b+1 the top kernel's prefix ranks see
    # the wrong HF, above it the annihilation check of N_{k_max} fails
    Q = _named_input(field, which)
    a, b, _ = Q.degrees
    assert (degree <= a + b + 1) == (check == "prefix rank")
    _corrupt_step(monkeypatch, degree, _lose_last_syzygy, part=1)
    with pytest.raises(InternalError, match=check):
        core._hilbert_window(Q)


def _bump_first_syzygy(carried, p):
    # the first carried syzygy row z plus the units e of the first pivot
    # row (b | e): (z + e) B^T = b is not 0, so the steps above impose a
    # wrong syzygy
    units = carried.rows.shape[1] - carried.syzygies.shape[1]
    carried.syzygies[0] += carried.rows[0, units:]
    carried.syzygies[0] %= p
    return carried


@pytest.mark.parametrize("degree", [6, 7, 8, 9])
def test_wrong_carried_syzygy_above_the_top_kernel_fails(degree, field, monkeypatch):
    # ci_qci(2, 4) has degrees (2, 3, 4), a+b+1 = 6 and k_max = 10.  Above
    # a+b+1 no check of the window bounds HF from below: the annihilation
    # check passes any subspace of the true N_{k_max}, and the prefix ranks
    # stop at a+b+1, so the window returns values below t (after T = 6,
    # 1, 3, 5, 7, 8, 8, 8, 7, 6, 5, 4).  Only the dimension tag's rule on
    # the falling tail, "neither constant nor strictly increasing", raises
    Q = family("ci_qci", field, a=2, c=4)
    a, b, _ = Q.degrees
    assert (a + b + 1, core._hilbert_window(Q)[0].k_max) == (6, 10)
    _corrupt_step(monkeypatch, degree, _bump_first_syzygy, part=1)
    with pytest.raises(InternalError, match="neither constant nor strictly increasing"):
        analyze_qci(Q)


def test_engine_report_matches_direct_ranks(field, monkeypatch):
    Q, _, _ = _stepped_engine(field, monkeypatch)
    values = analyze_qci(Q).hilbert.values
    assert list(values) == [_direct_hilbert(Q, k) for k in range(len(values))]


def _record_engines(monkeypatch):
    """A list that every Hilbert window made from here on is appended to.

    Each entry holds the input ``Q``, its degrees ``a, b, c``, the window's
    ``table`` and ``tails``, and ``ranked``: the degrees it keeps a tail
    V_m for and every degree passed to ``rank_at``, ``kernel_at`` or
    ``left_null`` from its start on.  The wrapped originals still make each
    elimination under their own caller names.
    """
    engines = []
    hilbert_window = core._hilbert_window

    def window(Q):
        eng = SimpleNamespace(Q=Q, ranked=set())
        eng.a, eng.b, eng.c = Q.degrees
        engines.append(eng)
        eng.table, eng.tails = hilbert_window(Q)
        eng.ranked.update(eng.tails)
        return eng.table, eng.tails

    def ranking(fn):
        def wrapper(Q, m, *prev):
            engines[-1].ranked.add(m)
            return fn(Q, m, *prev)

        return wrapper

    monkeypatch.setattr(core, "_hilbert_window", window)
    for name in ("rank_at", "kernel_at", "left_null"):
        monkeypatch.setattr(core, name, ranking(getattr(core, name)))
    return engines


def _analyze_recording(Q, monkeypatch):
    """analyze_qci(Q), the window it made, and every matrix it eliminated."""
    seen = []

    def recording(fn):
        def wrapper(M, field):
            seen.append(np.array(M))
            return fn(M, field)

        return wrapper

    monkeypatch.setattr(core, "rank", recording(core.rank))
    monkeypatch.setattr(core, "kernel_basis", recording(core.kernel_basis))
    engines = _record_engines(monkeypatch)
    report = analyze_qci(Q)
    (eng,) = engines
    return report, eng, seen


def _columns(A):
    # a matrix's nonzero columns in sorted order: the same for any column
    # order, and with the zero forms' all-zero blocks left out
    C = A[:, A.any(axis=0)].T
    return C[np.lexsort(C.T[::-1])] if C.size else C


def _eliminations_per_degree(eng, seen):
    # how often each degree's map, or its transpose, was eliminated, in any
    # column order and with or without its zero forms' blocks
    cols = [(_columns(A), _columns(A.T)) for A in seen]
    counts = {}
    for m in range(eng.table.k_max + 2):
        M = _columns(core.graded_map_matrix(eng.Q, m))
        counts[m] = sum(
            (A.shape == M.shape and np.array_equal(A, M))
            or (At.shape == M.shape and np.array_equal(At, M))
            for A, At in cols
        )
    return counts


def _named_input(field, which):
    if which == "nodal cubic":
        return QciInput.of(*parse_poly("y^2*z - x^3 - x^2*z", field).partials())
    if which == "ci_qci(2, 4)":
        return family("ci_qci", field, a=2, c=4)
    if "," in which:
        return QciInput.of(*(parse_poly(s, field) for s in which.split(",")))
    return _case_input(field, which)


@pytest.mark.parametrize(
    "which, both",
    # no degree keeps two kernels, not even for c <= 2
    [
        (which, set())
        for which in (
            "node9", "lines6", "x,y,x+y", "nodal cubic", "node7", "ci_qci(2, 4)"
        )
    ],
)
def test_each_map_is_eliminated_once(which, both, field, monkeypatch):
    # the window builds one graded map, at a+b+1, and eliminates it and the
    # x-steps' blocks Y^T, none of which is a graded map, not even the
    # first step's, with N the identity
    built = []
    graded_map_matrix = core.graded_map_matrix

    def building(Q, m):
        built.append(m)
        return graded_map_matrix(Q, m)

    monkeypatch.setattr(core, "graded_map_matrix", building)
    report, eng, seen = _analyze_recording(_named_input(field, which), monkeypatch)
    monkeypatch.setattr(core, "graded_map_matrix", graded_map_matrix)
    assert report.dimension_class == "dim0"
    top = eng.a + eng.b + 1
    assert built == [top]
    counts = _eliminations_per_degree(eng, seen)
    twice = {m for m, n in counts.items() if n > 1}
    assert twice == both
    direct = {m for m, n in counts.items() if n}
    assert direct == {top}


@pytest.mark.parametrize(
    "which", ["lines6", "x,y,x+y", "nodal cubic", "ci_qci(2, 4)", "node7"]
)
def test_nothing_is_ranked_above_the_window(which, field, monkeypatch):
    # the saturation and the resolution check read only kernels that the
    # Hilbert window already holds
    report, eng, _ = _analyze_recording(_named_input(field, which), monkeypatch)
    assert report.dimension_class == "dim0"
    assert max(eng.ranked) <= report.hilbert.k_max


def _random_triple(field, degrees):
    rng = random.Random(sum(degrees))
    return QciInput.of(*(random_homog(d, field, rng) for d in degrees))


def test_eliminations_happen_only_where_kernels_are_kept(field, monkeypatch):
    # the Hilbert window makes its eliminations through kernel_at and
    # left_null, each a kernel, and the plain rank of rank_at is left to
    # lone values.  The generator lifts rank the tails V_m it returned, and
    # the saturation only reads ranks, so no other stage eliminates
    calls = set()

    def recording(fn):
        def wrapper(M, field):
            calls.add((fn.__name__, sys._getframe(1).f_code.co_name))
            return fn(M, field)

        return wrapper

    monkeypatch.setattr(core, "rank", recording(core.rank))
    monkeypatch.setattr(core, "kernel_basis", recording(core.kernel_basis))
    nodal = QciInput.of(*parse_poly("y^2*z - x^3 - x^2*z", field).partials())
    inputs = [_case_input(field, f"node{d}") for d in range(5, 10)]
    inputs += [_case_input(field, "lines6"), nodal]
    inputs.append(QciInput.of(*(parse_poly(s, field) for s in ("x", "y", "x+y"))))
    for Q in inputs:
        assert analyze_qci(Q).dimension_class == "dim0"
    for m in range(4):
        core.saturation_dim(inputs[2], m)
        core.h1_E(nodal, m - 2)
    assert calls == {
        ("kernel_basis", "kernel_at"),
        ("kernel_basis", "left_null"),
        ("rank", "_generator_degrees"),
    }
    callers = {caller for _, caller in calls}
    # perfbench's trace files linalg time under its caller's stage
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert callers <= set(spans.STAGES)


def _full_stack_saturation(Q, m):
    # dim S_m minus the rank of every column-shifted copy of N_{m+e}, held
    # whole: I is saturated from k* on, so a degree m+e above the anchor
    # gives (I : m^e)_m, the saturation in degree m
    if m < 0:
        return 0
    anchor = max(sum(Q.degrees) - 2, 0)
    e = max(1, anchor + 1 - m)
    N = kernel_basis(core.graded_map_matrix(Q, m + e).T, Q.field)
    stack = np.vstack([N[:, cols] for cols in product_positions(m, e)])
    return dim_S(m) - rank(stack, Q.field)


def _seeded_triple(field, seed):
    # forms of degrees <= 4 through one to three coordinate points (no pure
    # power of the points' variables), redrawn until the scheme is finite
    rng = random.Random(seed)
    while True:
        degrees = sorted(rng.randrange(1, 5) for _ in range(3))
        points = rng.sample(range(3), rng.randrange(1, 4))
        polys = []
        for d in degrees:
            f = random_homog(d, field, rng)
            for i in points:
                power = tuple(d if j == i else 0 for j in range(3))
                f = f - HomogPoly.monomial(power, field, f.coeffs.get(power, 0))
            polys.append(f)
        if any(f.is_zero for f in polys):
            continue
        Q = QciInput.of(*polys)
        if core.dimension_class(Q)[0] == "dim0":
            return Q


def _oracle_input(field, which):
    if which.startswith("triple"):
        return _seeded_triple(field, int(which[6:]))
    if which == "product":
        rng = random.Random(5)
        f = random_homog(2, field, rng) * random_homog(3, field, rng)
        return QciInput.of(*f.partials())
    return _named_input(field, which)


# inputs whose degrees the guard refuses at p = 13
_ONLY_LARGE = {"lines6", "lines7", "lines8", "node6"}


@pytest.mark.parametrize(
    "which",
    [f"triple{i}" for i in range(10)]
    + ["node4", "node5", "node6", "lines4", "lines5", "lines6", "lines7"]
    + ["lines8", "product", "nodal cubic", "ci_qci(2, 4)", "x,y,x+y"],
)
def test_saturation_matches_the_full_stack(which):
    for p in (32003,) if which in _ONLY_LARGE else (13, 32003):
        field = PrimeField(p)
        Q = _oracle_input(field, which)
        table, _ = core._hilbert_window(Q)
        assert core._dimension_tag(table)[0] == "dim0"
        k_max = table.k_max
        c = Q.degrees[2]
        for m in range(-2, k_max + 3):
            sat = _full_stack_saturation(Q, m)
            assert core._saturation_dim(Q, table.values, m) == sat, (p, m)
            ideal = rank(core.graded_map_matrix(Q, m), field) if m >= 0 else 0
            assert core._h1E(Q, table.values, m - c) == sat - ideal, (p, m)


def _record_eliminations(monkeypatch):
    """A list of the names of core's elimination calls made from here on."""
    calls = []

    def recording(fn):
        def wrapper(M, field):
            calls.append(fn.__name__)
            return fn(M, field)

        return wrapper

    monkeypatch.setattr(core, "rank", recording(core.rank))
    monkeypatch.setattr(core, "kernel_basis", recording(core.kernel_basis))
    return calls


@pytest.mark.parametrize(
    "which", ["lines6", "x,y,x+y", "nodal cubic", "ci_qci(2, 4)", "node7"]
)
def test_lone_saturation_call_eliminates_nothing(which, field, monkeypatch):
    # the saturation reads only the window's ranks, at any degree
    Q = _named_input(field, which)
    table = core._finite_window(Q)
    t = table.values[-1]
    m = table.k_max + 5
    calls = _record_eliminations(monkeypatch)
    assert core._saturation_dim(Q, table.values, m) == dim_S(m) - t
    assert calls == []


@pytest.mark.parametrize(
    "which", ["lines6", "x,y,x+y", "nodal cubic", "ci_qci(2, 4)", "node7"]
)
def test_h1_above_the_window_builds_no_map(which, field, monkeypatch):
    # above k_max HF(m) = t, so h1_E there is arithmetic on the window's
    # values and equals the saturation less a rank of the map
    Q = _named_input(field, which)
    table = core._finite_window(Q)
    k_max, c = table.k_max, Q.degrees[2]
    direct = core.graded_map_matrix
    built = []

    def recording(Q, m):
        built.append(m)
        return direct(Q, m)

    monkeypatch.setattr(core, "graded_map_matrix", recording)
    ks = range(k_max - c - 1, k_max - c + 5)
    h1 = [core.h1_E(Q, k) for k in ks]
    assert max(built) <= k_max
    expected = [
        core._saturation_dim(Q, table.values, k + c) - rank(direct(Q, k + c), field)
        for k in ks
    ]
    assert h1 == expected
    assert h1[2:] == [0, 0, 0, 0]


def _window_triple(field, kind, seed):
    # forms of degrees <= 4: random, a third form in the ideal of the other
    # two, through coordinate points, or sharing a linear factor
    rng = random.Random(seed)
    if kind == "points":
        return _seeded_triple(field, seed)

    def form(d):
        while True:
            f = random_homog(d, field, rng)
            if not f.is_zero:
                return f

    if kind == "factor":
        line = form(1)
        return QciInput.of(*(line * form(rng.randrange(0, 4)) for _ in range(3)))
    a, b, c = sorted(rng.randrange(1, 5) for _ in range(3))
    fa, fb = form(a), form(b)
    if kind == "dependent":
        return QciInput.of(fa, fb, fa * form(c - a) + fb * form(c - b))
    return QciInput.of(fa, fb, form(c))


_MONOMIAL_IDEALS = {
    "x2,xy,y3": ((2, 0, 0), (1, 1, 0), (0, 3, 0)),
    "x,y2,yz": ((1, 0, 0), (0, 2, 0), (0, 1, 1)),
    "yz,xz,xy": ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    "x3,y3,z3": ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
}


def _skip_input(field, which):
    kind, _, seed = which.partition("-")
    if kind in ("random", "dependent", "points", "factor"):
        return _window_triple(field, kind, int(seed))
    if which in _MONOMIAL_IDEALS:
        gens = _MONOMIAL_IDEALS[which]
        return QciInput.of(*(HomogPoly.monomial(g, field) for g in gens))
    return _named_input(field, which)


# inputs whose degrees the guard refuses at p = 13
_SKIP_ONLY_LARGE = _ONLY_LARGE | {"node7", "node8", "node9", "zero-form"}


@pytest.mark.parametrize(
    "which",
    [f"{kind}-{seed}" for kind in ("random", "dependent", "points", "factor")
     for seed in range(4)]
    + [f"node{d}" for d in range(5, 10)] + [f"lines{d}" for d in range(4, 9)]
    + ["zero-form", *_MONOMIAL_IDEALS, "nodal cubic", "ci_qci(2, 4)"],
)
def test_skipped_window_kernels_match_direct_elimination(which, tails_oracle):
    # every window degree below a+b+1 keeps the x-free tail V_m of K_m,
    # read off the kernel of the degree-(a+b+1) map without an elimination
    # of its own; it must span the x-free coordinates of the kernel a
    # direct elimination gives.  a+b+1 itself keeps none
    for p in (32003,) if which in _SKIP_ONLY_LARGE else (13, 32003):
        field = PrimeField(p)
        Q = _skip_input(field, which)
        a, b, c = Q.degrees
        table, tails = core._hilbert_window(Q)
        window = range(max(a - 1, 0), a + b + 2)
        assert sorted(tails) == list(window[:-1])
        for m in window[:-1]:
            tails_oracle(Q, m, tails[m])
        # x times a syzygy is a syzygy one degree up, so h^0(E(k)) never drops
        h0 = [core._h0E(Q, table.values, m - c) for m in window]
        assert h0 == sorted(h0), p


def test_no_window_degree_below_the_least_syzygy_is_eliminated(field, monkeypatch):
    # of the syzygy window only its top a+b+1 is eliminated as a map; the
    # first x-step, at a with N_{a-1} the identity, eliminates only the
    # binary rows of the forms, so neither the degrees below the least
    # syzygy r+c nor those above it are
    report, eng, seen = _analyze_recording(_case_input(field, "node9"), monkeypatch)
    counts = _eliminations_per_degree(eng, seen)
    first = report.r + eng.c - 1  # the topmost injective degree
    top = eng.a + eng.b + 1
    assert eng.a - 1 < eng.a < first < top
    assert counts[top] == 1
    assert not any(counts[m] for m in range(eng.a - 1, top))


@pytest.mark.parametrize("which", ["node9", "lines6", "1,x,y", "x,y,x+y"])
def test_nothing_is_built_below_the_syzygy_window(which, field, monkeypatch):
    # below degree a-1 the map has no columns: a lone value there builds and
    # eliminates nothing, and analyze_qci ranks no such degree
    Q = _named_input(field, which)
    lo = max(Q.degrees[0] - 1, 0)
    calls = _record_eliminations(monkeypatch)
    built = []
    mult_matrix = core.mult_matrix

    def recording(g, src, *cols):
        built.append(src)
        return mult_matrix(g, src, *cols)

    monkeypatch.setattr(core, "mult_matrix", recording)
    for k in range(lo):
        assert core.quotient_hilbert(Q, k) == dim_S(k)
    assert calls == [] and built == []
    engines = _record_engines(monkeypatch)
    analyze_qci(Q)
    (eng,) = engines
    assert min(eng.ranked) >= lo


@pytest.mark.parametrize("which", ["node7", "nodal cubic", "ci_qci(2, 4)", "x,y,x+y"])
def test_lone_window_value_eliminates_one_map(which, field, monkeypatch):
    # a lone value in the syzygy window is one plain rank of its own map
    Q = _named_input(field, which)
    a, b, _ = Q.degrees
    calls = _record_eliminations(monkeypatch)
    for m in range(max(a - 1, 0), a + b + 2):
        calls.clear()
        assert core.quotient_hilbert(Q, m) == _direct_hilbert(Q, m)
        assert len(calls) == 1, m


def _pinned_analysis(field, which):
    if which == "lines8":
        return lambda: analyze_curve(family("lines_through_point", field, d=8))
    if which == "triangle":
        return lambda: analyze_curve(CurveInput(parse_poly("x*y*z", field)))
    if which == "triple(2, 3, 4)":
        Q = _random_triple(field, (2, 3, 4))
    else:
        Q = _named_input(field, which)
    return lambda: analyze_qci(Q)


# The elimination plan's work on five fixed inputs: the number of echelon
# passes and the pivots they find.  A change to the plan must update these
# figures and say why; a refactor that keeps the plan keeps them.
@pytest.mark.parametrize(
    "which, calls, pivots",
    [
        ("node7", 14, 143),
        ("lines8", 25, 224),
        ("triangle", 9, 40),
        ("x,y^2,y*z", 8, 26),
        ("triple(2, 3, 4)", 5, 33),
    ],
)
def test_elimination_work_is_pinned(which, calls, pivots, field, monkeypatch):
    analysis = _pinned_analysis(field, which)
    seen = []
    echelon = linalg._echelon

    def counting(M, p, *rest):
        R, found = echelon(M, p, *rest)
        seen.append(len(found))
        return R, found

    monkeypatch.setattr(linalg, "_echelon", counting)
    analysis()
    assert (len(seen), sum(seen)) == (calls, pivots)


@pytest.mark.parametrize(
    "which",
    ["node7", "lines6", "nodal cubic", "ci_qci(2, 4)", "x,y,x+y", "1,x,y", "zero-form"]
    + ["x2g", "x,y^2,y*z"],
)
def test_step_pivots_sum_to_the_top_rank(which, field, monkeypatch):
    # the step into T has the system [N_{T-1} A; B_T], of rank
    # rank(Y_T) + rank(B_T) = HF(T-1) + T + 1 - HF(T); it eliminates Y_T^T
    # (skipped where Y_T is 0) and carries rank(B_T) as its pivot count, so
    # from N the identity below the least degree these telescope to
    # dim S_{k_max} - HF(k_max), the rank of the degree-k_max map
    Q = _named_input(field, which)
    y_ranks = []
    kernel = core.kernel_basis

    def counting(M, field):
        K = kernel(M, field)
        if sys._getframe(1).f_code.co_name == "left_null":
            y_ranks.append(M.shape[1] - K.shape[0])
        return K

    monkeypatch.setattr(core, "kernel_basis", counting)
    states = _record_steps(monkeypatch, part=1)
    table, _ = core._hilbert_window(Q)
    k_max = table.k_max
    assert sorted(states[Q]) == list(range(_least_degree(Q), k_max + 1))
    total = sum(y_ranks) + sum(piv.size for _, piv in states[Q].values())
    assert total == dim_S(k_max) - table.values[k_max]
    assert total == rank(core.graded_map_matrix(Q, k_max), field)
