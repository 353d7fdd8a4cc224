"""The inverse-system chain that carries I_m^perp up the Hilbert window.

Every stepped Hilbert value is compared with the direct rank of the same
degree's map, and on monomial ideals with the counting oracle of
conftest.py.  The step helpers are called directly, so these checks do not
depend on where the engine's cost rule starts the chain.

The engine eliminates each degree's map once: ``_Analysis.rank_at`` keeps
the one kernel a later stage reads (K_m in the syzygy window, N_m on the
chain), so ``kernel_at`` only reads it, ``saturation_dim`` reads only
ranks of the Hilbert window, and ``analyze_qci`` ranks nothing above
k_max.  The chain starts above the syzygy window, so it never holds a
degree whose K_m the syzygy stage needs.  A window degree below an
injective one is injective and is not eliminated at all; its empty K_m is
compared byte for byte with a direct kernel.
A stepped N is a basis of I_m^perp but not the canonical one, so it is
compared with a direct kernel through the RREF of both.
The saturation, read off the window by Riemann-Roch and Serre duality, is
compared in every degree with the common kernel of the shifted copies of
a directly eliminated left null space.
"""

import random
import sys

import numpy as np
import pytest

from qci import (
    HomogPoly,
    InternalError,
    PrimeField,
    QciInput,
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
from qci import core
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


def _stepped_hilbert(Q):
    """HF(m) for m in [m0, k_max] by stepping N_m0 up with the core helpers."""
    eng = core._Analysis(Q)
    p = Q.prime
    m0 = max(Q.degrees[2], 1)
    N = kernel_basis(eng.map_at(m0).T, Q.field)
    values = {m0: N.shape[0]}
    for m in range(m0, eng.k_star + 3):
        C = kernel_basis(core._contraction_system(N, m, p), Q.field)
        N = core._integrate(C, N, m, p)
        assert not (N @ eng.map_at(m + 1) % p).any()
        values[m + 1] = N.shape[0]
    return values


def _direct_hilbert(Q, m):
    return dim_S(m) - rank(core._Analysis(Q).map_at(m), Q.field)


def _check_against_direct(Q):
    stepped = _stepped_hilbert(Q)
    assert len(stepped) > 1
    for m, h in stepped.items():
        assert h == _direct_hilbert(Q, m), m


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
def test_stepped_hilbert_matches_direct_rank(which, prime):
    if prime == "small":
        # the least prime the input guard admits for these degrees
        prime = _prime_above(sum(_case_input(PrimeField(32003), which).degrees))
    _check_against_direct(_case_input(PrimeField(prime), which))


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
    for m, h in _stepped_hilbert(Q).items():
        assert h == monomial_oracle(gens, m), m


def _chained_engine(field):
    Q = QciInput.of(*_node_partials(7, field, seed=3))
    eng = core._Analysis(Q)
    eng.dimension()
    assert any(m - 1 in eng._chain for m in eng._chain), (
        "the cost rule should start the chain on a dense node and step it"
    )
    return Q, eng


def test_chain_spans_the_direct_left_null_space(field):
    Q, eng = _chained_engine(field)
    for m, N in sorted(eng._left.items()):
        K = kernel_basis(eng.map_at(m).T, field)
        assert rref(N, field)[0].tobytes() == rref(K, field)[0].tobytes(), m


def test_left_null_steps_above_the_window(field):
    # after the chain, a degree above k_max (only a lone h1_E call ranks
    # one) is stepped, not eliminated afresh
    Q, eng = _chained_engine(field)
    top = eng.dimension()[2].k_max + 1
    eng.rank_at(top)
    N = eng._left[top]
    assert top in eng._chain and top - 1 in eng._chain
    K = kernel_basis(eng.map_at(top).T, field)
    assert rref(N, field)[0].tobytes() == rref(K, field)[0].tobytes()


def test_lone_hilbert_value_stays_direct(field):
    Q, eng = _chained_engine(field)
    top = max(eng._left)
    fresh = core._Analysis(Q)
    assert fresh.hilbert_value(top) == eng.hilbert_value(top)
    assert not fresh._chain


def test_no_step_below_the_top_generator_degree(field):
    # below c, I_{m+1} is not S_1 * I_m: the forms of degree c are new there
    Q, eng = _chained_engine(field)
    c = Q.degrees[2]
    fresh = core._Analysis(Q)
    # a held N_{c-1} and HF(c-1), as a step into degree c would read them
    N = kernel_basis(fresh.map_at(c - 1).T, field)
    fresh._left[c - 1] = N
    fresh._ranks[c - 1] = dim_S(c - 1) - N.shape[0]
    assert fresh.rank_at(c) == eng.rank_at(c) == 3


def test_corrupted_lift_fails_the_annihilation_check(field, monkeypatch):
    Q, eng = _chained_engine(field)
    k_max = eng.dimension()[2].k_max
    integrate = core._integrate

    def corrupted(C, N, m, p):
        out = integrate(C, N, m, p)
        if m + 1 == k_max:
            out = out.copy()
            out[0, 0] = (out[0, 0] + 1) % p
        return out

    monkeypatch.setattr(core, "_integrate", corrupted)
    with pytest.raises(InternalError, match="does not annihilate"):
        analyze_qci(Q)


def test_engine_report_matches_direct_ranks(field):
    Q, _ = _chained_engine(field)
    values = analyze_qci(Q).hilbert.values
    assert list(values) == [_direct_hilbert(Q, k) for k in range(len(values))]


def _record_engines(monkeypatch):
    """A list that every engine built from here on is appended to."""
    engines = []

    class Recorded(core._Analysis):
        def __init__(self, Q):
            super().__init__(Q)
            engines.append(self)

    monkeypatch.setattr(core, "_Analysis", Recorded)
    return engines


def _analyze_recording(Q, monkeypatch):
    """analyze_qci(Q), the engine it ran on, and every matrix it eliminated."""
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


def _eliminations_per_degree(eng, seen):
    counts = {}
    for m in range(eng.anchor + 5):
        M = eng.map_at(m)
        counts[m] = sum(
            (A.shape == M.shape and np.array_equal(A, M))
            or (A.shape == M.T.shape and np.array_equal(A, M.T))
            for A in seen
        )
    return counts


def _skipped_window_degrees(eng):
    # the syzygy window's degrees below its topmost injective one
    window = range(max(eng.a - 1, 0), eng.a + eng.b + 2)
    injective = [m for m in window if eng._ranks[m] == eng._cols(m)]
    return set(range(window.start, max(injective))) if injective else set()


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
    [
        # the chain starts above the syzygy window: no degree needs both
        ("node9", set()),
        # the pencil of lines stays direct: no degree keeps N_m
        ("lines6", set()),
        # c = 1: the top degrees 2, 3 lie in the syzygy window [0, 3], which
        # keeps K_m there, and no degree keeps N_m
        ("x,y,x+y", set()),
        # c = 2: the first top degree a+b+1 is the syzygy window's last
        ("nodal cubic", set()),
        # the chain starts at a+b+2 = 14, just above the syzygy window
        ("node7", set()),
    ],
)
def test_each_map_is_eliminated_once(which, both, field, monkeypatch):
    report, eng, seen = _analyze_recording(_named_input(field, which), monkeypatch)
    assert report.dimension_class == "dim0"
    counts = _eliminations_per_degree(eng, seen)
    # no degree keeps two kernels, K_m and N_m, not even for c <= 2
    twice = {m for m, n in counts.items() if n > 1}
    assert twice == both
    assert all(n <= 1 for n in counts.values())
    # every degree the engine ranked without a step was eliminated, except
    # the window degrees below the topmost injective one, none of which was
    stepped = {m for m in eng._chain if m - 1 in eng._chain}
    skipped = _skipped_window_degrees(eng)
    assert all(counts[m] for m in eng._ranks if m not in stepped | skipped)
    assert not any(counts[m] for m in skipped)
    if which.startswith("node"):
        assert any(m - 1 in eng._chain for m in eng._chain)
    if which == "lines6":
        assert not eng._chain


@pytest.mark.parametrize(
    "which", ["lines6", "x,y,x+y", "nodal cubic", "ci_qci(2, 4)", "node7"]
)
def test_nothing_is_ranked_above_the_window(which, field, monkeypatch):
    # the saturation and the resolution check read only kernels that the
    # Hilbert window already holds
    report, eng, _ = _analyze_recording(_named_input(field, which), monkeypatch)
    assert report.dimension_class == "dim0"
    assert max(eng._ranks) <= report.hilbert.k_max


def _random_triple(field, degrees):
    rng = random.Random(sum(degrees))
    return QciInput.of(*(random_homog(d, field, rng) for d in degrees))


@pytest.mark.parametrize(
    "which",
    [f"node{d}" for d in range(5, 10)] + [(4, 4, 5), (5, 5, 5), (2, 2, 7), (3, 4, 6)],
    ids=str,
)
def test_chain_starts_above_the_syzygy_window(which, field):
    # the syzygy stage reads K_m over [a-1, a+b+1]; a chain degree keeps
    # only N_m, so the chain must start above that window and at c or later
    if isinstance(which, str):
        Q = _case_input(field, which)
    else:
        Q = _random_triple(field, which)
    eng = core._Analysis(Q)
    eng.dimension()
    a, b, c = Q.degrees
    assert eng._chain
    assert min(eng._chain) >= max(c, a + b + 2)


def test_eliminations_happen_only_where_kernels_are_kept(field, monkeypatch):
    # kernel_at only reads what rank_at kept, and the saturation only
    # reads ranks, so no other stage eliminates
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
    callers = {caller for _, caller in calls}
    assert callers == {"rank_at", "_generator_degrees"}


def _full_stack_saturation(Q, m):
    # dim S_m minus the rank of every column-shifted copy of N_{m+e}, held
    # whole: I is saturated from k* on, so a degree m+e above the anchor
    # gives (I : m^e)_m, the saturation in degree m
    if m < 0:
        return 0
    eng = core._Analysis(Q)
    e = max(1, eng.anchor + 1 - m)
    N = kernel_basis(eng.map_at(m + e).T, Q.field)
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
        if core._Analysis(Q).dimension()[0] == "dim0":
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
        eng = core._Analysis(Q)
        assert eng.dimension()[0] == "dim0"
        k_max = eng.dimension()[2].k_max
        c = Q.degrees[2]
        for m in range(-2, k_max + 3):
            sat = _full_stack_saturation(Q, m)
            assert eng.saturation_dim(m) == sat, (p, m)
            ideal = rank(eng.map_at(m), field) if m >= 0 else 0
            assert eng.h1E(m - c) == sat - ideal, (p, m)


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
    eng = core._Analysis(Q)
    t = eng.require_dim0()
    m = eng.dimension()[2].k_max + 5
    calls = _record_eliminations(monkeypatch)
    assert eng.saturation_dim(m) == dim_S(m) - t
    assert calls == []


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
def test_skipped_window_kernels_match_direct_elimination(which):
    # a window degree below an injective one keeps the empty K_m without
    # elimination; it must be the kernel a direct elimination gives
    for p in (32003,) if which in _SKIP_ONLY_LARGE else (13, 32003):
        field = PrimeField(p)
        eng = core._Analysis(_skip_input(field, which))
        eng.dimension()
        window = range(max(eng.a - 1, 0), eng.a + eng.b + 2)
        for m in window:
            K, kept = kernel_basis(eng.map_at(m), field), eng.kernel_at(m)
            assert (kept.shape, kept.dtype) == (K.shape, K.dtype), (p, m)
            assert kept.tobytes() == K.tobytes(), (p, m)
        # x times a syzygy is a syzygy one degree up, so h^0(E(k)) never drops
        h0 = [eng.h0E(m - eng.c) for m in window]
        assert h0 == sorted(h0), p


def test_no_window_degree_below_the_least_syzygy_is_eliminated(field, monkeypatch):
    report, eng, seen = _analyze_recording(_case_input(field, "node9"), monkeypatch)
    counts = _eliminations_per_degree(eng, seen)
    first = report.r + eng.c - 1  # the topmost injective degree
    assert first > eng.a - 1
    assert counts[first] == 1
    assert not any(counts[m] for m in range(eng.a - 1, first))


def _pencil(field, seed):
    # three linear forms in x and y alone: the point [0:0:1]
    rng = random.Random(seed)
    return QciInput.of(
        *(
            HomogPoly(1, {(1, 0, 0): rng.randrange(1, field.p),
                          (0, 1, 0): rng.randrange(1, field.p)}, field)
            for _ in range(3)
        )
    )


@pytest.mark.parametrize("which", ["x,y,x+y", "pencil-0", "pencil-1", "node7"])
def test_chain_never_starts_at_k_max(which, field, monkeypatch):
    # no stage reads degree k_max+1, so an N_{k_max} from a chain starting
    # at k_max would be read by nothing
    if which.startswith("pencil"):
        Q = _pencil(field, int(which[7:]))
    else:
        Q = _named_input(field, which)
    engines = _record_engines(monkeypatch)
    report = analyze_qci(Q)
    (eng,) = engines
    assert report.dimension_class == "dim0"
    assert not eng._chain or min(eng._chain) < report.hilbert.k_max


@pytest.mark.parametrize("which", ["node9", "lines6", "1,x,y", "x,y,x+y"])
def test_nothing_is_built_below_the_syzygy_window(which, field, monkeypatch):
    # below degree a-1 the map has no columns: a lone value there builds and
    # eliminates nothing, and analyze_qci ranks no such degree
    Q = _named_input(field, which)
    lo = max(Q.degrees[0] - 1, 0)
    calls = _record_eliminations(monkeypatch)
    built = []
    mult_matrix = core.mult_matrix

    def recording(g, src):
        built.append(src)
        return mult_matrix(g, src)

    monkeypatch.setattr(core, "mult_matrix", recording)
    for k in range(lo):
        assert core.quotient_hilbert(Q, k) == dim_S(k)
    assert calls == [] and built == []
    engines = _record_engines(monkeypatch)
    analyze_qci(Q)
    (eng,) = engines
    assert min(eng._ranks) >= lo


@pytest.mark.parametrize("which", ["node7", "nodal cubic", "ci_qci(2, 4)", "x,y,x+y"])
def test_lone_window_value_eliminates_one_map(which, field, monkeypatch):
    # the skip reads only degrees already ranked; it never ranks one above
    Q = _named_input(field, which)
    a, b, _ = Q.degrees
    calls = _record_eliminations(monkeypatch)
    for m in range(max(a - 1, 0), a + b + 2):
        calls.clear()
        assert core.quotient_hilbert(Q, m) == _direct_hilbert(Q, m)
        assert len(calls) == 1, m
