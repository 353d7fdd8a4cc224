"""Syzygy generator degrees against brute-force lifts in the whole space.

The report counts new minimal generators only over the twists
a-c .. a+b-c+1 (``core._generator_degrees``, which lifts the x-free tails
of the kernels the Hilbert window returns).  The oracle here scans
every degree m = max(a-1, 0) .. a+b+2c, that is every twist up to a+b+c:
it takes the kernel K_m of the degree-m map, lifts the previous kernel
K_{m-1} into degree m by multiplying each form's block with the
multiplication matrix of x, y and z, and counts dim K_m minus the rank of
the three lifts as new generators of twist m - c.  It shares the maps and
the field arithmetic with the engine, but not the tails or the window.

Where the window holds every generator the two agree.  Where it does not,
the report is a truncation, and those cases are strict xfails until the
generator count covers the whole module (ROADMAP item 3).

Over the report's own twists, the tails' count is also checked against
lifts in the whole degree-m multiplier space: x, y and z move each form's
block of a direct K_{m-1} to where they take its monomials
(``product_positions``).  The inputs are seeded triples with a tied zero
form or a common factor (these the report refuses, so the count is called
directly) and node and lines curves.
"""

import random

import numpy as np
import pytest

from qci import (
    HomogPoly,
    PrimeField,
    QciInput,
    analyze_qci,
    family,
    graded_map_matrix,
    kernel_basis,
    monomial_basis,
    mult_matrix,
    parse_poly,
    random_homog,
    rank,
    variables,
)
from qci import core
from qci.poly import product_positions

P = 32003


def _lift(K, Q, m, var):
    # var times each syzygy of degree m, in the coordinates of degree m+1;
    # a variable's matrix has one 1 per column, so the product is exact
    blocks, start = [], 0
    for f in Q.polys:
        M = mult_matrix(var, m - f.degree)
        blocks.append(K[:, start : start + M.shape[1]] @ M.T)
        start += M.shape[1]
    return np.hstack(blocks)


def _full_generator_degrees(Q):
    """Twists of a minimal generating set of the syzygy module, all of them."""
    a, b, c = Q.degrees
    gens = []
    prev = np.zeros((0, 0), dtype=np.int64)
    for m in range(max(a - 1, 0), a + b + 2 * c + 1):
        K = kernel_basis(graded_map_matrix(Q, m), Q.field)
        new = K.shape[0]
        if prev.shape[0] and new:
            lifted = np.vstack([_lift(prev, Q, m - 1, v) for v in variables(Q.field)])
            new -= rank(lifted, Q.field)
        gens.extend([m - c] * new)
        prev = K
    return tuple(gens)


def _node(d):
    # a dense curve without z^d, x z^(d-1), y z^(d-1): one node at [0:0:1]
    field = PrimeField(P)
    rng = random.Random(d)
    skip = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
    coeffs = {m: rng.randrange(1, P) for m in monomial_basis(d) if m not in skip}
    return QciInput.of(*HomogPoly(d, coeffs, field).partials())


def _through_point(degrees, seed):
    # dense forms without their pure z-power: they meet at [0:0:1]
    field = PrimeField(P)
    rng = random.Random(seed)
    forms = []
    for d in degrees:
        coeffs = {m: rng.randrange(1, P) for m in monomial_basis(d) if m != (0, 0, d)}
        forms.append(HomogPoly(d, coeffs, field))
    return QciInput.of(*forms)


_TRUNCATED = pytest.mark.xfail(
    strict=True,
    reason="the generator scan stops at twist a+b-c+1 and misses generators "
    "above it (ROADMAP item 3)",
)

_CASES = [
    pytest.param(lambda: _through_point((1, 2, 3), 1), id="(1,2,3) through [0:0:1]"),
    pytest.param(lambda: _through_point((2, 3, 3), 2), id="(2,3,3) through [0:0:1]"),
    pytest.param(lambda: _node(4), id="node d=4"),
    pytest.param(lambda: _node(5), id="node d=5", marks=_TRUNCATED),
    pytest.param(lambda: _node(6), id="node d=6", marks=_TRUNCATED),
    pytest.param(
        lambda: _through_point((2, 2, 4), 3),
        id="(2,2,4) through [0:0:1]",
        marks=_TRUNCATED,
    ),
]


@pytest.mark.parametrize("make", _CASES)
def test_generator_degrees_match_the_full_scan(make):
    Q = make()
    assert analyze_qci(Q).generator_degrees == _full_generator_degrees(Q)


def _full_space_lifts(Q):
    """New generators per twist a-c .. a+b-c+1, lifting in the whole space.

    Each variable times K_{m-1} is K_{m-1} with each form's block moved to
    where the variable takes its monomials in degree m - deg f, and the
    count is dim K_m minus the rank of the three moved copies.
    """
    a, b, c = Q.degrees
    gens = []
    for k in range(a - c, a + b - c + 2):
        m = k + c
        K = kernel_basis(graded_map_matrix(Q, m), Q.field)
        prev = kernel_basis(graded_map_matrix(Q, m - 1), Q.field)
        h = prev.shape[0]
        new = K.shape[0]
        if new and h:
            lifted = np.zeros((3 * h, K.shape[1]), dtype=np.int64)
            for axis in range(3):
                idx, offset = [], 0
                for f in Q.polys:
                    idx.append(offset + product_positions(m - 1 - f.degree, 1)[axis])
                    offset += len(monomial_basis(m - f.degree))
                lifted[axis * h : (axis + 1) * h, np.concatenate(idx)] = prev
            new -= rank(lifted, Q.field)
        gens.extend([k] * new)
    return tuple(gens)


def _seeded(kind, seed):
    field = PrimeField(P)
    rng = random.Random(seed)
    degrees = sorted(rng.randrange(1, 4) for _ in range(3))
    forms = [random_homog(d, field, rng) for d in degrees]
    if kind == "zero":
        # a zero form tied in degree with another form, as the guard needs
        tied = [i for i in range(3) if degrees.count(degrees[i]) > 1]
        if not tied:
            degrees[0] = degrees[1]
            forms[0] = random_homog(degrees[0], field, rng)
            tied = [0, 1]
        forms[rng.choice(tied)] = HomogPoly.zero(degrees[tied[0]], field)
    else:
        line = random_homog(1, field, rng)
        forms = [line * f for f in forms]
    return QciInput.of(*forms)


_LIFT_CASES = (
    [pytest.param(lambda s=s: _seeded("zero", s), id=f"tied zero {s}") for s in range(6)]
    + [pytest.param(lambda s=s: _seeded("factor", s), id=f"common factor {s}") for s in range(4)]
    + [
        pytest.param(
            lambda: QciInput.of(*parse_poly("x^4 + y^4", PrimeField(P)).partials()),
            id="zero partial",
        ),
        pytest.param(
            lambda: QciInput.of(
                HomogPoly.zero(1, PrimeField(P)),
                HomogPoly.zero(1, PrimeField(P)),
                parse_poly("x^5 + y^5 + z^5", PrimeField(P)),
            ),
            id="two zero lines",
        ),
    ]
    + [pytest.param(lambda d=d: _node(d), id=f"node d={d}") for d in range(4, 8)]
    + [
        pytest.param(
            lambda d=d: QciInput.of(
                *family("lines_through_point", PrimeField(P), d=d).f.partials()
            ),
            id=f"lines d={d}",
        )
        for d in range(4, 9)
    ]
)


@pytest.mark.parametrize("make", _LIFT_CASES)
def test_tail_lifts_match_full_space_lifts(make):
    Q = make()
    table, tails = core._hilbert_window(Q)
    assert core._generator_degrees(Q, table.values, tails) == _full_space_lifts(Q)
