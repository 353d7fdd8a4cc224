"""Syzygy generator degrees against a brute-force scan of every twist.

The report counts new minimal generators only over the twists
a-c .. a+b-c+1 (``core._generator_degrees``, which lifts the kernels the
Hilbert window returns).  The oracle here scans
every degree m = max(a-1, 0) .. a+b+2c, that is every twist up to a+b+c:
it takes the kernel K_m of the degree-m map, lifts the previous kernel
K_{m-1} into degree m by multiplying each form's block with the
multiplication matrix of x, y and z, and counts dim K_m minus the rank of
the three lifts as new generators of twist m - c.  It shares the maps and
the field arithmetic with the engine, but not ``_lift_index`` or the
window.

Where the window holds every generator the two agree.  Where it does not,
the report is a truncation, and those cases are strict xfails until the
generator count covers the whole module (ROADMAP item 3).
"""

import random

import numpy as np
import pytest

from qci import (
    HomogPoly,
    PrimeField,
    QciInput,
    analyze_qci,
    graded_map_matrix,
    kernel_basis,
    monomial_basis,
    mult_matrix,
    rank,
    variables,
)

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
