"""The Hilbert window's values and kept kernels against direct eliminations.

``_hilbert_window`` carries the left null space N_T up from the least
degree of a nonzero form by x-steps, one small elimination per degree, and
eliminates the degree-(a+b+1) map once, with its columns by falling
x-exponent, for the x-free tail V_m of every K_m of the syzygy window and
for a cross-check of HF(0 .. a+b+1).  Each value here is checked against
the direct elimination of its own degree's map, which shares no column
order, no prefix and no step with that reading:

- every Hilbert value HF(m) equals dim S_m minus the direct rank;
- every kept V_m has independent rows spanning the direct kernel's x-free
  coordinates (equal RREF, the ``tails_oracle`` of conftest.py).

The inputs cover a unit ideal ``1, x, y``, zero forms tied in degree (also
below a nonzero form of higher degree, which the guard accepts, so that
the first step lies above a), a common factor, an empty scheme, monomial
ideals, node and lines curves, and seeded random triples.
"""

import random

import pytest

from qci import (
    HomogPoly,
    PrimeField,
    QciInput,
    dim_S,
    family,
    monomial_basis,
    parse_poly,
    random_homog,
    rank,
)
from qci import core

PRIMES = (13, 32003, 2097143)

_TEXTS = {
    "unit": "1, x, y",
    "x2,xy,y3": "x^2, x*y, y^3",
    "x,y2,yz": "x, y^2, y*z",
    "yz,xz,xy": "y*z, x*z, x*y",
    "x3,y3,z3": "x^3, y^3, z^3",
}


def _node(d, field, seed):
    # a dense curve singular at [0:0:1]: no z^d, x z^(d-1), y z^(d-1)
    rng = random.Random(seed)
    skip = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
    coeffs = {m: rng.randrange(1, field.p) for m in monomial_basis(d) if m not in skip}
    return QciInput.of(*HomogPoly(d, coeffs, field).partials())


def _nonzero(d, field, rng):
    while True:
        f = random_homog(d, field, rng)
        if not f.is_zero:
            return f


def _input(which, field):
    kind, _, arg = which.partition("-")
    if kind == "node":
        return _node(int(arg), field, seed=int(arg))
    if kind == "lines":
        return QciInput.of(*family("lines_through_point", field, d=int(arg)).f.partials())
    if kind == "random":
        rng = random.Random(int(arg))
        return QciInput.of(*(_nonzero(rng.randrange(1, 5), field, rng) for _ in range(3)))
    if kind == "factor":
        rng = random.Random(int(arg))
        line = _nonzero(1, field, rng)
        return QciInput.of(*(line * _nonzero(rng.randrange(0, 3), field, rng) for _ in range(3)))
    if kind == "empty":
        # a smooth quartic: its partials have no common zero
        rng = random.Random(int(arg))
        f = HomogPoly.zero(4, field)
        for _ in range(3):
            l = _nonzero(1, field, rng)
            f = f + l * l * l * l
        return QciInput.of(*f.partials())
    if kind == "zeros":
        # zero forms tied in degree with a nonzero one: f_z = 0 of x^4 + y^4,
        # or two zero quadrics beside x^2 + yz
        if arg == "1":
            return QciInput.of(*parse_poly("x^4 + y^4", field).partials())
        if arg == "2":
            zero = HomogPoly.zero(2, field)
            return QciInput.of(parse_poly("x^2 + y*z", field), zero, zero)
        # two zero forms tied below a nonzero one of higher degree: the
        # ideal is zero below that degree, where the x-steps start
        e, c = {"3": (0, 4), "4": (1, 5)}[arg]
        zero = HomogPoly.zero(e, field)
        return QciInput.of(zero, zero, parse_poly(f"x^{c} + y^{c} + z^{c}", field))
    return QciInput.of(*(parse_poly(s, field) for s in _TEXTS[which].split(",")))


_CASES = (
    [*_TEXTS, "zeros-1", "zeros-2", "zeros-3", "zeros-4"]
    + [f"random-{s}" for s in range(4)]
    + [f"factor-{s}" for s in range(3)]
    + ["empty-0", "empty-1"]
    + ["node-4", "node-5", "lines-4", "lines-5"]
)
# degrees the guard refuses at p = 13
_LARGE_ONLY = ["node-7", "lines-7"]


def _direct_rank(Q, m):
    return rank(core.graded_map_matrix(Q, m), Q.field) if m >= 0 else 0


@pytest.mark.parametrize(
    "which, p",
    [(w, p) for w in _CASES for p in PRIMES]
    + [(w, p) for w in _LARGE_ONLY for p in PRIMES[1:]],
)
def test_window_reading_matches_direct_eliminations(which, p, tails_oracle):
    field = PrimeField(p)
    Q = _input(which, field)
    table, tails = core._hilbert_window(Q)
    for m, h in enumerate(table.values):
        assert h == dim_S(m) - _direct_rank(Q, m), m
    a, b, _ = Q.degrees
    # the lifts read V_m up to a+b; a+b+1 is eliminated for the rank check
    assert sorted(tails) == list(range(max(a - 1, 0), a + b + 1))
    for m, V in tails.items():
        tails_oracle(Q, m, V)
