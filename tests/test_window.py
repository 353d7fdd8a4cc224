"""The fixed Hilbert window decides the dimension class.

From k* = a+b+c-2 on, the quotient Hilbert function is constant when the
three forms cut out a finite or empty scheme and strictly increasing when
they share a common factor.  The oracle here is sympy's gcd over F_p,
which shares no code with the engine: the class is dim_ge_1 exactly when
the three forms have a common factor of positive degree.
"""

import random
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qci import (
    InternalError,
    PrimeField,
    QciInput,
    analyze_qci,
    dim_S,
    parse_poly,
    quotient_hilbert,
    random_homog,
)
from qci.cli import main
from qci.core import _Analysis

_X, _Y, _Z = sympy.symbols("x y z")


def _gcd_degree(forms, p):
    polys = [
        sympy.Poly.from_dict(dict(f.coeffs), _X, _Y, _Z, modulus=p) for f in forms
    ]
    return reduce(lambda u, v: u.gcd(v), polys).total_degree()


def _nonzero_form(degree, field, rng):
    while True:
        f = random_homog(degree, field, rng)
        if not f.is_zero:
            return f


def _degrees(kind, rng):
    """Shape of one draw: the form degrees and the construction's own data."""
    if kind == "common-factor":
        e = rng.randrange(1, 3)
        cofactors = sorted(rng.randrange(0, 3) for _ in range(3))
        return tuple(e + d for d in cofactors), (e, cofactors)
    if kind == "non-reduced":
        d = 2 + rng.randrange(1, 4)
        return (d - 1,) * 3, d
    a = rng.randrange(1, 4)
    b = rng.randrange(a, 4)
    c = rng.randrange(b, 5)
    return (a, b, c), rng.random() < 0.5


def _triple(kind, data, degrees, field, rng):
    if kind == "common-factor":
        # g * (A, B, C) with deg g = e; the cofactors J = (A, B, C) ride along
        e, cofactors = data
        g = _nonzero_form(e, field, rng)
        J = [_nonzero_form(d, field, rng) for d in cofactors]
        return [g * f for f in J], (e, J)
    if kind == "non-reduced":
        # the partials of l^2 * g all contain the line l
        l = _nonzero_form(1, field, rng)
        g = _nonzero_form(data - 2, field, rng)
        return list((l * l * g).partials()), None
    a, b, c = degrees
    ga = _nonzero_form(a, field, rng)
    gb = _nonzero_form(b, field, rng)
    if data:  # (Ga, Gb, u*Ga + v*Gb): the scheme V(Ga, Gb) of degree a*b
        u = random_homog(c - a, field, rng)
        third = u * ga + random_homog(c - b, field, rng) * gb
        if third.is_zero:
            third = _nonzero_form(c, field, rng)
    else:  # three general forms: usually no common zero
        third = _nonzero_form(c, field, rng)
    return [ga, gb, third], None


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["common-factor", "non-reduced", "finite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_tail_matches_gcd_oracle(kind, seed):
    degrees, data = _degrees(kind, random.Random(seed))
    for p in (32003, sympy.nextprime(sum(degrees))):
        field = PrimeField(int(p))
        forms, factored = _triple(kind, data, degrees, field, random.Random(seed))
        Q = QciInput.of(*forms)
        rep = analyze_qci(Q)
        tail = rep.hilbert.values[-4:]
        common = _gcd_degree(forms, field.p)
        if kind != "finite":
            assert common > 0
        if common > 0:
            assert rep.dimension_class == "dim_ge_1", (p, tail)
            assert all(x < y for x, y in zip(tail, tail[1:])), (p, tail)
        else:
            assert rep.dimension_class in ("dim0", "empty"), (p, tail)
            assert len(set(tail)) == 1, (p, tail)
            assert (rep.dimension_class == "empty") == (tail[0] == 0)
        if factored is not None and common == factored[0]:
            # HF_I(k) = dim S_k - dim S_{k-e} + HF_J(k-e) over the window
            e, J = factored
            QJ = QciInput.of(*J)
            for k, v in enumerate(rep.hilbert.values):
                rest = quotient_hilbert(QJ, k - e) if k >= e else 0
                assert v == dim_S(k) - dim_S(k - e) + rest, (p, k)


def test_window_tail_that_falls_is_an_internal_error(monkeypatch, capsys, field):
    # the triangle's window is k = 0 .. 7 with values (1, 3, 3, 3, 3, 3, 3, 3)
    fake = (1, 3, 3, 3, 3, 3, 4, 3)
    monkeypatch.setattr(_Analysis, "hilbert_value", lambda self, k: fake[k])
    message = r"tail \[3, 3, 4, 3\] at k = 4..7 \(k\* = 4\)"
    with pytest.raises(InternalError, match=message):
        analyze_qci(QciInput.of(*parse_poly("x*y*z", field).partials()))
    rc = main(["analyze-qci", "--fa", "y*z", "--fb", "x*z", "--fc", "x*y"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("internal error:")
