"""Hilbert values and syzygy dimensions against a Groebner-basis oracle.

The oracle shares no code with the engine: the forms are drawn and
multiplied as sympy polynomials over F_p, and sympy computes a grevlex
Groebner basis of the ideal they generate.  The quotient Hilbert function
HF(k) is then the number of degree-k monomials outside the leading ideal,
counted by the monomial oracle of conftest.py.

Every Hilbert value of the window 0 .. k_max is compared, which also checks
t and the dimension class read off its tail.  The syzygies of twist k are
the kernel of the degree-(k+c) map, so on a finite scheme

    h^0(E(k)) = cols(k+c) - dim S_{k+c} + HF(k+c),

with cols(m) = sum_i dim S_{m-a_i}, which also checks the minimal twist r.
Each input runs at 32003 and at the least prime the input guard admits.
"""

import random

import pytest
import sympy

from qci import HomogPoly, PrimeField, QciInput, analyze_qci

_X, _Y, _Z = sympy.symbols("x y z")
_GENS = (_X, _Y, _Z)


def _dim(k):
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def _form(rng, d, p, skip=()):
    """A dense random form of degree d, without the monomials in skip."""
    while True:
        coeffs = {
            (i, j, d - i - j): rng.randrange(p)
            for i in range(d + 1)
            for j in range(d + 1 - i)
            if (i, j, d - i - j) not in skip
        }
        f = sympy.Poly.from_dict(coeffs, *_GENS, modulus=p)
        if not f.is_zero:
            return f


def _through_point(rng, p):
    # three forms of degree <= 3 without a pure power of z: all vanish at
    # [0:0:1]
    degrees = sorted(rng.randrange(1, 4) for _ in range(3))
    return [_form(rng, d, p, skip={(0, 0, d)}) for d in degrees]


def _dependent(rng, p):
    # (Fa, Fb, u*Fa + v*Fb): the scheme V(Fa, Fb)
    a, b, c = sorted(rng.randrange(1, 4) for _ in range(3))
    fa, fb = _form(rng, a, p), _form(rng, b, p)
    while True:
        third = _form(rng, c - a, p) * fa + _form(rng, c - b, p) * fb
        if not third.is_zero:
            return [fa, fb, third]


def _common_factor(rng, p):
    # g * (A, B, C) with deg g = 1: a positive-dimensional locus
    cofactors = [rng.randrange(0, 3) for _ in range(3)]
    g = _form(rng, 1, p)
    return [g * _form(rng, e, p) for e in cofactors]


def _node(d, p):
    # the partials of a dense degree-d curve singular at [0:0:1]
    rng = random.Random(d)
    f = _form(rng, d, p, skip={(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)})
    return [f.diff(v) for v in _GENS]


_KINDS = {"point": _through_point, "dependent": _dependent, "factor": _common_factor}


def _forms(which, p):
    kind, _, arg = which.partition("-")
    if kind == "node":
        return _node(int(arg), p)
    return _KINDS[kind](random.Random(f"{kind}-{arg}"), p)


def _degree(f):
    return max(sum(m) for m in f.monoms())


def _engine_input(forms, p):
    field = PrimeField(p)
    return QciInput.of(
        *(
            HomogPoly(_degree(f), {m: int(c) % p for m, c in f.as_dict().items()}, field)
            for f in forms
        )
    )


def _oracle_hilbert(forms, p, monomial_oracle):
    G = sympy.groebner([f.as_expr() for f in forms], *_GENS, modulus=p, order="grevlex")
    leading = [g.LM(order="grevlex").exponents for g in G.polys]
    return lambda k: monomial_oracle(leading, k)


# node curves of degree d have form degrees d-1, so the guard prime is
# the least one above 3(d-1)
_INPUTS = (
    [f"point-{s}" for s in range(8)]
    + [f"dependent-{s}" for s in range(4)]
    + [f"factor-{s}" for s in range(3)]
    + [f"node-{d}" for d in (3, 4, 5)]
)


@pytest.mark.parametrize("which", _INPUTS)
def test_hilbert_and_syzygies_match_groebner_oracle(which, monomial_oracle):
    degrees = sorted(_degree(f) for f in _forms(which, 32003))
    for p in (32003, int(sympy.nextprime(sum(degrees)))):
        forms = _forms(which, p)
        rep = analyze_qci(_engine_input(forms, p))
        hf = _oracle_hilbert(forms, p, monomial_oracle)
        k_max = rep.hilbert.k_max
        assert list(rep.hilbert.values) == [hf(k) for k in range(k_max + 1)], p
        if which.startswith("factor"):
            assert rep.dimension_class == "dim_ge_1", p
            continue
        assert rep.dimension_class == "dim0", p
        assert rep.t == hf(k_max), p
        a, b, c = rep.degrees
        expected = [
            (k, _dim(k - a + c) + _dim(k - b + c) + _dim(k) - _dim(k + c) + hf(k + c))
            for k in range(a - c, a + b - c + 1)
        ]
        assert [tuple(kv) for kv in rep.syzygies.dims] == expected, p
        assert rep.r == next(k for k, h0 in expected if h0 > 0), p
