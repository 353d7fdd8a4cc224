"""Homogeneous polynomials in x, y, z over a prime field.

A monomial is an exponent triple ``(i, j, k)``.  Within one total degree
the monomials carry a fixed graded-lexicographic order with x > y > z
(``x^d`` first, ``z^d`` last); every coefficient vector and every matrix
in the package indexes its rows and columns by that order, which is what
makes all downstream output deterministic.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import GuardError, NonHomogeneousError, PolyParseError
from .linalg import PRIME_MAX, PrimeField

Monomial = tuple[int, int, int]


class ZeroModPWarning(UserWarning):
    """The written form is nonzero over the integers but zero mod p."""


def dim_S(degree: int) -> int:
    """Dimension of the space of degree-``degree`` forms in three variables."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


@functools.cache
def monomial_basis(degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, in the fixed order."""
    if degree < 0:
        return ()
    return tuple(
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    )


@functools.cache
def basis_index(degree: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomial_basis(degree))}


def _positions(degree: int) -> tuple[np.ndarray, np.ndarray]:
    # In any degree, (i, j, k) sits at (j+k)(j+k+1)/2 + k of monomial_basis:
    # the monomials before it have a smaller j+k, or the same j+k and a
    # smaller k.  Position c is therefore the monomial with j+k = s and
    # k = c - s(s+1)/2; this returns s and k for every position.
    s = np.repeat(np.arange(degree + 1), np.arange(1, degree + 2))
    k = np.arange(s.size) - s * (s + 1) // 2
    return s, k


def product_positions(degree: int, e: int) -> np.ndarray:
    """Positions of products in ``monomial_basis(degree + e)``: entry (r, c)
    is where ``nu * mu`` sits, for ``nu`` the r-th monomial of degree ``e``
    and ``mu`` the c-th monomial of degree ``degree``."""
    s, k = _positions(degree)
    s_nu, k_nu = _positions(e)
    t = s_nu[:, None] + s
    return t * (t + 1) // 2 + k_nu[:, None] + k


def _order_key(mono: Monomial):
    # graded-lex position within a fixed degree: larger x, then larger y, first
    return (-mono[0], -mono[1])


class HomogPoly:
    """A homogeneous form with a declared degree.

    The zero polynomial is legal and keeps its declared degree, so that a
    vanishing partial derivative or a dropped generator still occupies a
    block of the right shape in every graded matrix.
    """

    __slots__ = ("degree", "coeffs", "field", "_terms")

    def __init__(self, degree: int, coeffs, field: PrimeField):
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
        cleaned = {}
        for mono, c in coeffs.items():
            i, j, k = mono
            if min(i, j, k) < 0 or i + j + k != degree:
                raise ValueError(f"monomial {mono} does not have degree {degree}")
            c = c % field.p
            if c:
                cleaned[(i, j, k)] = c
        self.degree = degree
        self.coeffs = dict(sorted(cleaned.items(), key=lambda item: _order_key(item[0])))
        self.field = field
        self._terms = None

    @classmethod
    def zero(cls, degree: int, field: PrimeField) -> "HomogPoly":
        return cls(degree, {}, field)

    @classmethod
    def monomial(cls, mono: Monomial, field: PrimeField, coeff: int = 1) -> "HomogPoly":
        return cls(sum(mono), {tuple(mono): coeff}, field)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the x-free degree j+k and the z-exponent k of every term, and its
        # coefficient, as int64 arrays: built once, for the matrix builders
        # here and the x-steps' block in core
        if self._terms is None:
            exps = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, 3)
            coeffs = np.fromiter(self.coeffs.values(), dtype=np.int64)
            self._terms = (self.degree - exps[:, 0], exps[:, 2], coeffs)
        return self._terms

    def _check_same_field(self, other: "HomogPoly"):
        if self.field != other.field:
            raise ValueError("mixed prime fields")

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_same_field(other)
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        merged = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            merged[mono] = merged.get(mono, 0) + c
        return HomogPoly(self.degree, merged, self.field)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(
            self.degree, {m: -c for m, c in self.coeffs.items()}, self.field
        )

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return HomogPoly(
                self.degree, {m: c * other for m, c in self.coeffs.items()}, self.field
            )
        self._check_same_field(other)
        degree = self.degree + other.degree
        out: dict[Monomial, int] = {}
        for (i1, j1, k1), c1 in self.coeffs.items():
            for (i2, j2, k2), c2 in other.coeffs.items():
                mono = (i1 + i2, j1 + j2, k1 + k2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return HomogPoly(degree, out, self.field)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def partials(self) -> tuple["HomogPoly", "HomogPoly", "HomogPoly"]:
        """The three partial derivatives, each of declared degree d - 1."""
        if self.degree == 0:
            raise GuardError("partial derivatives need degree >= 1")
        out = []
        for axis in range(3):
            d: dict[Monomial, int] = {}
            for mono, c in self.coeffs.items():
                e = mono[axis]
                if e == 0:
                    continue
                lowered = list(mono)
                lowered[axis] = e - 1
                d[tuple(lowered)] = c * e
            out.append(HomogPoly(self.degree - 1, d, self.field))
        return tuple(out)

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficient vector over the degree's monomial basis."""
        vec = np.zeros(dim_S(self.degree), dtype=np.int64)
        idx = basis_index(self.degree)
        for mono, c in self.coeffs.items():
            vec[idx[mono]] = c
        return vec

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for (i, j, k), c in self.coeffs.items():
            factors = []
            for name, e in (("x", i), ("y", j), ("z", k)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"HomogPoly({self.degree}, {str(self)!r}, p={self.field.p})"


def variables(field: PrimeField) -> tuple[HomogPoly, HomogPoly, HomogPoly]:
    """The coordinate forms x, y, z."""
    return (
        HomogPoly.monomial((1, 0, 0), field),
        HomogPoly.monomial((0, 1, 0), field),
        HomogPoly.monomial((0, 0, 1), field),
    )


_VAR_AXIS = {"x": 0, "y": 1, "z": 2}
# ASCII only: str.isdigit also accepts characters such as '²' that int()
# rejects
_DIGITS = frozenset("0123456789")


def _digits_value(digits: str) -> int:
    # the integer a run of decimal digits spells, whatever its length: int()
    # refuses more digits than sys.get_int_max_str_digits(), which is never
    # set below 640, so a longer run is read in halves
    if len(digits) <= 640:
        return int(digits)
    low = len(digits) // 2
    return _digits_value(digits[:-low]) * 10**low + _digits_value(digits[-low:])


def parse_poly(text: str, field: PrimeField) -> HomogPoly:
    """Parse polynomial text like ``2*x^2*y - z^3``.

    Terms are separated by ``+`` or ``-``; a term is an optional integer
    followed by variable factors, with ``*`` separators optional and
    whitespace ignored.  Integers may be arbitrarily large and are reduced
    mod p.  Raises :class:`PolyParseError` on malformed input,
    :class:`NonHomogeneousError` when the written terms mix degrees and
    :class:`GuardError` on an exponent of ``PRIME_MAX`` or more, a degree
    that no admissible prime exceeds.  If
    every coefficient vanishes mod p but not over the integers, the zero
    polynomial of the written degree is returned under a
    :class:`ZeroModPWarning`.
    """
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        return _digits_value(text[start:pos])

    terms: list[tuple[int, Monomial]] = []
    skip_ws()
    if pos == n:
        raise PolyParseError("empty polynomial", 0)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1

    while True:
        skip_ws()
        term_start = pos
        coeff = None
        exps = [0, 0, 0]
        if pos < n and text[pos] in _DIGITS:
            coeff = read_int()
        saw_factor = False
        while True:
            skip_ws()
            here = pos
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] not in _VAR_AXIS:
                    raise PolyParseError("expected a variable after '*'", pos)
            if pos < n and text[pos] in _VAR_AXIS:
                axis = _VAR_AXIS[text[pos]]
                pos += 1
                exp = 1
                skip_ws()
                if pos < n and text[pos] == "^":
                    pos += 1
                    skip_ws()
                    if pos >= n or text[pos] not in _DIGITS:
                        raise PolyParseError("expected an exponent after '^'", pos)
                    at = pos
                    exp = read_int()
                    if exp < 1:
                        raise PolyParseError("exponent must be positive", pos)
                    if exp >= PRIME_MAX:
                        # the number itself is not printed: it may run to
                        # more digits than str() writes
                        raise GuardError(
                            f"exponent at position {at} is 2**21 or more; no "
                            "admissible prime exceeds such a degree"
                        )
                exps[axis] += exp
                saw_factor = True
            else:
                pos = here
                break
        if coeff is None and not saw_factor:
            raise PolyParseError("expected a term", term_start)
        terms.append((sign * (1 if coeff is None else coeff), tuple(exps)))
        skip_ws()
        if pos == n:
            break
        if text[pos] not in "+-":
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        sign = -1 if text[pos] == "-" else 1
        pos += 1
        skip_ws()
        if pos == n:
            raise PolyParseError("dangling sign", pos)

    degrees = {sum(mono) for _, mono in terms}
    if len(degrees) > 1:
        raise NonHomogeneousError(
            f"terms mix total degrees {sorted(degrees)}; input must be homogeneous"
        )
    degree = degrees.pop()

    combined: dict[Monomial, int] = {}
    for c, mono in terms:
        combined[mono] = combined.get(mono, 0) + c
    poly = HomogPoly(degree, combined, field)
    if poly.is_zero and any(c != 0 for c in combined.values()):
        warnings.warn(
            f"all coefficients vanish mod {field.p}; the form is zero over F_p "
            "but not over the integers",
            ZeroModPWarning,
            stacklevel=2,
        )
    return poly


def random_homog(degree: int, field: PrimeField, rng) -> HomogPoly:
    """Dense random form: every coefficient uniform in [0, p)."""
    return HomogPoly(
        degree,
        {mono: rng.randrange(field.p) for mono in monomial_basis(degree)},
        field,
    )


def _term_rows(g: HomogPoly, s, k) -> np.ndarray:
    # where each term of g takes the source monomials at (s, k) (see
    # _positions), one row per term in g.coeffs order: a term with x-free
    # degree j+l and z-exponent l takes j+k = s to s+j+l and k to k+l
    g_s, g_k, _ = g._term_arrays()
    t_s = s + g_s[:, None]
    return t_s * (t_s + 1) // 2 + k + g_k[:, None]


def mult_matrix(g: HomogPoly, src_degree: int) -> np.ndarray:
    """Matrix of multiplication by ``g`` from degree ``src_degree`` forms.

    Shape is (dim S_{src+deg g}, dim S_src); a zero polynomial or an empty
    source degree gives the corresponding zero or empty block.
    """
    s, k = _positions(src_degree)
    M = np.zeros((dim_S(src_degree + g.degree), k.size), dtype=np.int64)
    M[_term_rows(g, s, k), np.arange(k.size)] = g._term_arrays()[2][:, None]
    return M


def term_positions(g: HomogPoly, src_degree: int, lo: int, hi: int) -> np.ndarray:
    """Where g's terms take the degree-``src_degree`` monomials lo .. hi-1.

    Entry (t, c) is the position in ``monomial_basis(src_degree + deg g)``
    of the t-th term of g, in ``g.coeffs`` order, times the (lo+c)-th
    monomial: the row of that term's entry in column lo+c of
    ``mult_matrix(g, src_degree)``, by the same arithmetic.
    """
    s, k = _positions(src_degree)
    return _term_rows(g, s[lo:hi], k[lo:hi])

