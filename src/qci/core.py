"""Invariants of a triple of forms cutting out a finite plane scheme.

All invariants are obtained by degreewise linear algebra over the prime
field; a report only holds their values, and ``qci.report`` writes it out.
For a triple with sorted degrees a <= b <= c the central object is the
evaluation map

    S_{m-a} + S_{m-b} + S_{m-c}  ->  S_m,   (A, B, C) |-> A*Fa + B*Fb + C*Fc

whose rank gives the Hilbert function of the quotient and whose kernel at
m = k + c gives the space of degree-k syzygies; the saturation follows
from these by Riemann-Roch and Serre duality.  The scheme degree t is read
off as the plateau of the quotient Hilbert function; the minimal syzygy
degree r is the first twist in the window [a-c, a+b-c] carrying a syzygy
(the upper end always does, by the Koszul relation between the first two
forms).

The Hilbert window is fixed at k = 0 .. max(k*, 0) + 3, k* = a+b+c-2.
From k* on, Serre duality on the rank-2 syzygy bundle E, with
c1(E) = -(a+b+c), gives h^1(E(k)) = 0 and h^1(I_T(k)) = h^0(E(a+b+c-3-k))
= 0, so the quotient Hilbert function equals t there for every finite or
empty scheme; under a common factor of degree e >= 1 it is
dim S_k - dim S_{k-e} + HF_J(k-e), which strictly increases.  The four
values k* .. k*+3 therefore decide the dimension class, and a tail that
is neither constant nor strictly increasing is an InternalError.

The Hilbert values come from the inverse system (Macaulay) instead of the
maps, carried up by one x-step per degree.  Order the degree-T map's rows
as usual, x times the degree-(T-1) monomials first and the T+1 x-free
monomials last, and its columns with the multipliers that have x first,
as x times the degree-(T-1) map.  Then

    M_T = [[M_{T-1}, A], [0, B]],

[A; B] the columns whose multiplier has no x.  A basis N_{T-1} of the
left null space of M_{T-1} (the functionals vanishing on I_{T-1}) gives
the one of M_T: (u, w) kills M_T exactly when u = lam N_{T-1} and
lam (N_{T-1} A) + w B = 0, so N_T = [Lam N_{T-1} | W] for a basis (Lam | W)
of the left kernel of the (HF(T-1) + T+1) x cols system [N_{T-1} A; B],
and HF(T) is its row count.  The step needs only that x is a variable, not
I_{T+1} = S_1 * I_T, so it runs from the least degree of a nonzero form,
below which the ideal is zero and N is the identity, up to k_max.

B = B_T is the Sylvester matrix of the binary forms g_i = f_i(0, y, z),
one column per x-free multiplier y^(e-q) z^q, and the steps carry the
echelon form of [B^T | I] instead of eliminating B again.  Each
multiplier keeps one column for the whole window, in birth order: at the
rank of (a_i + q, i), the degree where it enters as z^q, ties broken by
form.  Raising T multiplies every old multiplier by y, which keeps its q,
its column and its binary row, with one more zero, and adds z^(T-a_i),
whose row is z^(T-a_i) g_i: the old rows stay valid, and each degree
adds at most three rows, at the end.  The carried state is the pivot rows
(b_k | e_k), each b_k 1 at its pivot column and 0 at the others, and the
syzygy rows (0 | z_j), a basis of ker B; each new row is inserted into it
alone (``_carry``), and no step eliminates B.  With E = [E_p; Z] their
units, which are invertible,

    [N_{T-1} A; B] E^T = [[X, Y], [B_p^T, 0]],   X = N_{T-1} A E_p^T,
                                                  Y = N_{T-1} A Z^T,

so the left kernel is (lam | w) for lam in Lam, the left kernel of Y (the
identity where Y is 0), w = -lam X at the pivot columns and 0 at the free
binary columns, and (0 | w) for each free binary column j, w = 1 at j, 0
at the other free columns and -b_k[j] at each pivot column; HF(T) is
rows(Lam) + T + 1 - rank B.  A step eliminates only Y^T, syzygies of B by
HF(T-1); no step's system is a graded map.  The step into T has rank
rank Y_T + rank B_T, and these sum to dim S_{k_max} - HF(k_max), the rank
of the degree-k_max map.
N_{k_max} must annihilate the degree-k_max map exactly, or the run fails
with InternalError; the check contracts N_{k_max} with each form's terms,
by the monomial positions the map's own columns use, apart from the
steps, and builds no map.

The saturation of I needs no elimination of its own.  Sheafified, the
syzygies give 0 -> E -> O(-a) + O(-b) + O(-c) -> I_T -> 0 with E of rank 2
and det E = O(-a-b-c), so E^dual = E(a+b+c) and Serre duality reads
h^2(E(m)) = h^0(E(m')), m' = a+b+c-3-m.  As H^1(O(k)) = 0 for every k,
global sections give sat(m) = h^0(I_T(m)) = sum_i dim S_{m-a_i}
- h^0(E(m)) + h^1(E(m)), and Riemann-Roch,
chi(E(m)) = sum_i chi(m-a_i) - chi(m) + t, turns h^1 - h^0 into
h^0(E(m')) - chi(E(m)):

    sat(m) = chi(m) - t + sum_i [dim S_{m-a_i} - chi(m-a_i)] + h^0(E(m')),

with chi(k) = (k+1)(k+2)/2 and h^0(E(m')) the kernel dimension of the
degree-m' map.  For m >= 0, m' < k*, so that rank is one the Hilbert
window already holds.

Each degree's map is eliminated at most once, in ``_hilbert_window``, and
all but one are not eliminated as maps at all.  S is a domain, so x^g
times a degree-(m-g) syzygy is a syzygy of degree m, and nothing else is.
With the degree-T map's columns ordered by falling x-exponent (stable
within each form's block), and as a monomial's position in its degree
does not depend on its x-exponent, the columns of x-exponent >= g are x^g
times the degree-(T-g) map and form a prefix.  One reduced row echelon
form of the degree-T map therefore holds rank(T-g) for every g, as the
pivot count in that prefix; and the rows of its free-variable kernel basis
whose free column (the last nonzero entry) lies in the prefix, cut to it,
are a basis of K_{T-g}, though not the canonical one.  Setting x = 0
maps K_m onto V_m, its x-free coordinates, with kernel x K_{m-1}, so
dim V_m = h^0(E(m-c)) - h^0(E(m-c-1)), and V_m is read off the same
rows: the last columns of each prefix are x-free, and only the rows
whose free column lies there are nonzero on them.  So
``_hilbert_window`` eliminates the degree-(a+b+1) map for the tails V_m
over [a-1, a+b], the degrees the generator lifts read, and its prefix
ranks must equal the x-steps' HF(0 .. a+b+1), read off other matrices,
or the run fails with InternalError.  Every later value (the syzygy
dimensions and r, the saturation, h^1 and the resolution check) is
arithmetic on the table, reading the rank of the degree-m map as
dim S_m - HF(m), and above k_max HF(m) = t, so nothing above k_max is
eliminated; only ``quotient_hilbert`` ranks a lone degree, with one plain
rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalError
from .linalg import PrimeField, kernel_basis, matmul, rank
from .poly import (
    HomogPoly,
    dim_S,
    monomial_basis,
    mult_matrix,
    term_positions,
)

# the Hilbert window ends this many values past the anchor max(k*, 0)
_TAIL = 4


def _chi(k: int) -> int:
    # Euler characteristic polynomial of O(k) on the plane, valid for all k
    return (k + 1) * (k + 2) // 2


class QciInput:
    """Three homogeneous forms, stored sorted by degree a <= b <= c."""

    __slots__ = ("polys", "degrees")

    def __init__(self, polys: tuple[HomogPoly, HomogPoly, HomogPoly]):
        f1, f2, f3 = polys
        if f1.field != f2.field or f1.field != f3.field:
            raise GuardError("all three forms must live over the same prime field")
        if all(f.is_zero for f in polys):
            raise GuardError("at least one form must be nonzero")
        p = f1.field.p
        total = f1.degree + f2.degree + f3.degree
        if p <= total:
            raise GuardError(
                f"prime {p} too small for degrees summing to {total}; need p > a+b+c"
            )
        polys = tuple(sorted(polys, key=lambda f: f.degree))
        if polys[0].is_zero and polys[0].degree < polys[1].degree:
            # the invariants need Fa != 0: a zero form of least degree
            # puts a syzygy at twist a - c, which forces t = a*c, while
            # the scheme is V(Fb, Fc) of degree b*c
            raise GuardError(
                f"the form of least degree {polys[0].degree} is zero; a zero "
                "form must tie in degree with another form"
            )
        self.polys = polys
        self.degrees: tuple[int, int, int] = tuple(f.degree for f in polys)

    @classmethod
    def of(cls, f1: HomogPoly, f2: HomogPoly, f3: HomogPoly) -> "QciInput":
        return cls((f1, f2, f3))

    @property
    def field(self) -> PrimeField:
        return self.polys[0].field

    @property
    def prime(self) -> int:
        return self.field.p

    def __repr__(self):
        return f"QciInput(degrees={self.degrees}, p={self.prime})"


@dataclass(frozen=True)
class HilbertTable:
    """Quotient Hilbert values for k = 0 .. k_max and the window's anchors.

    The plateau of a finite or empty scheme is the report's ``t``.
    """

    values: tuple[int, ...]
    k_star: int
    k_max: int


@dataclass(frozen=True)
class SyzygyTable:
    window: tuple[int, int]
    dims: tuple[tuple[int, int], ...]
    r: int


@dataclass(frozen=True)
class BoundsI:
    lower: int
    upper: int
    lower_ok: bool
    upper_ok: bool


@dataclass(frozen=True)
class BoundsII:
    applicable: bool
    bound: int | None
    ok: bool | None


@dataclass(frozen=True)
class Classification:
    tag: str
    case: int | None
    e_type: tuple[int, int] | None
    resolution: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True, kw_only=True)
class QciReport:
    prime: int
    degrees: tuple[int, int, int]
    dimension_class: str
    refusal: str | None = None
    t: int | None = None
    r: int | None = None
    gamma: int | None = None
    c2_at_r: int | None = None
    m0: int | None = None
    h1_at_m0: int | None = None
    splits: bool | None = None
    bounds_i: BoundsI | None = None
    bounds_ii: BoundsII | None = None
    generator_degrees: tuple[int, ...] | None = None
    classification: Classification | None = None
    resolution_verified: bool | None = None
    hilbert: HilbertTable
    syzygies: SyzygyTable | None = None


def theorem_bounds(a: int, b: int, c: int, r: int, t: int) -> tuple[BoundsI, BoundsII]:
    """The Theorem's bounds on t for sorted degrees a <= b <= c and syzygy degree r.

    Bound (i) is c(a+b-c-r) <= t <= r^2 + r(c-a-b) + ab; where 2r > a+b-c,
    bound (ii) sharpens the upper end by the binomial (c-a-b+2r+1 choose 2).
    """
    lower = c * (a + b - c - r)
    upper = r * r + r * (c - a - b) + a * b
    bi = BoundsI(lower=lower, upper=upper, lower_ok=lower <= t, upper_ok=t <= upper)
    if 2 * r > a + b - c:
        cut = (c - a - b + 2 * r + 1) * (c - a - b + 2 * r) // 2
        bound = upper - cut
        return bi, BoundsII(applicable=True, bound=bound, ok=t <= bound)
    return bi, BoundsII(applicable=False, bound=None, ok=None)


def _c2(a: int, b: int, c: int, t: int, r: int) -> int:
    # second Chern number of the minimally twisted syzygy bundle E(r)
    value = r * (c - a - b) + a * b - t + r * r
    if value < 0:
        raise InternalError(
            f"second Chern number {value} of the minimally twisted syzygy "
            "bundle is negative; computation is inconsistent"
        )
    return value


def _gamma(a: int, c: int, t: int) -> int:
    # degree of the scheme linked to T by the pencil of the two outer forms;
    # t counts rows, so g <= ac
    g = a * c - t
    if g < 0:
        raise InternalError(
            f"residual degree {g} outside [0, {a * c}]; "
            "the scheme degree exceeds the pencil degree product"
        )
    return g


def _split_flag(h1: int, c2: int) -> bool:
    # E splits: h^1(E(m0)) = 0 and c2 = 0 must agree
    by_h1 = h1 == 0
    by_c2 = c2 == 0
    if by_h1 != by_c2:
        raise InternalError(
            "splitting tests disagree: vanishing middle cohomology says "
            f"{by_h1} but the Chern criterion says {by_c2}"
        )
    return by_h1


def _classify(a: int, b: int, c: int, t: int, r: int, c2: int) -> Classification:
    """Extremal class of a finite scheme from its degrees, t, r and c2.

    The three near-minimal cases need no Chern check: on their own
    (a, b, c, t, r), c2 = r(c-a-b) + ab - t + r^2 is 1 in case 1 and 0 in
    cases 2 and 3.
    """
    split_e = (-r, c - a - b + r)
    split_res = ((c + r, a + b - r), (a, b, c))
    c2one_res = ((c + r - 1, c + r - 1, a + b - r), (c + r - 2, a, b, c))

    if r == a - c:
        if t != a * c:
            raise InternalError(
                f"minimal twist {r} forces a pencil intersection of degree "
                f"{a * c}, but the scheme degree is {t}"
            )
        return Classification(
            tag="complete-intersection",
            case=None,
            e_type=split_e,
            resolution=((a + c,), (a, c)),
        )
    if r == a - c + 1:
        if b > a + 1:
            raise InternalError(
                f"minimal twist {r} is incompatible with degrees "
                f"({a}, {b}, {c}); the middle degree may exceed a by at most 1"
            )
        if a == b and t == c * (a - 1):
            return Classification(
                tag="r-eq-a-minus-c-plus-1", case=1, e_type=None,
                resolution=c2one_res,
            )
        if a == b and t == c * (a - 1) + 1:
            return Classification(
                tag="aci-split", case=2, e_type=split_e, resolution=split_res
            )
        if b == a + 1 and t == a * c:
            return Classification(
                tag="r-eq-a-minus-c-plus-1", case=3, e_type=split_e,
                resolution=split_res,
            )
        raise InternalError(
            f"minimal twist {a - c + 1} with signature (a={a}, b={b}, t={t}) "
            "matches none of the three admissible cases"
        )
    if c2 == 0:
        if 2 * r > a + b - c:
            raise InternalError(
                f"split bundle with minimal twist {r} violates 2r <= a+b-c"
            )
        return Classification(
            tag="aci-split", case=None, e_type=split_e, resolution=split_res
        )
    if c2 == 1:
        if 2 * r > a + b - c + 1:
            raise InternalError(
                f"Chern-one bundle with minimal twist {r} violates "
                "2r <= a+b-c+1"
            )
        return Classification(
            tag="c2-one-resolution", case=None, e_type=None, resolution=c2one_res
        )
    return Classification(tag="generic", case=None, e_type=None, resolution=None)


# -- eliminations ----------------------------------------------------------
#
# rank and kernel_basis are called from these frames alone: a linalg trace
# names an elimination's stage by its caller.


def graded_map_matrix(Q: QciInput, m: int) -> np.ndarray:
    # Built afresh on each call: a map is cheap to rebuild, and keeping all
    # of them would only hold tens of MB at the larger degrees.
    return np.hstack([mult_matrix(f, m - f.degree) for f in Q.polys])


def rank_at(Q: QciInput, m: int) -> int:
    """Rank of the degree-m map, one plain rank.

    Below degree max(a-1, 0) the map has no columns: its rank is 0, and
    nothing is built.
    """
    if m < max(Q.degrees[0] - 1, 0):
        return 0
    return rank(graded_map_matrix(Q, m), Q.field)


def kernel_at(Q: QciInput, m: int) -> np.ndarray:
    # a basis of the degree-m map's kernel, its columns in x-order
    return kernel_basis(graded_map_matrix(Q, m)[:, _x_order(Q.degrees, m)], Q.field)


def _raise_columns(degrees, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of degree m that y sends the x-free multipliers of
    degree m-1 to, and those of the new multipliers z^(m-a_i).

    This is the generator lifts' raise rule: there form i's multipliers
    y^(e-q) z^q, q = 0 .. e, fill one block per form of these degrees, in
    turn.  One degree up, y keeps q, z moves it to q+1 (one column on), and
    each nonempty block gains z^(m-a_i) at its end.
    """
    up, new, at = [], [], 0
    for d in degrees:
        size = m - d + 1
        if size > 0:
            up += range(at, at + size - 1)
            at += size
            new.append(at - 1)
    return np.array(up, dtype=np.intp), np.array(new, dtype=np.intp)


class _Carried:
    """What the x-steps read once per input, and the echelon form of
    [B_T^T | I] that they carry (``_carry``), allocated for the whole
    window up to k_max and grown in place.

    Form i's x-free multiplier y^(e-q) z^q has one unit column for the
    window, ``columns[i][q]``, q = 0 .. k_max - a_i: the rank of
    (a_i + q, i) in birth order, the degree where it enters as z^q, ties
    broken by form.  The multipliers of degree T are then the first
    sum_i max(T - a_i + 1, 0).  ``binary[i]`` holds g_i's x-free
    coefficients, on y^(a_i-k) z^k for k = 0 .. a_i.  ``terms[i]`` holds
    where y^e times each of f_i's terms divisible by x sits in its degree,
    one row per e = 0 .. k_max - a_i, and those terms' coefficients.

    A row (b | e) has b on the binary columns z^0 .. z^k_max and e on the
    unit columns after them, with b = e B_T^T.  ``rows[:r]`` are the pivot
    rows, each b 1 at its pivot column ``piv[k]`` and 0 at the other
    pivots; ``syzygies[:s]`` hold the units z of the syzygy rows (0 | z),
    a basis of ker B_T.
    """

    __slots__ = (
        "degrees", "columns", "binary", "terms", "rows", "piv", "r", "syzygies", "s"
    )

    def __init__(self, forms, k_max: int):
        self.degrees = [f.degree for f in forms]
        a = np.array(self.degrees)
        self.columns, self.binary, self.terms = [], [], []
        for i, f in enumerate(forms):
            e = np.arange(k_max - f.degree + 1)[:, None]
            # the degrees a_i + q at which form i's multipliers enter
            m = f.degree + e
            self.columns.append(
                np.maximum(m - a, 0).sum(axis=1) + (a[:i] <= m).sum(axis=1)
            )
            # each term's j+k and k, for x^i y^j z^k, and its coefficient;
            # the terms divisible by x come first
            yz, z, c = f._term_arrays()
            by_x = np.count_nonzero(yz < f.degree)
            g = np.zeros(f.degree + 1, dtype=np.int64)
            g[z[by_x:]] = c[by_x:]
            self.binary.append(g)
            # y^e x^i y^j z^k sits at s(s+1)/2 + k, s = e + j + k (see
            # poly._positions)
            s = e + yz[:by_x]
            self.terms.append((s * (s + 1) // 2 + z[:by_x], c[:by_x, None]))
        n = sum(cols.size for cols in self.columns)
        self.rows = np.zeros((min(n, k_max + 1), k_max + 1 + n), dtype=np.int64)
        self.piv = np.zeros(self.rows.shape[0], dtype=np.intp)
        self.syzygies = np.zeros((n, n), dtype=np.int64)
        self.r = self.s = 0


def _x_block(carried: _Carried, T: int) -> np.ndarray:
    """A: the x-free multipliers' columns of the degree-T map, in birth
    order, on its x-divisible rows, the first dim_S(T-1).

    Only f_i's terms divisible by x land there, y^(e-q) z^q times one of
    them q rows after y^e, e = T - a_i (``_Carried.terms``); its x-free
    terms, g_i, make B_T, which no step builds.
    """
    C = carried
    exps = [T - a for a in C.degrees]
    A = np.zeros((dim_S(T - 1), sum(max(e + 1, 0) for e in exps)), dtype=np.int64)
    for e, cols, (rows, coeffs) in zip(exps, C.columns, C.terms):
        if e >= 0:
            A[rows[e][:, None] + np.arange(e + 1), cols[: e + 1]] = coeffs
    return A


def _carry(field: PrimeField, T: int, carried: _Carried) -> None:
    """Grow the carried echelon form of [B_{T-1}^T | I] to that of B_T.

    Raising T multiplies every old multiplier by y: its binary row keeps
    its entries, with a 0 at z^T, and its unit column, so the old rows stay
    as they are.  Each form with a_i <= T adds the multiplier z^q,
    q = T - a_i, whose row is (z^q g_i | its unit): g_i's coefficients at
    the binary columns q .. T.  The new rows, at most three, are inserted
    one at a time, in form order.  A row is reduced at the pivot columns by
    one product with the pivot rows.  If its binary part is then nonzero,
    it becomes a pivot row: it is scaled at its first nonzero binary
    column, and one broadcast rank-one update clears that column from the
    other pivot rows.  Otherwise its units join the syzygy rows.

    The reducing product sums at most T+1 terms, each a product of residues
    below p**2, with T+1 <= k_max+1 = a+b+c+2 <= p+1 (or T+1 <= 4 for
    a+b+c < 2), so it stays below p**3 < 2**63; the scaling and the
    rank-one update hold one such product per entry.
    """
    p = field.p
    C = carried
    units = C.rows.shape[1] - C.syzygies.shape[1]
    for a, g, cols in zip(C.degrees, C.binary, C.columns):
        q = T - a
        if q < 0:
            continue
        row = np.zeros(C.rows.shape[1], dtype=np.int64)
        row[q : T + 1] = g
        row[units + cols[q]] = 1
        r = C.r
        if r:
            row -= row[C.piv[:r]] @ C.rows[:r]
            row %= p
        found = row[: T + 1].nonzero()[0]
        if found.size:
            j = found[0]
            row = row * pow(int(row[j]), -1, p) % p
            C.rows[:r] -= C.rows[:r, j, None] * row
            C.rows[:r] %= p
            C.rows[r], C.piv[r] = row, j
            C.r = r + 1
        else:
            C.syzygies[C.s] = row[units:]
            C.s += 1


def left_null(Q: QciInput, T: int, N_prev: np.ndarray, carried: _Carried):
    """N_T, a basis of the degree-T map's left null space, from N_prev = N_{T-1}.

    One x-step (see the module docstring), with the echelon form of the
    binary block carried from degree T-1 and grown to T (``_carry``): with
    A the x-free multipliers' columns on the dim_S(T-1) rows that x times
    the degree-(T-1) monomials fill, in birth order, and E = [E_p; Z] the
    carried rows' units, [N_prev A; B] E^T = [[X, Y], [B_p^T, 0]].  Its
    left kernel is (lam | w) for lam in Lam = kernel_basis(Y^T), w = -lam X
    at the pivot columns and 0 at the free binary columns, and (0 | w) for
    each free binary column j, w = 1 at j, 0 at the other free columns and
    -b_k[j] at the pivot columns.  Returns N_T = [Lam N_prev | W] and the
    carried state, grown to degree T.

    The products are ``matmul``'s, exact at any inner dimension.
    """
    p = Q.prime
    _carry(Q.field, T, carried)
    C = carried
    r, n = C.r, C.r + C.s
    units = C.rows.shape[1] - C.syzygies.shape[1]
    A = _x_block(C, T)
    D = N_prev.shape[1]
    E = np.concatenate((C.rows[:r, units : units + n], C.syzygies[: C.s, :n]))
    XY = matmul(matmul(N_prev, A, p), E.T, p)
    # where Y is 0, or has no entry, Lam is the identity
    if XY[:, r:].any():
        L = kernel_basis(XY[:, r:].T, Q.field)
        N_prev = matmul(L, N_prev, p)
        XY = matmul(L, XY[:, :r], p)
    h = N_prev.shape[0]
    piv = C.piv[:r]
    free = np.ones(T + 1, dtype=bool)
    free[piv] = False
    free = free.nonzero()[0]
    N = np.zeros((h + free.size, D + T + 1), dtype=np.int64)
    N[:h, :D] = N_prev
    N[:h, D + piv] = -XY[:, :r] % p
    N[h + np.arange(free.size), D + free] = 1
    N[h:, D + piv] = -C.rows[:r, free].T % p
    return N, carried


def _x_order(degrees, m: int) -> np.ndarray:
    """The degree-m map's columns, for forms of these degrees, by falling
    x-exponent of their monomial, stable within each form's block.

    A monomial's position in its degree does not depend on its x-exponent,
    so the columns of x-exponent >= g are x^g times the degree-(m-g) map:
    the first cols(m-g) columns in this order, in that map's own x-order,
    holding its matrix in the first dim_S(m-g) rows and zero below.
    """
    x = np.concatenate(
        [np.array([mono[0] for mono in monomial_basis(m - d)], dtype=np.int64)
         for d in degrees]
    )
    return np.argsort(-x, kind="stable")


def _free_columns(K: np.ndarray) -> np.ndarray:
    # the free column of each row of a kernel_basis: its last nonzero entry
    return K.shape[1] - 1 - np.argmax(K[:, ::-1] != 0, axis=1)


def _cols(Q: QciInput, m: int) -> int:
    # columns of the degree-m map
    return sum(dim_S(m - f.degree) for f in Q.polys)


def _generator_degrees(
    Q: QciInput, values: tuple[int, ...], tails: dict[int, np.ndarray]
) -> tuple[int, ...]:
    """New minimal syzygy generators per twist, scanned over a-c .. a+b-c+1.

    A twist-k syzygy already reachable as (linear form) * (twist k-1
    syzygy) is not new.  Setting x = 0 maps K_m onto V_m, the x-free
    coordinates, with kernel x K_{m-1}, as S is a domain; it maps
    S_1 K_{m-1} onto y V_{m-1} + z V_{m-1}.  So the count of new ones at
    twist k = m - c is h^0(E(k)) - h^0(E(k-1)) - rank [y V_{m-1}; z V_{m-1}],
    read from the window's tails and placed by the raise rule
    (``_raise_columns``).  Twists above the range are not scanned, so the
    multiset is a truncation, not a Betti table.
    """
    a, b, c = Q.degrees
    gens: list[int] = []
    for k in range(a - c, a + b - c + 2):
        m = k + c
        V = tails[m - 1]
        new = _h0E(Q, values, k) - _h0E(Q, values, k - 1)
        h = V.shape[0]
        if h:
            up, ends = _raise_columns(Q.degrees, m)
            lifted = np.zeros((2 * h, up.size + ends.size), dtype=np.int64)
            lifted[:h, up] = V
            lifted[h:, up + 1] = V
            new -= rank(lifted, Q.field)
        if new < 0:
            raise InternalError(
                "lifted syzygies exceed the kernel dimension at twist "
                f"{k}; multiplication lift is broken"
            )
        gens.extend([k] * new)
    return tuple(gens)


# -- the Hilbert window ------------------------------------------------------


def _check_annihilation(Q: QciInput, N: np.ndarray, m: int) -> None:
    """The stepped N_m must annihilate the degree-m map, or InternalError.

    N times form f's block, mult_matrix(f, m - deg f), is the sum over f's
    terms of the coefficient times N's columns at the term's products
    (``term_positions``), gathered apart from the steps' columns and
    without building the block.  The gather takes a run of the block's
    columns at a time, so that it holds no more entries than dim S_m times
    the wider of N's height and the last x-step's block of x-free
    columns.  A sum adds products below p**2 over at most
    2**62 // (p-1)**2 terms before it is reduced, so it stays exact in
    int64.
    """
    p = Q.prime
    h = N.shape[0]
    if not h:
        # no functional: nothing to annihilate
        return
    forms = [f for f in Q.polys if not f.is_zero]
    budget = dim_S(m) * max(h, sum(m - f.degree + 1 for f in forms))
    # N's columns as rows, so that a gather reads contiguous rows
    Nt = np.ascontiguousarray(N.T)
    run = (1 << 62) // (p - 1) ** 2
    for f in forms:
        e = m - f.degree
        coeffs = np.fromiter(f.coeffs.values(), dtype=np.int64)
        # at least 1: f has at most dim S_m terms, and h <= budget / dim S_m
        width = budget // (coeffs.size * h)
        for lo in range(0, dim_S(e), width):
            rows = term_positions(f, e, lo, lo + width)
            acc = np.zeros(rows.shape[1] * h, dtype=np.int64)
            for s in range(0, coeffs.size, run):
                acc += coeffs[s : s + run] @ Nt[rows[s : s + run]].reshape(-1, acc.size)
                acc %= p
            if acc.any():
                raise InternalError(
                    f"stepped inverse system in degree {m} does not annihilate "
                    "the ideal; the x-step is broken"
                )


def _hilbert_window(Q: QciInput) -> tuple[HilbertTable, dict[int, np.ndarray]]:
    """Every elimination of the Hilbert window: one map and the x-steps.

    The x-steps (``left_null``) carry N_T from the least degree of a
    nonzero form up to k_max, N being the identity below it, where the
    ideal is zero, and with it the echelon form of [B_T^T | I] for the
    binary block B_T (``_carry``), which starts with no multiplier; HF(T)
    is the row count of N_T, and N_{k_max} is checked against the
    degree-k_max map.  One kernel of the degree-(a+b+1) map in
    x-order gives, over max(a-1, 0) .. a+b, the x-free tails V_m of K_m
    that the generator lifts read: its rows whose free column lies in the
    first cols(m) columns, cut to them, are a basis of K_m (see
    ``_x_order``); the last n_m = cols(m) - cols(m-1) of those columns are
    x-free, in block order, and only the rows whose free column lies there
    are nonzero on them, a basis of V_m.  The top kernel's prefix ranks,
    from other matrices than the steps', must give the same
    HF(0 .. a+b+1); the elimination is made at a+b+1, one degree above the
    last tail, for that check of HF(a+b+1).  Returns the quotient Hilbert
    values on 0 .. k_max and the kept V_m, keyed by degree.
    """
    a, b, c = Q.degrees
    k_star = a + b + c - 2
    k_max = max(k_star, 0) + _TAIL - 1
    forms = [f for f in Q.polys if not f.is_zero]
    low = min(f.degree for f in forms)
    N = np.eye(dim_S(low - 1), dtype=np.int64)
    # no multiplier yet: no row
    carried = _Carried(forms, k_max)
    values = [dim_S(T) for T in range(low)]
    for T in range(low, k_max + 1):
        N, carried = left_null(Q, T, N, carried)
        values.append(N.shape[0])
    # freed before the checks and the top kernel, which set the peak
    del carried
    _check_annihilation(Q, N, k_max)
    top = a + b + 1
    K = kernel_at(Q, top)
    free = _free_columns(K)
    tails: dict[int, np.ndarray] = {}
    prev = 0
    for m in range(top + 1):
        n = _cols(Q, m)
        # the degree-m map is the first n columns, whose pivots are those
        # that are not free
        if values[m] != dim_S(m) - n + int(np.count_nonzero(free < n)):
            raise InternalError(
                f"x-steps give HF({m}) = {values[m]}, but the x-ordered "
                f"degree-{top} map's prefix rank disagrees"
            )
        if a - 1 <= m < top:
            tails[m] = K[(prev <= free) & (free < n), prev:n]
        prev = n
    table = HilbertTable(values=tuple(values), k_star=k_star, k_max=k_max)
    return table, tails


def _dimension_tag(table: HilbertTable) -> tuple[str, int | None]:
    """Dimension class and t from the window's last four Hilbert values.

    All zero is empty, constant is dim0, strictly increasing is dim_ge_1
    (see the module docstring); anything else is a fault.
    """
    tail = table.values[-_TAIL:]
    if not any(tail):
        return "empty", 0
    if all(v == tail[0] for v in tail):
        return "dim0", tail[0]
    if all(x < y for x, y in zip(tail, tail[1:])):
        return "dim_ge_1", None
    raise InternalError(
        f"quotient Hilbert tail {list(tail)} at k = {max(table.k_star, 0)}.."
        f"{table.k_max} (k* = {table.k_star}) is neither constant nor "
        "strictly increasing"
    )


def _finite_window(Q: QciInput) -> HilbertTable:
    # the Hilbert window of a finite nonempty scheme; a refusal is a GuardError
    table, _ = _hilbert_window(Q)
    tag = _dimension_tag(table)[0]
    if tag != "dim0":
        raise GuardError(f"operation needs a finite nonempty scheme; input is {tag}")
    return table


# -- arithmetic on the window's values ---------------------------------------
#
# ``values`` are the Hilbert window's, so the degree-m map has rank
# dim_S(m) - values[m] for m <= k_max; where t is read, the scheme is finite
# and nonempty, and t is values[-1].


def _h0E(Q: QciInput, values: tuple[int, ...], k: int) -> int:
    # syzygies of twist k: the kernel of the degree-(k+c) map
    m = k + Q.degrees[2]
    if m < 0:
        return 0
    return _cols(Q, m) - dim_S(m) + values[m]


def _syzygy_table(Q: QciInput, values: tuple[int, ...]) -> SyzygyTable:
    a, b, c = Q.degrees
    lo, hi = a - c, a + b - c
    dims = tuple((k, _h0E(Q, values, k)) for k in range(lo, hi + 1))
    r = next((k for k, d in dims if d > 0), None)
    if r is None:
        raise InternalError(
            "no syzygy found in the guaranteed window "
            f"[{lo}, {hi}]; the Koszul relation must appear there"
        )
    return SyzygyTable(window=(lo, hi), dims=dims, r=r)


def _saturation_dim(Q: QciInput, values: tuple[int, ...], m: int) -> int:
    """Dimension of the saturation of I in degree m.

    Read off t and the kernel dimension h^0(E(m')) of the degree
    m' = a+b+c-3-m map by the identity in the module docstring; m' lies
    below k*, so the rank is the Hilbert window's and nothing is
    eliminated at any m.
    """
    if m < 0:
        return 0
    a, b, _ = Q.degrees
    # h^0(E(m')) is the kernel of the degree-m' map, at twist m' - c
    h0 = _h0E(Q, values, a + b - 3 - m)
    shifts = sum(dim_S(m - f.degree) - _chi(m - f.degree) for f in Q.polys)
    return _chi(m) - values[-1] + shifts + h0


def _h1E(Q: QciInput, values: tuple[int, ...], k: int) -> int:
    m = Q.degrees[2] + k
    if m < 0:
        return 0
    # the ideal's dimension; above the window HF(m) = t, the plateau
    ideal = dim_S(m) - (values[m] if m < len(values) else values[-1])
    v = _saturation_dim(Q, values, m) - ideal
    if v < 0:
        raise InternalError(
            f"saturation lost ideal elements in degree {m}; "
            "saturation must contain the ideal"
        )
    return v


def _verify_resolution(
    Q: QciInput, values: tuple[int, ...], u: tuple[int, ...], v: tuple[int, ...]
) -> bool:
    """Numeric check of a claimed resolution 0 -> +O(-u) -> +O(-v) -> I -> 0.

    Compares the alternating sum of graded dimensions against the
    saturation, and the alternating Euler characteristic against t, in
    every degree 0 .. k_max of the Hilbert window.  A true resolution
    holds in any degree, since H^1(O(k)) = 0 for every k; a false one
    shows only in the low degrees, as from k*-1 on the saturation is
    dim S_m - t and the check there is arithmetic on t.
    """
    t = values[-1]
    for m in range(len(values)):
        predicted = sum(dim_S(m - vj) for vj in v) - sum(dim_S(m - ui) for ui in u)
        if _saturation_dim(Q, values, m) != predicted:
            return False
        euler = _chi(m) - (
            sum(_chi(m - vj) for vj in v) - sum(_chi(m - ui) for ui in u)
        )
        if euler != t:
            return False
    return True


# -- public operations ----------------------------------------------------
#
# quotient_hilbert ranks one degree; every other entry point runs the whole
# Hilbert window, as ``analyze_qci`` does, and skips only the arithmetic and
# the lifts it does not read.  Those that need t refuse a scheme that is not
# finite with a GuardError.


def quotient_hilbert(Q: QciInput, k: int) -> int:
    if k < 0:
        raise GuardError("quotient Hilbert values are defined for k >= 0")
    return dim_S(k) - rank_at(Q, k)


def dimension_class(Q: QciInput) -> tuple[str, int | None]:
    return _dimension_tag(_hilbert_window(Q)[0])


def degree_t(Q: QciInput) -> int:
    return _finite_window(Q).values[-1]


def saturation_dim(Q: QciInput, m: int) -> int:
    return _saturation_dim(Q, _finite_window(Q).values, m)


def h1_E(Q: QciInput, k: int) -> int:
    return _h1E(Q, _finite_window(Q).values, k)


def verify_resolution(
    Q: QciInput,
    resolution: tuple[tuple[int, ...], tuple[int, ...]],
) -> bool:
    u, v = resolution
    return _verify_resolution(Q, _finite_window(Q).values, tuple(u), tuple(v))


def analyze_qci(Q: QciInput) -> QciReport:
    """Full invariant battery for one input, in one pass.

    The Hilbert window makes every elimination but the generator lifts;
    every other value is arithmetic on its values and on (a, b, c, t, r),
    computed once, in the order below.
    """
    table, tails = _hilbert_window(Q)
    tag, t = _dimension_tag(table)
    if tag != "dim0":
        refusal = (
            "empty scheme: the three forms have no common zero"
            if tag == "empty"
            else "positive-dimensional common zero locus; invariants need a "
            "finite scheme"
        )
        return QciReport(
            prime=Q.prime,
            degrees=Q.degrees,
            dimension_class=tag,
            refusal=refusal,
            t=t,
            hilbert=table,
        )
    a, b, c = Q.degrees
    values = table.values
    syz = _syzygy_table(Q, values)
    r = syz.r
    c2 = _c2(a, b, c, t, r)
    gamma = _gamma(a, c, t)
    bi, bii = theorem_bounds(a, b, c, r, t)
    # the twist at which the normalized bundle criterion reads h^1: the
    # first Chern number of E(m0) must land in {-2, -3}
    m0 = (a + b - c - 2) // 2
    h1 = _h1E(Q, values, m0)
    split_flag = _split_flag(h1, c2)
    cls = _classify(a, b, c, t, r, c2)
    verified = None
    if cls.resolution is not None:
        verified = _verify_resolution(Q, values, *cls.resolution)
        if not verified:
            raise InternalError(
                f"predicted resolution for tag {cls.tag} failed numeric "
                "verification"
            )
    return QciReport(
        prime=Q.prime,
        degrees=Q.degrees,
        dimension_class=tag,
        t=t,
        r=r,
        gamma=gamma,
        c2_at_r=c2,
        m0=m0,
        h1_at_m0=h1,
        splits=split_flag,
        bounds_i=bi,
        bounds_ii=bii,
        generator_degrees=_generator_degrees(Q, values, tails),
        classification=cls,
        resolution_verified=verified,
        hilbert=table,
        syzygies=syz,
    )
