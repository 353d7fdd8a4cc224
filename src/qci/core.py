"""Invariants of a triple of forms cutting out a finite plane scheme.

All invariants are obtained by degreewise linear algebra over the prime
field.  For a triple with sorted degrees a <= b <= c the central object is
the evaluation map

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

At the top of the Hilbert window the maps are the largest while the
quotient is small, so there the engine carries the inverse system
(Macaulay) instead: from degree c on, I_{m+1} = S_1 * I_m, hence

    I_{m+1}^perp = { L : x_i -| L lies in I_m^perp for i = 0, 1, 2 },

and a basis N_m of I_m^perp (the left null space of the map) is stepped
to N_{m+1} by the integration method (Mourrain, JPAA 1997): the unknowns
are the coordinates of the three contractions x_i -| L in the basis N_m,
bound by one compatibility equation per pair of variables and per
degree-(m-1) monomial.  The system has 3*HF(m) unknowns, and its kernel
has dimension HF(m+1).  The chain starts at the first degree
m >= max(c, a+b+2), above the syzygy window, where a shape-only cost
estimate puts the step into m+1 at under a quarter of the direct
elimination of that degree's map (see ``_Analysis._switches_at``); degree
m eliminates its transposed map for N_m in place of a plain rank, so the
chain's first new degree is already a step.  Sparse maps with a large
quotient, such as the pencil of lines, stay direct.  Where the chain
reaches the top of the window, N is multiplied against the direct map
there and must annihilate it exactly, or the run fails with InternalError.

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

Each degree's map is eliminated at most once, in ``_Analysis.rank_at``,
which keeps the one kernel a later stage reads: N_m on the chain (stepped,
or eliminated at its start), and the right kernel K_m over the syzygy
window [a-1, a+b+1] (lift degree, window, twist above), whose row count is
h^0(E(m-c)).  S is a domain, so x times a degree-m syzygy is a nonzero
syzygy of degree m+1, and h^0(E(k)) never drops as k grows: below an
injective degree every degree is injective.  ``dimension`` ranks the
window from the top down, so of the injective degrees below the least
syzygy degree r+c only r+c-1 is eliminated; the ones below it keep the
empty K_m an elimination would give.  The saturation and the resolution
check only read ranks of the window, so ``analyze_qci`` eliminates nothing
above k_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalError
from .linalg import PrimeField, kernel_basis, matmul, rank
from .poly import (
    HomogPoly,
    dim_S,
    mult_matrix,
    shift_index,
)

# the Hilbert window ends this many values past the anchor max(k*, 0)
_TAIL = 4

# pairs of variables whose contractions of one functional must commute
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _chi(k: int) -> int:
    # Euler characteristic polynomial of O(k) on the plane, valid for all k
    return (k + 1) * (k + 2) // 2


class QciInput:
    """Three homogeneous forms, stored sorted by degree a <= b <= c."""

    __slots__ = ("polys",)

    def __init__(self, polys: tuple[HomogPoly, HomogPoly, HomogPoly]):
        self.polys = polys

    @classmethod
    def of(cls, f1: HomogPoly, f2: HomogPoly, f3: HomogPoly) -> "QciInput":
        triple = (f1, f2, f3)
        if f1.field != f2.field or f1.field != f3.field:
            raise GuardError("all three forms must live over the same prime field")
        if all(f.is_zero for f in triple):
            raise GuardError("at least one form must be nonzero")
        p = f1.field.p
        total = f1.degree + f2.degree + f3.degree
        if p <= total:
            raise GuardError(
                f"prime {p} too small for degrees summing to {total}; need p > a+b+c"
            )
        polys = tuple(sorted(triple, key=lambda f: f.degree))
        if polys[0].is_zero and polys[0].degree < polys[1].degree:
            # the invariants need Fa != 0: a zero form of least degree
            # puts a syzygy at twist a - c, which forces t = a*c, while
            # the scheme is V(Fb, Fc) of degree b*c
            raise GuardError(
                f"the form of least degree {polys[0].degree} is zero; a zero "
                "form must tie in degree with another form"
            )
        return cls(polys)

    @property
    def degrees(self) -> tuple[int, int, int]:
        return tuple(f.degree for f in self.polys)

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
    """Quotient Hilbert values for k = 0 .. k_max plus plateau bookkeeping."""

    values: tuple[int, ...]
    k_star: int
    k_max: int
    plateau: int | None


@dataclass(frozen=True)
class SyzygyTable:
    window: tuple[int, int]
    dims: tuple[tuple[int, int], ...]
    r: int
    generator_degrees: tuple[int, ...]


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


@dataclass(frozen=True)
class QciReport:
    prime: int
    degrees: tuple[int, int, int]
    dimension_class: str
    refusal: str | None
    t: int | None
    r: int | None
    gamma: int | None
    c2_at_r: int | None
    m0: int | None
    h1_at_m0: int | None
    splits: bool | None
    bounds_i: BoundsI | None
    bounds_ii: BoundsII | None
    generator_degrees: tuple[int, ...] | None
    classification: Classification | None
    resolution_verified: bool | None
    hilbert: HilbertTable
    syzygies: SyzygyTable | None

    def to_dict(self) -> dict:
        """Plain-data view with a fixed key order, safe to serialize."""
        cls = None
        if self.classification is not None:
            res = None
            if self.classification.resolution is not None:
                u, v = self.classification.resolution
                res = {"u": [int(x) for x in u], "v": [int(x) for x in v]}
            cls = {
                "tag": self.classification.tag,
                "case": self.classification.case,
                "e_type": (
                    None
                    if self.classification.e_type is None
                    else [int(x) for x in self.classification.e_type]
                ),
                "resolution": res,
            }
        syz = None
        if self.syzygies is not None:
            syz = {
                "window": [int(x) for x in self.syzygies.window],
                "dims": [[int(k), int(v)] for k, v in self.syzygies.dims],
                "r": int(self.syzygies.r),
            }
        return {
            "dimension_class": self.dimension_class,
            "refusal": self.refusal,
            "t": _opt_int(self.t),
            "r": _opt_int(self.r),
            "gamma": _opt_int(self.gamma),
            "c2_at_r": _opt_int(self.c2_at_r),
            "m0": _opt_int(self.m0),
            "h1_at_m0": _opt_int(self.h1_at_m0),
            "splits": self.splits,
            "bounds_i": (
                None
                if self.bounds_i is None
                else {
                    "lower": int(self.bounds_i.lower),
                    "upper": int(self.bounds_i.upper),
                    "lower_ok": self.bounds_i.lower_ok,
                    "upper_ok": self.bounds_i.upper_ok,
                }
            ),
            "bounds_ii": (
                None
                if self.bounds_ii is None
                else {
                    "applicable": self.bounds_ii.applicable,
                    "bound": _opt_int(self.bounds_ii.bound),
                    "ok": self.bounds_ii.ok,
                }
            ),
            "generator_degrees": (
                None
                if self.generator_degrees is None
                else [int(x) for x in self.generator_degrees]
            ),
            "classification": cls,
            "resolution_verified": self.resolution_verified,
            "hilbert": {
                "k_star": int(self.hilbert.k_star),
                "k_max": int(self.hilbert.k_max),
                # schema 1 keeps the key; the window is fixed
                "extensions": 0,
                "plateau": _opt_int(self.hilbert.plateau),
                "values": [int(v) for v in self.hilbert.values],
            },
            "syzygies": syz,
        }


def _opt_int(x):
    return None if x is None else int(x)


def _contraction_system(N: np.ndarray, m: int, p: int) -> np.ndarray:
    """Equations on the contractions of a degree-(m+1) functional.

    The rows of N span the functionals on degree-m forms that vanish on
    I_m.  A functional L of degree m+1 with x_i -| L = c_i N for
    i = 0, 1, 2 exists exactly when (c_i N)[beta + e_j] = (c_j N)[beta + e_i]
    for every pair i < j and every monomial beta of degree m-1.  Returns
    the 3*dim_S(m-1) x 3*h matrix of these equations in the unknowns
    (c_0, c_1, c_2), h = rows of N; its right kernel is I_{m+1}^perp.
    """
    h = N.shape[0]
    D = dim_S(m - 1)
    A = np.zeros((len(_PAIRS) * D, 3 * h), dtype=np.int64)
    for q, (i, j) in enumerate(_PAIRS):
        eqs = A[q * D : (q + 1) * D]
        eqs[:, i * h : (i + 1) * h] = N[:, shift_index(m - 1, j)].T
        eqs[:, j * h : (j + 1) * h] = (-N[:, shift_index(m - 1, i)].T) % p
    return A


def _integrate(C: np.ndarray, N: np.ndarray, m: int, p: int) -> np.ndarray:
    """The degree-(m+1) functionals whose contractions are C's rows over N.

    Each monomial of degree m+1 is read off one contraction: x times a
    degree-m monomial keeps its position, which covers the first dim_S(m)
    positions; the rest have no x and are y or z times one of the last
    m+1 monomials of degree m (x-free, in order), z^(m+1) coming from z^m.
    """
    h = N.shape[0]
    return np.hstack(
        [
            matmul(C[:, :h], N, p),
            matmul(C[:, h : 2 * h], N[:, -(m + 1) :], p),
            matmul(C[:, 2 * h :], N[:, -1:], p),
        ]
    )


class _Analysis:
    """Per-input computation engine with degreewise caches.

    Every method is deterministic; caches only memoize pure functions of
    the input, so evaluation order never changes a result.
    """

    def __init__(self, Q: QciInput):
        self.Q = Q
        self.field = Q.field
        a, b, c = Q.degrees
        self.a, self.b, self.c = a, b, c
        self.k_star = a + b + c - 2
        # stabilization anchor: the Hilbert window is 0 .. anchor + _TAIL - 1
        self.anchor = max(self.k_star, 0)
        self._ranks: dict[int, int] = {}
        # right kernels K_m and the chain's left null spaces N_m, kept by rank_at
        self._kernels: dict[int, np.ndarray] = {}
        self._left: dict[int, np.ndarray] = {}
        # degrees whose N_m belongs to the inverse-system chain, stepped to
        # N_{m+1}
        self._chain: set[int] = set()
        self._dim_info = None
        self._syzygy = None

    # -- evaluation maps ------------------------------------------------

    def map_at(self, m: int) -> np.ndarray:
        # Built afresh on each call: a map is cheap to rebuild, and every
        # consumer caches what it derives, so keeping all of them would
        # only hold tens of MB at the larger degrees.
        return np.hstack([mult_matrix(f, m - f.degree) for f in self.Q.polys])

    def rank_at(self, m: int) -> int:
        """Rank of the degree-m map, read off the kernel the degree keeps.

        Each degree is eliminated at most once and keeps at most one
        kernel: a chain degree its N_m, stepped from N_{m-1}; a degree of
        the syzygy window [a-1, a+b+1] its K_m, for kernel_at; a degree
        that starts the chain its N_m.  Any other degree is one plain rank.
        A window degree whose successor is already ranked injective is
        injective too and eliminates nothing: its K_m is the empty
        0 x cols array kernel_basis would return.  Only the cache is read,
        so a lone value still eliminates one map.
        """
        if m < 0:
            return 0
        v = self._ranks.get(m)
        if v is not None:
            return v
        if m - 1 in self._chain:
            prev, p = self._left[m - 1], self.field.p
            C = kernel_basis(_contraction_system(prev, m - 1, p), self.field)
            N = _integrate(C, prev, m - 1, p)
            self._left[m] = N
            self._chain.add(m)
            v = dim_S(m) - N.shape[0]
        elif self.a - 1 <= m <= self.a + self.b + 1:
            if self._ranks.get(m + 1) == self._cols(m + 1):
                # injective one degree up, so injective here: a syzygy of
                # degree m times x would be one of degree m+1
                K = np.zeros((0, self._cols(m)), dtype=np.int64)
            else:
                K = kernel_basis(self.map_at(m), self.field)
            self._kernels[m] = K
            v = K.shape[1] - K.shape[0]
        elif self._switches_at(m):
            N = kernel_basis(self.map_at(m).T, self.field)
            self._left[m] = N
            self._chain.add(m)
            v = dim_S(m) - N.shape[0]
        else:
            v = rank(self.map_at(m), self.field)
        self._ranks[m] = v
        return v

    def _cols(self, m: int) -> int:
        # columns of the degree-m map
        return sum(dim_S(m - f.degree) for f in self.Q.polys)

    def _switches_at(self, m: int) -> bool:
        """Whether degree m starts the inverse-system chain.

        Only a degree m >= max(c, a+b+2) can: from c on the ideal in
        degree m+1 is S_1 times its degree-m part, and up to a+b+1 the
        syzygy stage reads the right kernel K_m, which a chain degree does
        not keep.  Above that, shapes alone decide, pricing the step into
        m+1 against the direct map there.  The step eliminates a
        3*dim_S(m) x 3h system, h = HF(m), taken here to cost
        18 h^2 dim_S(m); the direct map costs about
        (dim_S(m+1) - h) * dim_S(m+1) * cols(m+1).  HF(m) is what degree m
        is about to compute, so HF(m-1) stands in for it.  The chain starts
        only where the step is estimated at under a quarter of that: direct
        maps are often sparse, which the estimate does not see, and with a
        smaller margin the pencil-of-lines maps (plateau (d-1)^2) ran
        slower stepped.  A lone Hilbert value, with no HF(m-1) at hand,
        stays direct.
        """
        if m < max(self.c, self.a + self.b + 2) or m - 1 not in self._ranks:
            return False
        h = dim_S(m - 1) - self._ranks[m - 1]
        step_cost = 18 * h * h * dim_S(m)
        direct_cost = (dim_S(m + 1) - h) * dim_S(m + 1) * self._cols(m + 1)
        return 4 * step_cost < direct_cost

    def _check_annihilation(self, m: int) -> None:
        # a stepped N_m must annihilate the direct map, checked by exact
        # products one form's block at a time, so that only one block's
        # float64 copy is live; a directly eliminated N_m would prove nothing
        if m not in self._chain or m - 1 not in self._chain:
            return
        N, p = self._left[m], self.field.p
        if any(
            matmul(N, mult_matrix(f, m - f.degree), p).any() for f in self.Q.polys
        ):
            raise InternalError(
                f"stepped inverse system in degree {m} does not annihilate "
                "the ideal; the integration step is broken"
            )

    def hilbert_value(self, k: int) -> int:
        if k < 0:
            raise GuardError("quotient Hilbert values are defined for k >= 0")
        return dim_S(k) - self.rank_at(k)

    # -- dimension detection --------------------------------------------

    def dimension(self) -> tuple[str, int | None, HilbertTable]:
        """Dimension class from the window's last four Hilbert values.

        All zero is empty, constant is dim0, strictly increasing is
        dim_ge_1 (see the module docstring); anything else is a fault.
        The syzygy window a+b+1 .. a-1 is ranked first, from the top down,
        so that its degrees below the topmost injective one are not
        eliminated (see ``rank_at``).
        """
        if self._dim_info is not None:
            return self._dim_info
        k_max = self.anchor + _TAIL - 1
        for m in range(self.a + self.b + 1, self.a - 2, -1):
            self.rank_at(m)
        values = tuple(self.hilbert_value(k) for k in range(k_max + 1))
        tail = values[-_TAIL:]
        if not any(tail):
            tag, t, plateau = "empty", 0, 0
        elif all(v == tail[0] for v in tail):
            tag, t, plateau = "dim0", tail[0], tail[0]
        elif all(x < y for x, y in zip(tail, tail[1:])):
            tag, t, plateau = "dim_ge_1", None, None
        else:
            raise InternalError(
                f"quotient Hilbert tail {list(tail)} at k = {self.anchor}.."
                f"{k_max} (k* = {self.k_star}) is neither constant nor "
                "strictly increasing"
            )
        self._check_annihilation(k_max)
        table = HilbertTable(
            values=values, k_star=self.k_star, k_max=k_max, plateau=plateau
        )
        self._dim_info = (tag, t, table)
        return self._dim_info

    def require_dim0(self) -> int:
        tag, t, _ = self.dimension()
        if tag != "dim0":
            raise GuardError(
                f"operation needs a finite nonempty scheme; input is {tag}"
            )
        return t

    # -- syzygies ---------------------------------------------------------

    def kernel_at(self, m: int) -> np.ndarray:
        # rank_at keeps K_m over the syzygy window, which no chain reaches
        self.rank_at(m)
        return self._kernels[m]

    def h0E(self, k: int) -> int:
        return self.kernel_at(k + self.c).shape[0]

    def syzygy_table(self) -> SyzygyTable:
        if self._syzygy is not None:
            return self._syzygy
        a, b, c = self.a, self.b, self.c
        lo, hi = a - c, a + b - c
        dims = tuple((k, self.h0E(k)) for k in range(lo, hi + 1))
        r = None
        for k, d in dims:
            if d > 0:
                r = k
                break
        if r is None:
            raise InternalError(
                "no syzygy found in the guaranteed window "
                f"[{lo}, {hi}]; the Koszul relation must appear there"
            )
        gens = self._generator_degrees(lo, hi + 1)
        self._syzygy = SyzygyTable(
            window=(lo, hi), dims=dims, r=r, generator_degrees=gens
        )
        return self._syzygy

    def _lift_index(self, m: int, axis: int) -> np.ndarray:
        # column map of multiplication by the axis variable from the
        # syzygy coordinate space at twist m - c into the one at m - c + 1
        parts = []
        tgt_off = 0
        for f in self.Q.polys:
            e = m - f.degree
            parts.append(tgt_off + shift_index(e, axis))
            tgt_off += dim_S(e + 1)
        return np.concatenate(parts)

    def _generator_degrees(self, lo: int, hi: int) -> tuple[int, ...]:
        """New minimal syzygy generators per twist, scanned over [lo, hi].

        A twist-k syzygy already reachable as (variable) * (twist k-1
        syzygy) is not new; the count of new ones is the kernel dimension
        minus the rank of the lifted previous kernel.  Twists above hi are
        not scanned, so the multiset is a truncation, not a Betti table.
        """
        gens: list[int] = []
        for k in range(lo, hi + 1):
            m = k + self.c
            h0 = self.h0E(k)
            if h0 == 0:
                continue
            prev = self.kernel_at(m - 1)
            if prev.shape[0] == 0:
                new = h0
            else:
                lifted = np.zeros((3 * prev.shape[0], self._cols(m)), dtype=np.int64)
                for axis in range(3):
                    idx = self._lift_index(m - 1, axis)
                    block = lifted[axis * prev.shape[0] : (axis + 1) * prev.shape[0]]
                    block[:, idx] = prev
                new = h0 - rank(lifted, self.field)
            if new < 0:
                raise InternalError(
                    "lifted syzygies exceed the kernel dimension at twist "
                    f"{k}; multiplication lift is broken"
                )
            gens.extend([k] * new)
        return tuple(gens)

    # -- derived invariants -----------------------------------------------

    def c2_at_r(self) -> int:
        t = self.require_dim0()
        r = self.syzygy_table().r
        a, b, c = self.a, self.b, self.c
        value = r * (c - a - b) + a * b - t + r * r
        if value < 0:
            raise InternalError(
                f"second Chern number {value} of the minimally twisted syzygy "
                "bundle is negative; computation is inconsistent"
            )
        return value

    def gamma(self) -> int:
        t = self.require_dim0()
        g = self.a * self.c - t
        if g < 0 or g > self.a * self.c:
            raise InternalError(
                f"residual degree {g} outside [0, {self.a * self.c}]; "
                "the scheme degree exceeds the pencil degree product"
            )
        return g

    def bounds(self) -> tuple[BoundsI, BoundsII]:
        t = self.require_dim0()
        r = self.syzygy_table().r
        a, b, c = self.a, self.b, self.c
        lower = c * (a + b - c - r)
        upper = r * r + r * (c - a - b) + a * b
        bi = BoundsI(lower=lower, upper=upper, lower_ok=lower <= t, upper_ok=t <= upper)
        if 2 * r > a + b - c:
            cut = (c - a - b + 2 * r + 1) * (c - a - b + 2 * r) // 2
            bound = upper - cut
            bii = BoundsII(applicable=True, bound=bound, ok=t <= bound)
        else:
            bii = BoundsII(applicable=False, bound=None, ok=None)
        return bi, bii

    def m0(self) -> int:
        # twist at which the normalized bundle criterion reads h^1: the
        # first Chern number of E(m0) must land in {-2, -3}
        a, b, c = self.a, self.b, self.c
        return (a + b - c - 2) // 2

    # -- saturation --------------------------------------------------------

    def saturation_dim(self, m: int) -> int:
        """Dimension of the saturation of I in degree m.

        Read off t and the kernel dimension h^0(E(m')) of the degree
        m' = a+b+c-3-m map by the identity in the module docstring; m' lies
        below k*, so the rank is the Hilbert window's and nothing is
        eliminated at any m.
        """
        if m < 0:
            return 0
        t = self.require_dim0()
        dual = self.a + self.b + self.c - 3 - m
        h0 = self._cols(dual) - self.rank_at(dual)
        shifts = sum(dim_S(m - f.degree) - _chi(m - f.degree) for f in self.Q.polys)
        return _chi(m) - t + shifts + h0

    def h1E(self, k: int) -> int:
        m = self.c + k
        if m < 0:
            return 0
        v = self.saturation_dim(m) - self.rank_at(m)
        if v < 0:
            raise InternalError(
                f"saturation lost ideal elements in degree {m}; "
                "saturation must contain the ideal"
            )
        return v

    def splits(self) -> tuple[bool, int, int]:
        h1 = self.h1E(self.m0())
        by_h1 = h1 == 0
        by_c2 = self.c2_at_r() == 0
        if by_h1 != by_c2:
            raise InternalError(
                "splitting tests disagree: vanishing middle cohomology says "
                f"{by_h1} but the Chern criterion says {by_c2}"
            )
        return by_h1, self.m0(), h1

    # -- classification ------------------------------------------------------

    def classify(self) -> Classification:
        t = self.require_dim0()
        a, b, c = self.a, self.b, self.c
        r = self.syzygy_table().r
        c2 = self.c2_at_r()
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
                if c2 != 1:
                    raise InternalError(
                        f"near-minimal twist case 1 requires Chern number 1, got {c2}"
                    )
                return Classification(
                    tag="r-eq-a-minus-c-plus-1", case=1, e_type=None,
                    resolution=c2one_res,
                )
            if a == b and t == c * (a - 1) + 1:
                if c2 != 0:
                    raise InternalError(
                        f"near-minimal twist case 2 requires Chern number 0, got {c2}"
                    )
                return Classification(
                    tag="aci-split", case=2, e_type=split_e, resolution=split_res
                )
            if b == a + 1 and t == a * c:
                if c2 != 0:
                    raise InternalError(
                        f"near-minimal twist case 3 requires Chern number 0, got {c2}"
                    )
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

    def verify_resolution(
        self, u: tuple[int, ...], v: tuple[int, ...]
    ) -> bool:
        """Numeric check of a claimed resolution 0 -> +O(-u) -> +O(-v) -> I -> 0.

        Compares the alternating sum of graded dimensions against the
        saturation, and the alternating Euler characteristic against t, in
        every degree 0 .. k_max of the Hilbert window.  A true resolution
        holds in any degree, since H^1(O(k)) = 0 for every k; a false one
        shows only in the low degrees, as from k*-1 on the saturation is
        dim S_m - t and the check there is arithmetic on t.
        """
        t = self.require_dim0()
        for m in range(self.anchor + _TAIL):
            predicted = sum(dim_S(m - vj) for vj in v) - sum(
                dim_S(m - ui) for ui in u
            )
            if self.saturation_dim(m) != predicted:
                return False
            euler = _chi(m) - (
                sum(_chi(m - vj) for vj in v) - sum(_chi(m - ui) for ui in u)
            )
            if euler != t:
                return False
        return True


# -- public operations ----------------------------------------------------


def graded_map_matrix(Q: QciInput, m: int) -> np.ndarray:
    return _Analysis(Q).map_at(m)


def quotient_hilbert(Q: QciInput, k: int) -> int:
    return _Analysis(Q).hilbert_value(k)


def dimension_class(Q: QciInput) -> tuple[str, int | None]:
    tag, t, _ = _Analysis(Q).dimension()
    return tag, t


def degree_t(Q: QciInput) -> int:
    return _Analysis(Q).require_dim0()


def syzygy_dims(Q: QciInput) -> SyzygyTable:
    eng = _Analysis(Q)
    eng.require_dim0()
    return eng.syzygy_table()


def c2_at_r(Q: QciInput) -> int:
    return _Analysis(Q).c2_at_r()


def certify_bounds(Q: QciInput) -> tuple[BoundsI, BoundsII]:
    return _Analysis(Q).bounds()


def saturation_dim(Q: QciInput, m: int) -> int:
    eng = _Analysis(Q)
    eng.require_dim0()
    return eng.saturation_dim(m)


def h1_E(Q: QciInput, k: int) -> int:
    eng = _Analysis(Q)
    eng.require_dim0()
    return eng.h1E(k)


def splits(Q: QciInput) -> bool:
    return _Analysis(Q).splits()[0]


def syzygy_generator_degrees(Q: QciInput) -> tuple[int, ...]:
    return syzygy_dims(Q).generator_degrees


def classify(Q: QciInput) -> Classification:
    return _Analysis(Q).classify()


def verify_resolution(
    Q: QciInput,
    resolution: tuple[tuple[int, ...], tuple[int, ...]],
) -> bool:
    u, v = resolution
    return _Analysis(Q).verify_resolution(tuple(u), tuple(v))


def linked_degree(Q: QciInput) -> int:
    return _Analysis(Q).gamma()


def analyze_qci(Q: QciInput) -> QciReport:
    """Full invariant battery for one input, computed on a shared engine."""
    eng = _Analysis(Q)
    tag, t, table = eng.dimension()
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
            t=t if tag == "empty" else None,
            r=None,
            gamma=None,
            c2_at_r=None,
            m0=None,
            h1_at_m0=None,
            splits=None,
            bounds_i=None,
            bounds_ii=None,
            generator_degrees=None,
            classification=None,
            resolution_verified=None,
            hilbert=table,
            syzygies=None,
        )
    syz = eng.syzygy_table()
    c2 = eng.c2_at_r()
    gamma = eng.gamma()
    bi, bii = eng.bounds()
    split_flag, m0, h1 = eng.splits()
    cls = eng.classify()
    verified = None
    if cls.resolution is not None:
        verified = eng.verify_resolution(*cls.resolution)
        if not verified:
            raise InternalError(
                f"predicted resolution for tag {cls.tag} failed numeric "
                "verification"
            )
    return QciReport(
        prime=Q.prime,
        degrees=Q.degrees,
        dimension_class=tag,
        refusal=None,
        t=t,
        r=syz.r,
        gamma=gamma,
        c2_at_r=c2,
        m0=m0,
        h1_at_m0=h1,
        splits=split_flag,
        bounds_i=bi,
        bounds_ii=bii,
        generator_degrees=syz.generator_degrees,
        classification=cls,
        resolution_verified=verified,
        hilbert=table,
        syzygies=syz,
    )
