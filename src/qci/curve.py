"""Plane-curve layer: singular scheme of a curve via its partial derivatives.

For a reduced curve of degree d the three partials of its equation form a
triple of degree d-1 forms; the finite scheme they cut out is the curve's
singular locus, and its degree is tau, the global Tjurina number.  This
module wraps the generic engine, computes the bounds on tau and classifies
the curve (smooth, lines through a point, free, nearly free, generic); its
report holds values only, and ``qci.report`` writes it out.
The class is read off r, then c2: at a = b = c = d-1, c2 is the free
value (d-1)(d-1-r) + r^2 less tau, so r >= 1 is free at c2 = 0 and nearly
free at c2 = 1.  The freeness cross-check, h^1 against c2, lives in core.
The tau bounds are the Theorem's bounds on t at a = b = c = d-1, du
Plessis and Wall's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BoundsI,
    BoundsII,
    QciInput,
    QciReport,
    analyze_qci,
    theorem_bounds,
)
from .errors import GuardError, InternalError
from .linalg import PrimeField
from .poly import HomogPoly, parse_poly, variables


class CurveInput:
    """A curve equation with degree and characteristic guards."""

    __slots__ = ("f",)

    def __init__(self, f: HomogPoly):
        if f.is_zero:
            raise GuardError("curve equation must be nonzero")
        if f.degree < 2:
            raise GuardError("curve degree must be at least 2")
        p = f.field.p
        # the three partials have degree d-1 each, and the analysis of
        # their triple needs p above the sum of the degrees
        bound = 3 * (f.degree - 1)
        if p <= bound:
            raise GuardError(
                f"prime {p} too small for a curve of degree d = {f.degree}; "
                f"need p > 3(d-1) = {bound}"
            )
        self.f = f

    @property
    def d(self) -> int:
        return self.f.degree

    @property
    def prime(self) -> int:
        return self.f.field.p

    def __repr__(self):
        return f"CurveInput(d={self.d}, p={self.prime})"


@dataclass(frozen=True)
class TauBounds:
    lower: int
    upper: int
    lower_ok: bool
    upper_ok: bool
    ii_applicable: bool
    ii_bound: int | None
    ii_ok: bool | None


@dataclass(frozen=True, kw_only=True)
class CurveReport:
    d: int
    curve_class: str | None = None
    refusal: str | None = None
    tau: int | None = None
    r: int | None = None
    exponents: tuple[int, int] | None = None
    plus_one_case: int | None = None
    tau_bounds: TauBounds | None = None
    qci: QciReport


def _tau_bounds(bi: BoundsI, bii: BoundsII) -> TauBounds:
    return TauBounds(
        lower=bi.lower,
        upper=bi.upper,
        lower_ok=bi.lower_ok,
        upper_ok=bi.upper_ok,
        ii_applicable=bii.applicable,
        ii_bound=bii.bound,
        ii_ok=bii.ok,
    )


def certify_tau_bounds(d: int, r: int, tau: int) -> TauBounds:
    """Evaluate the two tau bounds for a degree-d curve with syzygy degree r."""
    if d < 2 or r < 0 or r > d - 1:
        raise GuardError(f"bounds need d >= 2 and 0 <= r <= d-1, got d={d}, r={r}")
    return _tau_bounds(*theorem_bounds(d - 1, d - 1, d - 1, r, tau))


def free_lower_bound_check(d: int, tau: int) -> bool:
    """Minimal tau a free curve of degree d can carry (parity-split bound)."""
    if d % 2 == 1:
        return 4 * tau >= 3 * (d - 1) * (d - 1)
    return 4 * tau >= 4 + 3 * d * (d - 2)


def _classify(d: int, tau: int, r: int, c2: int):
    # at a = b = c = d-1, c2 = (d-1)(d-1-r) + r^2 - tau, the free value less
    # tau, and core has checked r = 0 against tau and c2 = 0 against h^1
    exponents = None
    if r == 0:
        curve_class = "lines-through-point"
    elif c2 == 0:
        if 2 * r + 1 > d:
            raise InternalError(
                f"free curve with syzygy degree {r} violates 2r+1 <= d"
            )
        # with 1 <= r and 2r+1 <= d, tau falls with r to the parity bound
        # of free_lower_bound_check at the largest r, so it always holds
        curve_class = "free"
        exponents = (r, d - 1 - r)
    elif c2 == 1:
        curve_class = "nearly-free"
    else:
        curve_class = "generic"

    if r >= 1 and tau > d * d - 3 * d + 3:
        raise InternalError(
            f"tau {tau} exceeds the cap {d * d - 3 * d + 3} for curves that "
            "are not lines through a point"
        )
    plus_one_case = None
    if r >= 1 and d > 7 and tau > d * d - 4 * d + 5:
        # each (tau, r) fixes c2, so the class: free, nearly free, free,
        # nearly free
        signatures = {
            (d * d - 3 * d + 3, 1): 1,
            (d * d - 3 * d + 2, 1): 2,
            (d * d - 4 * d + 7, 2): 3,
            (d * d - 4 * d + 6, 2): 4,
        }
        plus_one_case = signatures.get((tau, r))
        if plus_one_case is None:
            raise InternalError(
                f"high tau {tau} at degree {d} matches none of the four "
                "admissible (tau, r) signatures"
            )
    return curve_class, exponents, plus_one_case


def analyze_curve(C: CurveInput) -> CurveReport:
    """Run the full pipeline on the partials of the curve equation."""
    f = C.f
    d = C.d
    fx, fy, fz = f.partials()
    Q = QciInput.of(fx, fy, fz)
    rep = analyze_qci(Q)
    if rep.dimension_class == "empty":
        return CurveReport(d=d, curve_class="smooth", tau=0, qci=rep)
    if rep.dimension_class == "dim_ge_1":
        return CurveReport(
            d=d,
            refusal="curve not reduced (singular scheme is positive-dimensional)",
            qci=rep,
        )
    tau, r = rep.t, rep.r
    curve_class, exponents, plus_one_case = _classify(d, tau, r, rep.c2_at_r)
    return CurveReport(
        d=d,
        curve_class=curve_class,
        tau=tau,
        r=r,
        exponents=exponents,
        plus_one_case=plus_one_case,
        tau_bounds=_tau_bounds(rep.bounds_i, rep.bounds_ii),
        qci=rep,
    )


# fixed equations used by the pencil-intersection generator
_CI_FORMS = {
    1: "x",
    2: "x^2+y*z",
    3: "x^3+y^3+z^3",
    4: "x^4+y^4+z^4",
}


def family(
    name: str,
    field: PrimeField,
    d: int | None = None,
    a: int | None = None,
    c: int | None = None,
):
    """Construct a named witness input.

    lines_through_point(d): product of d distinct lines through one point.
    smooth_plus_line(d): smooth degree d-1 curve plus a transversal line.
    ci_qci(a, c): triple (F, x*F, G) whose scheme is the full intersection
    of F and G; returns a QciInput, the other two return CurveInput.
    """
    x, y, z = variables(field)
    if name == "lines_through_point":
        if d is None or d < 2:
            raise GuardError("lines_through_point needs d >= 2")
        # CurveInput refuses p <= 3(d-1), which keeps the d slopes distinct
        f = x - 1 * y
        for i in range(2, d + 1):
            f = f * (x - i * y)
        return CurveInput(f)
    if name == "smooth_plus_line":
        if d is None or d < 3:
            raise GuardError("smooth_plus_line needs d >= 3")
        # CurveInput refuses p <= 3(d-1), so p is prime to d-1 and g smooth
        g = parse_poly(f"x^{d - 1} + y^{d - 1} + z^{d - 1}", field)
        return CurveInput(x * g)
    if name == "ci_qci":
        if a is None or c is None:
            raise GuardError("ci_qci needs both degrees a and c")
        if a not in _CI_FORMS or c not in _CI_FORMS:
            raise GuardError(
                f"ci_qci degrees must lie in {sorted(_CI_FORMS)}, got ({a}, {c})"
            )
        if c < a + 1:
            raise GuardError("ci_qci needs c >= a+1 so the degrees stay sorted")
        fa = parse_poly(_CI_FORMS[a], field)
        fc = parse_poly(_CI_FORMS[c], field)
        return QciInput.of(fa, x * fa, fc)
    raise GuardError(f"unknown family {name!r}")
