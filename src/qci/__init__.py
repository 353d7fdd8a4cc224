"""Exact invariants of three-form ideals and plane-curve singular schemes.

Computes, over a prime field: the degree of the finite scheme cut out by
three homogeneous forms in x, y, z, the minimal syzygy degree, the second
Chern number of the minimally twisted syzygy bundle, saturation and middle
cohomology, syzygy generator degrees, bound certificates, and an extremal
classification with numerically verified resolutions.  A curve layer
specializes all of it to the partial derivatives of a curve equation,
where the scheme degree is the global Tjurina number.
"""

from .core import (
    BoundsI,
    BoundsII,
    Classification,
    HilbertTable,
    QciInput,
    QciReport,
    SyzygyTable,
    analyze_qci,
    degree_t,
    dimension_class,
    graded_map_matrix,
    h1_E,
    quotient_hilbert,
    saturation_dim,
    verify_resolution,
)
from .curve import (
    CurveInput,
    CurveReport,
    TauBounds,
    analyze_curve,
    certify_tau_bounds,
    family,
    free_lower_bound_check,
)
from .errors import (
    GuardError,
    InternalError,
    NonHomogeneousError,
    PolyParseError,
    QciError,
)
from .linalg import (
    PRIME_MAX,
    PrimeField,
    kernel_basis,
    rank,
    rref,
)
from .poly import (
    HomogPoly,
    ZeroModPWarning,
    basis_index,
    dim_S,
    monomial_basis,
    mult_matrix,
    parse_poly,
    random_homog,
    variables,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsI",
    "BoundsII",
    "Classification",
    "CurveInput",
    "CurveReport",
    "GuardError",
    "HilbertTable",
    "HomogPoly",
    "InternalError",
    "NonHomogeneousError",
    "PRIME_MAX",
    "PolyParseError",
    "PrimeField",
    "QciError",
    "QciInput",
    "QciReport",
    "SyzygyTable",
    "TauBounds",
    "ZeroModPWarning",
    "analyze_curve",
    "analyze_qci",
    "basis_index",
    "certify_tau_bounds",
    "degree_t",
    "dim_S",
    "dimension_class",
    "family",
    "free_lower_bound_check",
    "graded_map_matrix",
    "h1_E",
    "kernel_basis",
    "monomial_basis",
    "mult_matrix",
    "parse_poly",
    "quotient_hilbert",
    "random_homog",
    "rank",
    "rref",
    "saturation_dim",
    "variables",
    "verify_resolution",
    "__version__",
]
