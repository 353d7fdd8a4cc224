"""Exact invariants of three-form ideals and plane-curve singular schemes.

Computes, over a prime field: the degree of the finite scheme cut out by
three homogeneous forms in x, y, z, the minimal syzygy degree, the second
Chern number of the minimally twisted syzygy bundle, saturation and middle
cohomology, syzygy generator degrees, bound certificates, and an extremal
classification with numerically verified resolutions.  A curve layer
specializes all of it to the partial derivatives of a curve equation,
where the scheme degree is the global Tjurina number.

``import qci`` loads no submodule and not numpy.  Each exported name is
read from the submodule that defines it, which is imported on first use
(PEP 562): ``qci.PrimeField`` loads ``qci.linalg`` alone, and
``qci.analyze_curve`` the engine.  The name is looked up in its submodule
on every use, so it is always that submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_HOME = {
    "BoundsI": "core",
    "BoundsII": "core",
    "Classification": "core",
    "CurveInput": "curve",
    "CurveReport": "curve",
    "GuardError": "errors",
    "HilbertTable": "core",
    "HomogPoly": "poly",
    "InternalError": "errors",
    "NonHomogeneousError": "errors",
    "PRIME_MAX": "linalg",
    "PolyParseError": "errors",
    "PrimeField": "linalg",
    "QciError": "errors",
    "QciInput": "core",
    "QciReport": "core",
    "SyzygyTable": "core",
    "TauBounds": "curve",
    "ZeroModPWarning": "poly",
    "analyze_curve": "curve",
    "analyze_qci": "core",
    "basis_index": "poly",
    "certify_tau_bounds": "curve",
    "degree_t": "core",
    "dim_S": "poly",
    "dimension_class": "core",
    "family": "curve",
    "free_lower_bound_check": "curve",
    "graded_map_matrix": "core",
    "h1_E": "core",
    "kernel_basis": "linalg",
    "monomial_basis": "poly",
    "mult_matrix": "poly",
    "parse_poly": "poly",
    "quotient_hilbert": "core",
    "random_homog": "poly",
    "rank": "linalg",
    "rref": "linalg",
    "saturation_dim": "core",
    "variables": "poly",
    "verify_resolution": "core",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
