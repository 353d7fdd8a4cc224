"""The names ``qci`` exports: one public name per result."""

import qci

# every invariant a report carries is read off ``analyze_qci`` /
# ``analyze_curve``; the functions here take a degree, stop at the
# dimension stage, or are the building blocks they share
_PUBLIC = {
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
    "__version__",
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
}


def test_all_lists_each_name_once():
    assert len(qci.__all__) == len(set(qci.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in qci.__all__ if not hasattr(qci, name)]
    assert missing == []


def test_exported_names_are_pinned():
    assert set(qci.__all__) == _PUBLIC


def test_dir_lists_every_exported_name():
    # the names load on first use, and dir() shows them before that
    assert set(qci.__all__) <= set(dir(qci))
