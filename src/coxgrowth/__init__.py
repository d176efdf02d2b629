"""Exact growth series of Coxeter groups.

The package computes the growth series W(t) = sum_w t^len(w) of a Coxeter
group as a canonical rational function with integer coefficients, proves the
alternating-sum identities relating the series of standard parabolic
subgroups, and cross-checks everything against brute-force word enumeration
and an exact reflection (Tits-cone) representation.
"""

from .catalog import ENTRIES, get, names
from .census import census_by_type, euler_series, panel_union_euler
from .classify import FiniteTypeInfo, classify, spherical_subsets
from .coxeter import (INFINITY, CoxeterMatrix, CoxParseError, bits_of,
                      coxeter_matrix, format_subset, mask_of,
                      parse_coxeter_file, serialize_coxeter)
from .growth import (GrowthTable, InvariantViolation, growth_series,
                     nerve_coefficients, verify_identities, verify_identity)
from .oracle import (GeometricOracle, WordOracle, coset_components,
                     coset_decomposition_check, cross_check_oracles)
from .ratfunc import (Poly, RatFunc, format_poly, format_ratfunc,
                      series_expand, substitute_inverse)

__version__ = "0.1.0"

__all__ = [
    "CoxeterMatrix", "CoxParseError", "INFINITY", "coxeter_matrix",
    "parse_coxeter_file", "serialize_coxeter", "bits_of", "mask_of",
    "format_subset",
    "FiniteTypeInfo", "classify", "spherical_subsets",
    "Poly", "RatFunc", "series_expand", "substitute_inverse",
    "format_poly", "format_ratfunc",
    "WordOracle", "GeometricOracle",
    "coset_components", "coset_decomposition_check", "cross_check_oracles",
    "GrowthTable", "InvariantViolation", "growth_series", "nerve_coefficients",
    "verify_identity", "verify_identities",
    "census_by_type", "euler_series", "panel_union_euler",
    "ENTRIES", "names", "get",
    "__version__",
]
