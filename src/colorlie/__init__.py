"""Exact computations with Lie color algebras given by structure constants.

The package computes derivation and n-derivation spaces as kernels of
exact linear systems over cyclotomic fields, and mechanically verifies
that for perfect centerless algebras the n-derivations are ordinary
derivations and the n-derivations of the derivation algebra are inner.
"""

from .algebra import AxiomReport, ColorAlgebra
from .catalog import get as catalog_get
from .fileio import parse_algebra, serialize_algebra
from .derivations import (
    DerivationSpace,
    GradedMap,
    ad,
    delta,
    derivation_color_algebra,
    inner_derivation_space,
    is_n_derivation,
    map_bracket,
    n_derivation_space,
    verify_ad_compat,
    verify_centralizer_trivial,
    verify_closure,
    verify_delta_membership,
    verify_inner_ideal,
    verify_nder_equals_der,
    verify_second_statement,
)
from .grading import Bicharacter, GradingGroup, GroupElement
from .linalg import MatrixExact, Subspace
from .scalars import CycloScalar, format_scalar, parse_scalar

__all__ = [
    "AxiomReport",
    "Bicharacter",
    "ColorAlgebra",
    "CycloScalar",
    "DerivationSpace",
    "GradedMap",
    "GradingGroup",
    "GroupElement",
    "MatrixExact",
    "Subspace",
    "ad",
    "catalog_get",
    "delta",
    "derivation_color_algebra",
    "format_scalar",
    "parse_algebra",
    "serialize_algebra",
    "inner_derivation_space",
    "is_n_derivation",
    "map_bracket",
    "n_derivation_space",
    "parse_scalar",
    "verify_ad_compat",
    "verify_centralizer_trivial",
    "verify_closure",
    "verify_delta_membership",
    "verify_inner_ideal",
    "verify_nder_equals_der",
    "verify_second_statement",
]

__version__ = "0.1.0"
