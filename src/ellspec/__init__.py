"""Exact-rational intersection calculus, bundle characters, and certificate search.

Everything computes in ``fractions.Fraction``; nothing is ever rounded.  The
building blocks are a rank-10 intersection lattice shared by two surfaces,
Chern characters on an elliptic threefold fibered over both, a constraint
system over those characters, and a bounded Diophantine search whose results
are serialized as re-checkable certificates.
"""

from .assembly import (
    BundleParams,
    ConstraintEntry,
    ConstraintReport,
    ch_component,
    ch_total,
    default_polarization,
    evaluate_constraints,
    ext_lower_bound,
)
from .certificates import (
    certificate_from_dict,
    certificate_to_dict,
    load_certificates,
    save_certificates,
)
from .characters import (
    SPANNING_CHARACTERS,
    chi_in_lattice,
    full_lattice_rank,
    lambda_rank,
    lambda_representation,
)
from .errors import (
    EllspecError,
    PolarizationError,
    SchemaError,
    SpanError,
    SurfaceMismatchError,
    TamperError,
    UnsupportedProductError,
)
from .hecke import HeckeMultiplicities, hecke_pattern_ch, means_gap, newton_sum
from .lattice import (
    BASIS,
    DivisorClass,
    Surface,
    descent_not_effective,
    intersect,
    invariant_subspace_has_integral_point,
    is_ample_fxi,
    named_class,
    named_combination,
    pairing_table,
    zero_class,
)
from .solver import (
    SearchBounds,
    SolutionCertificate,
    Table1Row,
    build_l_classes_m,
    consistency_check,
    enumerate_table1,
    feasibility_check_m,
    integrality_check,
    solve,
    verify_certificate,
)
from .spectral import (
    ChernB,
    SpectralParams,
    curve_pushforward_ch,
    fourier_mukai_b,
    linear_system_dims,
    spectral_ch,
    spectral_genus,
)
from .threefold import ChernX, pullback_from_b, pullback_line_bundle_ch

__version__ = "0.1.0"

__all__ = [
    "BASIS",
    "BundleParams",
    "ChernB",
    "ChernX",
    "ConstraintEntry",
    "ConstraintReport",
    "DivisorClass",
    "EllspecError",
    "HeckeMultiplicities",
    "PolarizationError",
    "SPANNING_CHARACTERS",
    "SchemaError",
    "SearchBounds",
    "SolutionCertificate",
    "SpanError",
    "SpectralParams",
    "Surface",
    "SurfaceMismatchError",
    "Table1Row",
    "TamperError",
    "UnsupportedProductError",
    "build_l_classes_m",
    "certificate_from_dict",
    "certificate_to_dict",
    "ch_component",
    "ch_total",
    "chi_in_lattice",
    "consistency_check",
    "curve_pushforward_ch",
    "default_polarization",
    "descent_not_effective",
    "enumerate_table1",
    "evaluate_constraints",
    "ext_lower_bound",
    "feasibility_check_m",
    "fourier_mukai_b",
    "full_lattice_rank",
    "hecke_pattern_ch",
    "integrality_check",
    "intersect",
    "invariant_subspace_has_integral_point",
    "is_ample_fxi",
    "lambda_rank",
    "lambda_representation",
    "linear_system_dims",
    "load_certificates",
    "means_gap",
    "named_class",
    "named_combination",
    "newton_sum",
    "pairing_table",
    "pullback_from_b",
    "pullback_line_bundle_ch",
    "save_certificates",
    "solve",
    "spectral_ch",
    "spectral_genus",
    "verify_certificate",
    "zero_class",
]
