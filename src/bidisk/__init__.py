"""Weighted-norm approximants and zero-set analysis for bidisk polynomials.

The package computes weighted coefficient norms, optimal polynomial
approximants of 1/f with their distances to 1, torus and bidisk zero sets
of two-variable polynomials, and a cyclicity classifier that checks the
predicted verdict against the measured distance decay.  A small lab module
makes the alpha = 2 threshold mechanism observable through coefficient
recurrences and quotient spectra.
"""

from .approximant import (
    ApproximantResult,
    BasisSpec,
    DecayVerdict,
    ScanRow,
    basis_monomials,
    closed_form_distance,
    decay_diagnostic,
    distance_scan,
    evaluation_bound_certificate,
    optimal_approximant,
)
from .classify import ClassificationReport, Prediction, corroborate, predict, product_rule
from .errors import (
    BidiskError,
    ConvergenceError,
    DegenerateInputError,
    InconclusiveError,
    NumericalError,
    ParseError,
)
from .expr import parse_polynomial, to_expression
from .operators import diagonal, reflect, rotate, slice_z1
from .poly import (
    Poly1,
    Poly2,
    coeff_norm,
    poly2_from_json_dict,
    poly2_to_json_dict,
    proportional,
)
from .prooflab import (
    QExperimentReport,
    RecurrenceResidualGrid,
    build_numerator_g,
    q_smoothness,
    recurrence_residuals,
)
from .resultant import ResultantDetail, resultant_z2, resultant_z2_detail
from .rootfind import aberth_roots, roots_on_unit_circle
from .spaces import (
    NormTriple,
    SpaceSpec,
    aniso,
    compare_norms,
    inner_product,
    iso,
    norm_squared,
    weight_grid,
)
from .zeroset import (
    BidiskZeroReport,
    TorusZeroClass,
    bidisk_zero_search,
    torus_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximantResult",
    "BasisSpec",
    "BidiskError",
    "BidiskZeroReport",
    "ClassificationReport",
    "ConvergenceError",
    "DecayVerdict",
    "DegenerateInputError",
    "InconclusiveError",
    "NormTriple",
    "NumericalError",
    "ParseError",
    "Poly1",
    "Poly2",
    "Prediction",
    "QExperimentReport",
    "RecurrenceResidualGrid",
    "ResultantDetail",
    "ScanRow",
    "SpaceSpec",
    "TorusZeroClass",
    "aberth_roots",
    "aniso",
    "basis_monomials",
    "bidisk_zero_search",
    "build_numerator_g",
    "closed_form_distance",
    "coeff_norm",
    "compare_norms",
    "corroborate",
    "decay_diagnostic",
    "diagonal",
    "distance_scan",
    "evaluation_bound_certificate",
    "inner_product",
    "iso",
    "norm_squared",
    "optimal_approximant",
    "parse_polynomial",
    "poly2_from_json_dict",
    "poly2_to_json_dict",
    "predict",
    "product_rule",
    "proportional",
    "q_smoothness",
    "recurrence_residuals",
    "reflect",
    "resultant_z2",
    "resultant_z2_detail",
    "roots_on_unit_circle",
    "rotate",
    "slice_z1",
    "to_expression",
    "torus_zeros",
    "weight_grid",
]
