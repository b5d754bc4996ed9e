"""Desk-scale numerical machinery for trace-formula one-level-density
computations for level 1 Maass forms.

The public surface re-exports the main entry points of each module; the
underscored module internals (grids, caches, kernels) are not part of
the supported API. Diagnostics, such as the scaled-Bessel route counts, go
to the "maassdensity" logger at DEBUG; it has a NullHandler, so they stay
silent unless the application configures logging.
"""

import logging

from .besseltransform import (
    DJResult,
    ResidueEvaluator,
    ScanReport,
    bound_scan,
    dj_asymptotic,
    dj_quadrature,
    dj_residue_sum,
    sj_alpha_expansion,
    sj_direct,
    stationary_phase_sums,
)
from .density import (
    THEOREM_THRESHOLD,
    DensityEngine,
    DensityReport,
    convergence_scan,
    explicit_formula_average,
    extended_threshold,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DataFormatError,
    DomainError,
    MaassDensityError,
    MissingCoefficientError,
    OverflowGuardError,
    PoleError,
    RegimeError,
    VerificationError,
)
from .kuznetsov import (
    AdmissibleWeight,
    GeometricBreakdown,
    averaged_eigenvalue,
    geometric_side,
    spectral_side,
    total_mass,
    verify_trace_identity,
    weight_combination,
    weight_gaussian,
    weight_log_conductor,
    weight_spectral,
)
from .maassdata import (
    MaassFormRecord,
    parse_records,
    parse_records_text,
    serialize_records,
    validate_records,
)
from .rmt import (
    GROUPS,
    TestFunction,
    group_from_name,
    make_test_function,
    rmt_density_eval,
    rmt_expected_value,
)
from .weights import (
    SpectralWeight,
    WeightFamily,
    default_family,
    g_fourier_transform,
    g_tilde_eval,
    make_spectral_weight,
    make_weight_family,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # weights
    "WeightFamily",
    "SpectralWeight",
    "make_weight_family",
    "make_spectral_weight",
    "default_family",
    "g_tilde_eval",
    "g_fourier_transform",
    # bessel transform
    "DJResult",
    "ResidueEvaluator",
    "ScanReport",
    "dj_quadrature",
    "dj_residue_sum",
    "dj_asymptotic",
    "sj_direct",
    "sj_alpha_expansion",
    "stationary_phase_sums",
    "bound_scan",
    # trace formula
    "AdmissibleWeight",
    "GeometricBreakdown",
    "weight_spectral",
    "weight_gaussian",
    "weight_log_conductor",
    "weight_combination",
    "geometric_side",
    "spectral_side",
    "verify_trace_identity",
    "total_mass",
    "averaged_eigenvalue",
    # density
    "DensityReport",
    "DensityEngine",
    "explicit_formula_average",
    "convergence_scan",
    "THEOREM_THRESHOLD",
    "extended_threshold",
    # random matrix predictions
    "TestFunction",
    "make_test_function",
    "rmt_density_eval",
    "rmt_expected_value",
    "GROUPS",
    "group_from_name",
    # data handling
    "MaassFormRecord",
    "parse_records",
    "parse_records_text",
    "serialize_records",
    "validate_records",
    # errors
    "MaassDensityError",
    "DomainError",
    "PoleError",
    "OverflowGuardError",
    "ConvergenceError",
    "RegimeError",
    "CalibrationError",
    "VerificationError",
    "MissingCoefficientError",
    "DataFormatError",
]
