"""compdiff: spectra and decay certificates for differences of composition operators.

The package models truncations of (weighted) composition operators on the
Hardy space of the unit disc, extracts their singular-value spectra, and
evaluates interpolation-based lower certificates and Blaschke-based upper
certificates for the decay of approximation numbers, including tensor and
triangular constructions on the bidisc.
"""

from .errors import (
    BoundaryFixedOrigin,
    CollidingImages,
    CompdiffError,
    DisconnectedLevelSet,
    DivisionByZeroConstantTerm,
    DuplicatePoints,
    EmptyRange,
    ExpOfSingularSeries,
    HorizonExceeded,
    ImageOnBoundary,
    NonFinite,
    NotSelfMap,
    NumericalBreakdown,
    ParseError,
    WeightTooLarge,
    WindowExceedsHorizon,
    ZeroInWindow,
)
from .series import (
    Symbol,
    boundary_grid,
    constant,
    corner_map,
    corner_perturbation,
    dilation,
    eval_boundary,
    evaluate,
    half_map,
    identity,
    mobius,
    parse_symbol,
    power_perturbation,
    taylor_array,
    validate_self_map,
    weight_power,
)
from .hardy import (
    BlaschkeProduct,
    PointSequence,
    blaschke_eval,
    carleson_norm,
    uniform_separation,
)
from .operators import (
    SingularSpectrum,
    TruncatedOperator,
    composition_matrix,
    convergence_horizon,
    difference_matrix,
    difference_spectrum,
    operator_norm_bound,
    singular_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    tensor_spectrum,
    weighted_composition_matrix,
)
from .bounds import (
    HsIntegral,
    LowerCertificate,
    TriangularBound,
    UpperCertificate,
    WeightedUpperCertificate,
    blaschke_zeros_for_symbol,
    hs_norm,
    lower_certificate,
    optimize_upper,
    sequence_boundary_pinch,
    sequence_radial,
    triangular_bound,
    upper_certificate,
    weighted_difference_bound,
    weighted_lower_certificate,
    weighted_upper_certificate,
)
from .experiments import (
    DecayFit,
    ExperimentResult,
    fit_decay,
    fit_series,
    recheck,
    run_bidisc,
    run_corner_perturbation,
    run_smooth_perturbation,
    run_weighted_power,
)

__version__ = "0.1.0"
