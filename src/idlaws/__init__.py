"""Infinitely divisible laws: canonical forms, divisibility checks, inversion,
and process simulation."""

__version__ = "0.1.0"

from .measure import (
    CanonicalMeasure,
    InfiniteWeight,
    MissingAtomValue,
    cdf,
    integrate,
    quantile,
    restrict,
    reweight,
    total_mass,
)
from .canonical import (
    BadParameter,
    CompoundPoissonSpec,
    InfiniteVariance,
    KolmogorovPair,
    LevyKhintchinePair,
    LevyTriplet,
    NonFiniteLogCF,
    catalog,
    kolmogorov_to_lk,
    law_from_json_dict,
    law_to_json_dict,
    law_to_lk,
    lk_to_kolmogorov,
    lk_to_levy,
    levy_to_lk,
    log_cf,
    log_cf_lk,
    scale_law,
)
from .divisibility import (
    CharacteristicFunctionGrid,
    DivisibilityReport,
    ProbeOutOfRange,
    ZeroCrossing,
    build_cf_grid,
    build_log_cf_grid,
    grid_to_csv,
    nth_root,
    psd_check,
    symmetric_grid,
    verify_infinitely_divisible,
)
from .khinchin import (
    BoundViolated,
    GhFamily,
    InsufficientSpan,
    InversionIntermediates,
    NoConvergence,
    OutOfRange,
    SignViolation,
    definetti_sequence,
    delta,
    delta_profile,
    extract_limit,
    g_from_k,
    g_h_from_root,
    gnedenko_tail_check,
    i_h,
    inversion_report,
    invert_cf,
    k_from_delta,
    tail_bounds,
    truncate_cp,
)
from .simulate import (
    BadTimes,
    EmpiricalCF,
    ProcessSpec,
    ScalingReport,
    TriangularArrayReport,
    empirical_cf,
    empirical_cf_to_csv,
    paths_to_csv,
    sample_increments,
    sample_paths,
    scaling_check,
    stream_for,
    triangular_array_check,
)

# the names imported above, listed once
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if getattr(value, "__module__", "").startswith(__name__ + ".")
]
