"""Infinitely divisible laws: canonical forms, divisibility checks, inversion,
and process simulation.

The namespace is lazy: ``import idlaws`` loads no submodule, and each public
name imports its defining submodule on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines, in the order of __all__
_EXPORTS = {
    "measure": (
        "CanonicalMeasure", "InfiniteWeight", "MissingAtomValue", "cdf", "integrate",
        "quantile", "restrict", "reweight", "symmetric_grid", "total_mass",
    ),
    "canonical": (
        "BadParameter", "CompoundPoissonSpec", "InfiniteVariance", "KolmogorovPair",
        "LevyKhintchinePair", "LevyTriplet", "NonFiniteLogCF", "catalog", "definetti_sequence",
        "kolmogorov_to_lk", "law_from_json_dict", "law_to_json_dict", "law_to_lk",
        "lk_to_kolmogorov", "lk_to_levy", "levy_to_lk", "log_cf", "log_cf_lk", "scale_law",
        "truncate_cp",
    ),
    "divisibility": (
        "CharacteristicFunctionGrid", "DivisibilityReport", "ProbeOutOfRange",
        "ZeroCrossing", "build_cf_grid", "build_log_cf_grid", "grid_to_csv", "nth_root",
        "psd_check", "verify_infinitely_divisible",
    ),
    "khinchin": (
        "BoundViolated", "GhFamily", "InsufficientSpan", "InversionIntermediates",
        "NoConvergence", "OutOfRange", "SignViolation", "delta", "delta_profile",
        "extract_limit", "g_from_k", "g_h_from_root", "gnedenko_tail_check", "i_h",
        "inversion_report", "invert_cf", "k_from_delta", "tail_bounds",
    ),
    "simulate": (
        "BadTimes", "EmpiricalCF", "ProcessSpec", "ScalingReport", "TriangularArrayReport",
        "empirical_cf", "empirical_cf_to_csv", "paths_to_csv", "sample_paths",
        "scaling_check", "triangular_array_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """A public name from its defining submodule, or a submodule by its name."""
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
