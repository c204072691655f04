"""Estimation for alpha-power-law probability families.

The package centers on the Student-t family: validated parameters with
derived constants (core), density/decomposition/sampling/score (studentt),
order-alpha and KL divergences plus the generalized likelihood (divergence),
estimating-equation residuals and the closed-form estimator (estimators),
the exact compact-support maximizer for alpha = 2 (compact), and a CLI (cli).

``import alphafam`` runs none of them: each name below is looked up in its
submodule on first use (PEP 562), and that submodule runs then.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AlphaFamilyError", "DegenerateStatisticsError", "DimensionMismatchError", "InvalidDistributionError",
        "MAlphaDescriptor", "NumericalError", "ParameterError", "RegularityReport", "SampleBatch", "StudentTParams",
        "SufficientStats", "UndefinedScoreError", "b_alpha", "check_alpha", "degrees_of_freedom", "make_student_t",
        "pack_theta", "reconstruct_density", "unpack_theta", "validate_regular",
    ),
    "studentt": ("decompose", "density", "log_density", "log_power_integral", "sample", "score", "score_batch"),
    "divergence": (
        "DiscreteDistribution", "Gaussian", "bernoulli", "generalized_log_likelihood", "i_alpha", "kl",
    ),
    "estimators": (
        "ResidualReport", "StudentTEstimate", "estimate_student_t", "residual_general_malpha",
        "residual_regular_malpha", "student_t_population_moments", "sufficient_stats",
    ),
    "compact": (
        "N2", "REFERENCE_SAMPLE", "ROOT5", "CompactFitResult", "SegmentCandidate", "enumerate_segments",
        "maximize_l2",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_SOURCE, *_EXPORTS])
