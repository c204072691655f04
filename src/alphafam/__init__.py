"""Estimation for alpha-power-law probability families.

The package centers on the Student-t family: validated parameters with
derived constants (core), density/decomposition/sampling/score (studentt),
order-alpha and KL divergences plus the generalized likelihood (divergence),
estimating-equation residuals and the closed-form estimator (estimators),
the exact compact-support maximizer for alpha = 2 (compact), and a CLI (cli).
"""

__version__ = "0.1.0"

from .core import (
    AlphaFamilyError,
    DegenerateStatisticsError,
    DimensionMismatchError,
    ExpFamilyDescriptor,
    MAlphaDescriptor,
    NumericalError,
    ParameterError,
    RegularityReport,
    SampleBatch,
    StudentTParams,
    SufficientStats,
    UndefinedScoreError,
    b_alpha,
    check_alpha,
    degrees_of_freedom,
    make_student_t,
    pack_theta,
    reconstruct_density,
    unpack_theta,
    validate_regular,
)
from .studentt import (
    decompose,
    density,
    log_density,
    log_power_integral,
    sample,
    score,
    score_batch,
)
from .divergence import (
    DiscreteDistribution,
    Gaussian,
    InvalidDistributionError,
    bernoulli,
    gaussian,
    generalized_log_likelihood,
    i_alpha,
    kl,
)
from .estimators import (
    ResidualReport,
    StudentTEstimate,
    estimate_student_t,
    gaussian_exp_family,
    gaussian_population_moments,
    residual_exponential,
    residual_general_malpha,
    residual_regular_malpha,
    student_t_population_moments,
    sufficient_stats,
)
from .compact import (
    N2,
    REFERENCE_SAMPLE,
    ROOT5,
    CompactFitResult,
    SegmentCandidate,
    enumerate_segments,
    maximize_l2,
)
