"""Simulation and verification workbench for realized power variations of
Brown-Resnick max-stable processes."""

from .quadrature import QuadratureConfig, QuadratureError
from .gauss_kernels import (
    abs_moment,
    bias_integral,
    lambda_integral,
    phi_kernel,
    phi2_kernel,
)
from .increment_law import (
    IncrementLawParams,
    cond_cdf,
    exact_abs_moment,
    marginal_cdf,
)
from .path_sim import (
    Grid,
    GridPath,
    MaxStablePath,
    TruncationError,
    VolatilitySpec,
    replicate_rng,
    sample_brown_resnick,
    sample_brownian,
    sample_max_two_bm,
)
from .pv_stats import (
    clt_bias_functional,
    estimate_h,
    power_variation,
)
from .mc_harness import (
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    ks_statistic,
    ks_statistic_two_sample,
    run_experiment,
)

__version__ = "0.1.0"
