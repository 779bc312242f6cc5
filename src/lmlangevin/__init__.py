"""Training-free diffusion sampling with damped curvature guidance.

The package couples analytic Gaussian-mixture score oracles with a family of
samplers: exponential-integrator denoisers (order 1 and 2) with optional
rank-1 damped-geometry guidance, annealed Langevin, and fixed-noise-level
Langevin dynamics with exact, damped, or rank-1 preconditioners.  A
diagnostics layer provides the finite-difference checks, divergence
estimators, and benchmarks used to verify the method's claims, and a CLI
drives reproducible experiments from JSON configs.
"""

from .schedule import (
    COSINE,
    VE,
    VP_LINEAR,
    NoiseSchedule,
    TimestepGrid,
    UnsupportedScheduleError,
    make_grid,
)
from .oracle import DENSE_DIM_CAP, GaussianMixtureOracle, ScoreProvider
from .geometry import (
    DampedGeometryConfig,
    DegenerateDirectionError,
    damped_inverse_apply,
    damped_inverse_sqrt_apply,
    lm_guided_eps,
    low_rank_hessian,
)
from .samplers import (
    FIXED_LEVEL_VARIANTS,
    DampingTooSmallError,
    FixedLevelConfig,
    FixedLevelRun,
    NotLogConcaveError,
    SamplerConfig,
    SamplerRun,
    annealed_langevin_sample,
    damped_step,
    ddim_step,
    fixed_level_run,
    lml_sample,
    multistep2_step,
    newton_langevin_step,
)
from .diagnostics import (
    BoundCheckResult,
    DecayFit,
    ErrorBoundInputs,
    OverheadResult,
    SlicedReference,
    bound_check,
    chi2_gaussians,
    chi2_histogram,
    curvature_error_bound,
    decay_fit,
    equal_mass_edges,
    finite_diff_gradient,
    finite_diff_jacobian,
    hs_error,
    hs_norm,
    ks_statistic,
    overhead_benchmark,
    rank1_approx_error,
    sliced_reference,
    sliced_wasserstein,
)
from .config import ConfigError, config_hash, validate_config

__version__ = "0.1.0"

__all__ = [
    "COSINE",
    "VE",
    "VP_LINEAR",
    "NoiseSchedule",
    "TimestepGrid",
    "UnsupportedScheduleError",
    "make_grid",
    "DENSE_DIM_CAP",
    "GaussianMixtureOracle",
    "ScoreProvider",
    "DampedGeometryConfig",
    "DegenerateDirectionError",
    "damped_inverse_apply",
    "damped_inverse_sqrt_apply",
    "lm_guided_eps",
    "low_rank_hessian",
    "FIXED_LEVEL_VARIANTS",
    "DampingTooSmallError",
    "FixedLevelConfig",
    "FixedLevelRun",
    "NotLogConcaveError",
    "SamplerConfig",
    "SamplerRun",
    "annealed_langevin_sample",
    "damped_step",
    "ddim_step",
    "fixed_level_run",
    "lml_sample",
    "multistep2_step",
    "newton_langevin_step",
    "BoundCheckResult",
    "DecayFit",
    "ErrorBoundInputs",
    "OverheadResult",
    "SlicedReference",
    "bound_check",
    "chi2_gaussians",
    "chi2_histogram",
    "curvature_error_bound",
    "decay_fit",
    "equal_mass_edges",
    "finite_diff_gradient",
    "finite_diff_jacobian",
    "hs_error",
    "hs_norm",
    "ks_statistic",
    "overhead_benchmark",
    "rank1_approx_error",
    "sliced_reference",
    "sliced_wasserstein",
    "ConfigError",
    "config_hash",
    "validate_config",
    "__version__",
]
