"""Training-free diffusion sampling with damped curvature guidance.

The package couples analytic Gaussian-mixture score oracles with a family of
samplers: exponential-integrator denoisers (order 1 and 2) with optional
rank-1 damped-geometry guidance, annealed Langevin, and fixed-noise-level
Langevin dynamics with exact, damped, or rank-1 preconditioners.  A
diagnostics layer provides the finite-difference checks, divergence
estimators, and benchmarks used to verify the method's claims, and a CLI
drives reproducible experiments from JSON configs.
"""

from .schedule import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .samplers import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .config import ConfigError, config_hash, validate_config
from . import diagnostics, geometry, oracle, samplers, schedule

__version__ = "0.1.0"

# The public namespace is each module's own ``__all__``; config exports only
# what a caller needs to validate and fingerprint a document.
__all__ = [
    *schedule.__all__,
    *oracle.__all__,
    *geometry.__all__,
    *samplers.__all__,
    *diagnostics.__all__,
    "ConfigError",
    "config_hash",
    "validate_config",
    "__version__",
]
