"""Fractional Kelvin-Voigt creep models.

Library layout:

- special:   two-parameter Mittag-Leffler function on the real line
- fracops:   uniform grids, sampled signals, discrete fractional operators
- voigt:     linear model (strain solution, creep function, Picard solver)
- nonlinear: strain-dependent stress, fixed-point solver, hypothesis probe
- expr:      expression parser for stress histories and laws
- cli:       the `fracvoigt` command
"""

from .errors import AccuracyError, DomainError, EvaluationError, FracvoigtError
from .expr import ParseError
from .fracops import Grid, Signal, ml_kernel_convolve, rl_integral
from .nonlinear import (
    ConstitutiveLaw,
    HypothesisReport,
    apply_T,
    check_hypotheses,
    residual,
    solve_nonlinear,
)
from .special import MLParams, ml_eval
from .voigt import (
    PicardResult,
    SolverConfig,
    VoigtParams,
    creep_function,
    linear_strain,
    picard_linear,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConstitutiveLaw",
    "DomainError",
    "EvaluationError",
    "FracvoigtError",
    "Grid",
    "HypothesisReport",
    "MLParams",
    "ParseError",
    "PicardResult",
    "Signal",
    "SolverConfig",
    "VoigtParams",
    "apply_T",
    "check_hypotheses",
    "creep_function",
    "linear_strain",
    "ml_eval",
    "ml_kernel_convolve",
    "picard_linear",
    "residual",
    "rl_integral",
    "solve_nonlinear",
    "__version__",
]
