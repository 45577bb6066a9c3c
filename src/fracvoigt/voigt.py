"""Linear fractional Kelvin-Voigt creep model.

The strain under a given stress history is the weakly singular Volterra
convolution computed by fracops.ml_kernel_convolve; the creep function has
two equivalent closed forms (a one-parameter and a two-parameter
Mittag-Leffler expression) kept side by side so their identity can be
tested; and picard_linear reproduces the same solution by successive
approximation of the underlying second-kind Volterra equation,

    eps_m = I^a sigma / eta^a - I^a eps_{m-1} / tau^a,
    eps_0 = I^a sigma / eta^a,

using only the discrete fractional integral.  _fixed_point is the one
iteration loop of the package: picard_linear and nonlinear.solve_nonlinear
each supply only their step and starting iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .fracops import Signal, _kernel_integral, ml_kernel_convolve, rl_integral
from .special import ml_one

__all__ = [
    "VoigtParams",
    "SolverConfig",
    "PicardResult",
    "linear_strain",
    "creep_function",
    "creep_function_alt",
    "picard_linear",
]


@dataclass(frozen=True)
class VoigtParams:
    """Material constants of the fractional Voigt element.

    tau = eta / e_mod is derived, never stored, so the retardation-time
    invariant cannot be violated by construction.
    """

    eta: float
    e_mod: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"eta must be positive, got {self.eta!r}")
        if not (math.isfinite(self.e_mod) and self.e_mod > 0.0):
            raise DomainError(f"e_mod must be positive, got {self.e_mod!r}")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha!r}")

    @property
    def tau(self) -> float:
        """Retardation time eta / e_mod."""
        return self.eta / self.e_mod


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if type(self.max_iter) is not int or self.max_iter < 1:  # rejects bool
            raise DomainError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class PicardResult:
    """Outcome of a successive-approximation run.

    converged is equivalent to final_diff < tol of the config that produced
    the result; diff_history holds the sup-norm difference of consecutive
    iterates, one entry per iteration, with final_diff its last entry.
    """

    solution: Signal
    iterations: int
    final_diff: float
    converged: bool
    diff_history: list[float] = field(default_factory=list)


def linear_strain(params: VoigtParams, stress: Signal) -> Signal:
    """Strain response to a sampled stress history; strain(0) = 0."""
    return ml_kernel_convolve(params, stress)


def _creep_times(t):
    """Validated creep times: a scalar becomes a float, anything else an
    array; every time must be finite and nonnegative."""
    if isinstance(t, (float, int)) or np.ndim(t) == 0:
        t = float(t)
        valid = 0.0 <= t < math.inf
    else:
        t = np.asarray(t, dtype=float)
        valid = bool(np.all(np.isfinite(t) & (t >= 0.0)))
    if not valid:
        raise DomainError(f"creep time must be nonnegative, got {t!r}")
    return t


def creep_function(params: VoigtParams, t):
    """Creep function: strain response to unit constant stress, at a time
    or an array of times (a float or an array out).

    Nonnegative, nondecreasing, bounded by (tau/eta)^alpha; reduces to
    (1/E)(1 - exp(-t/tau)) at alpha = 1.
    """
    t = _creep_times(t)
    tau = params.tau
    a = params.alpha
    return (tau / params.eta) ** a * (1.0 - ml_one(a, -((t / tau) ** a)))


def creep_function_alt(params: VoigtParams, t: float) -> float:
    """Equivalent two-parameter form of the creep function,
    (1/eta^a) t^a E[a, a+1](-(t/tau)^a), the kernel's first integral that
    the convolution weights are built from; kept separate so the series
    identity between the two forms stays testable."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"creep time must be nonnegative, got {t!r}")
    return _kernel_integral(params.alpha, params.tau, 1, t) / params.eta**params.alpha


def _fixed_point(
    step: Callable[[Signal], Signal], start: Signal, cfg: SolverConfig
) -> PicardResult:
    """Successive approximation x_k = step(x_{k-1}) from x_0 = start: the
    one iteration loop behind picard_linear and solve_nonlinear.

    Stops when the sup-norm difference of consecutive iterates drops below
    cfg.tol; non-convergence within cfg.max_iter is reported on the result,
    not raised.
    """
    prev = start
    history: list[float] = []
    for _ in range(cfg.max_iter):  # at least once: SolverConfig checks max_iter >= 1
        cur = step(prev)
        diff = float(np.max(np.abs(cur.values - prev.values)))
        history.append(diff)
        prev = cur
        if diff < cfg.tol:
            break
    return PicardResult(
        solution=prev,
        iterations=len(history),
        final_diff=diff,
        converged=diff < cfg.tol,
        diff_history=history,
    )


def picard_linear(
    params: VoigtParams, stress: Signal, cfg: SolverConfig | None = None
) -> PicardResult:
    """Solve the linear model by successive approximation from
    eps_0 = I^a sigma / eta^a.

    Stops when the sup-norm difference of consecutive iterates drops below
    cfg.tol; non-convergence within cfg.max_iter is reported on the result,
    not raised (both are _fixed_point's).
    """
    a = params.alpha
    base = rl_integral(a, stress).values / params.eta**a
    tau_a = params.tau**a
    return _fixed_point(
        lambda eps: Signal(stress.grid, base - rl_integral(a, eps).values / tau_a),
        Signal(stress.grid, base),
        cfg or SolverConfig(),
    )
