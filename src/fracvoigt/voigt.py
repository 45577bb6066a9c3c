"""Linear fractional Kelvin-Voigt creep model.

The strain under a given stress history is the weakly singular Volterra
convolution computed by fracops.ml_kernel_convolve; the creep function is
its step response; and picard_linear reproduces the same solution by
successive approximation of the underlying second-kind Volterra equation,

    eps_m = I^a sigma / eta^a - I^a eps_{m-1} / tau^a,
    eps_0 = I^a sigma / eta^a,

using only the discrete fractional integral, in _fixed_point, the one
iteration loop of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .fracops import Signal, _model_arg, ml_kernel_convolve, rl_integral
from .special import Z_MAX_NEG, _contour_nodes, _contour_sum

__all__ = [
    "VoigtParams",
    "SolverConfig",
    "PicardResult",
    "linear_strain",
    "creep_function",
    "picard_linear",
]


@dataclass(frozen=True)
class VoigtParams:
    """Material constants of the fractional Voigt element.

    tau = eta / e_mod is derived, never stored, so the retardation-time
    invariant cannot be violated by construction; it must be positive and
    finite, which eta and e_mod alone do not ensure.
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
        if not 0.0 < self.tau < math.inf:
            raise DomainError(
                f"retardation time eta / e_mod must be positive and finite, got {self.tau!r}"
            )

    @property
    def tau(self) -> float:
        """Retardation time eta / e_mod."""
        return self.eta / self.e_mod

    @cached_property
    def _creep(self) -> tuple:
        """(alpha, tau, plateau, nodes) for creep_function, formed on its
        first call: nodes are the contour nodes of E[alpha,alpha+1], those
        of the step response.  Not a field, so ==, hash and repr ignore it."""
        a, tau = self.alpha, self.tau
        return a, tau, (tau / self.eta) ** a, _contour_nodes(a, a + 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Stop of _fixed_point: sup|image - iterate| < tol * max(1, sup|image|), or max_iter sweeps."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if type(self.max_iter) is not int or self.max_iter < 1:  # rejects bool
            raise DomainError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class PicardResult:
    """Outcome of a fixed-point run (_fixed_point): solution is the last
    image, diff_history holds sup|step(x_k) - x_k|, one entry per
    iteration, final_diff is its last entry, and converged equals
    final_diff < tol * max(1, sup|solution|) for the config's tol."""

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
    arr = np.asarray(t, dtype=float)
    bad = arr[~((arr >= 0.0) & (arr < math.inf))]  # 1-d, in array order; NaN fails both
    if bad.size:
        raise DomainError(f"creep time must be finite and nonnegative, got {float(bad[0])!r}")
    return float(arr) if arr.ndim == 0 else arr


def creep_function(params: VoigtParams, t):
    """Creep function: strain response to unit constant stress, at a time
    or an array of times (a float or an array out).

    It is I^1 k(t) / eta^a, the operators' step response (Podlubny 1999,
    eq. 1.100): plateau * x * E[a,a+1](-x) with x = (t/tau)^a and
    plateau = (tau/eta)^a, relatively accurate down to x = 0, where it is
    +0.0.  Nonnegative, nondecreasing, bounded by the plateau; reduces to
    (1/E)(1 - exp(-t/tau)) at alpha = 1.  A float time t > 0 with
    (t/tau)^alpha <= Z_MAX_NEG skips the validation; every other time is
    validated first: DomainError names the first time, in array order,
    that is not finite and nonnegative, else a window past the model's
    range.  Tau, the plateau and the contour nodes come from params._creep,
    so repeated calls on one params form them once.
    """
    a, tau, plateau, nodes = params._creep
    if not (type(t) is float and t > 0.0 and (x := (t / tau) ** a) <= Z_MAX_NEG):
        x = 0.0 - _model_arg(a, tau, _creep_times(t))  # t = -0.0 gives z = +0.0 at a = 1
    return plateau * x * _contour_sum(nodes, x)


# Largest sum |gamma| of a mixed step.  A larger one extrapolates far past
# the last few iterates, where the secant model behind the mixing no longer
# holds (Toth & Kelley 2015 assume the coefficients bounded); the loop takes
# the plain step there.
_MIX_BOUND = 3.0


def _fixed_point(
    step: Callable[[Signal], Signal],
    start: Signal,
    cfg: SolverConfig,
    depth: int = 0,
) -> PicardResult:
    """Fixed-point iteration of step from x_0 = start: the one iteration
    loop behind picard_linear and solve_nonlinear.

    depth = 0 is successive approximation, x_(k+1) = step(x_k).  depth > 0
    is Anderson mixing of type II over the last depth differences (Walker &
    Ni 2011): with f_k = step(x_k) - x_k and Delta F, Delta G the
    differences of consecutive residuals and images,

        x_(k+1) = step(x_k) - gamma . Delta G,
        (Delta F Delta F^T) gamma = Delta F f_k.

    Three safeguards take the plain step instead and clear the history,
    before step is called: a singular Gram system; a gamma that is not
    finite or has sum |gamma| above _MIX_BOUND; and a mixed iterate that
    leaves the cone x >= 0 the image it was mixed from lies in, so a law
    total on eps >= 0 is never called outside it.  picard_linear stays plain
    (depth 0): its iterates are then the partial sums of the Neumann
    series, which acceptance criterion 06 and its tests check term by term.

    Each diff_history entry is sup|step(x_k) - x_k|; the loop stops at the
    first below cfg.tol * max(1, sup|step(x_k)|) and returns that last
    image step(x_k).  Non-convergence within cfg.max_iter is reported on
    the result, not raised.
    """
    grid = start.grid
    d_f = np.empty((depth, grid.n + 1))
    d_g = np.empty((depth, grid.n + 1))
    gram = np.empty((depth, depth))
    held = slot = 0  # rows of d_f, d_g (and gram) in use; the row written next
    last = None  # residual and image of the previous step
    x = start
    history: list[float] = []
    for _ in range(cfg.max_iter):  # at least once: SolverConfig checks max_iter >= 1
        image = step(x)
        res = image.values - x.values
        diff = float(np.abs(res).max())
        history.append(diff)
        if (converged := diff < cfg.tol * max(1.0, image.sup_norm())):
            break
        x = image
        if depth == 0:
            continue
        if last is not None:
            np.subtract(res, last[0], out=d_f[slot])
            np.subtract(image.values, last[1], out=d_g[slot])
            held = min(held + 1, depth)
            row = d_f[:held] @ d_f[slot]
            gram[slot, :held] = row
            gram[:held, slot] = row
            slot = (slot + 1) % depth
        last = res, image.values
        if held:
            try:
                gamma = np.linalg.solve(gram[:held, :held], d_f[:held] @ res)
            except np.linalg.LinAlgError:
                gamma = None
            if gamma is not None and np.abs(gamma).sum() <= _MIX_BOUND:  # False for nan
                mixed = image.values - gamma @ d_g[:held]
                if mixed.min() >= 0.0 or image.values.min() < 0.0:
                    x = Signal(grid, mixed)
                    continue
            held = slot = 0
    return PicardResult(
        solution=image,
        iterations=len(history),
        final_diff=diff,
        converged=converged,
        diff_history=history,
    )


def picard_linear(
    params: VoigtParams, stress: Signal, cfg: SolverConfig | None = None
) -> PicardResult:
    """Solve the linear model by successive approximation from
    eps_0 = I^a sigma / eta^a, with _fixed_point's stop; non-convergence is
    reported on the result, not raised.  The iterates are partial sums of
    the Neumann series, which peak near e^(t/tau) before they cancel, so
    the sweeps grow with t_end/tau, whatever alpha: the default 200 sweeps
    cover t_end/tau <= 15 (test_voigt).  Past that use linear_strain, which
    is direct.  DomainError names a window past the model's range, or
    iterates that overflow float64.
    """
    a = params.alpha
    _model_arg(a, params.tau, stress.grid.t_end)  # the range rule of every operator
    tau_a = params.tau**a
    try:  # past the range rule only Signal's finiteness check can fail
        base = rl_integral(a, stress).values / params.eta**a
        return _fixed_point(
            lambda eps: Signal(stress.grid, base - rl_integral(a, eps).values / tau_a),
            Signal(stress.grid, base),
            cfg or SolverConfig(),
        )
    except DomainError:
        raise DomainError("picard iterates overflow float64") from None
