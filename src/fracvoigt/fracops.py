"""Discrete fractional operators on uniform time grids.

Both operators use product integration: the regular factor of the integrand
is replaced by its piecewise-linear interpolant on the grid while the weakly
singular factor (t - s)^(a-1) is integrated in closed form against it.  On a
uniform grid this collapses to a discrete convolution with the classical
product-trapezoidal weights

    (I^a f)(t_j) = h^a / Gamma(a+2) * ( b_j f_0 + sum_{k=1}^{j} w_{j-k} f_k ),

    b_j = (j-1)^(a+1) - j^(a+1) + (a+1) j^a,
    w_0 = 1,   w_m = (m+1)^(a+1) - 2 m^(a+1) + (m-1)^(a+1)  (m >= 1),

which is exact for piecewise-linear data and converges at rate O(h^(1+a))
for smooth integrands.  The Mittag-Leffler kernel convolution reuses the
same weights with the kernel folded into the nodal values; the kernel is
translation invariant on a uniform grid, so one array evaluation of n+1
kernel samples serves each (grid, parameters) pair, and it is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError
from .special import MLParams, ml_eval

if TYPE_CHECKING:
    from .voigt import VoigtParams

__all__ = ["Grid", "Signal", "rl_integral", "ml_kernel_convolve"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n+1 points on [0, t_end]."""

    t_end: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be positive and finite, got {self.t_end!r}")
        if type(self.n) is not int or self.n < 1:  # bool is an int subclass
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")

    @property
    def h(self) -> float:
        return self.t_end / self.n

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(0.0, self.t_end, self.n + 1)
        pts.setflags(write=False)
        return pts


@dataclass(frozen=True)
class Signal:
    """A real function sampled on a Grid (stress history, strain, ...)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n + 1,):
            raise DomainError(
                f"values must have length n+1 = {self.grid.n + 1}, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("signal values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "Signal":
        return cls(grid, np.zeros(grid.n + 1))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[float], float]) -> "Signal":
        return cls(grid, np.array([fn(t) for t in grid.points]))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@lru_cache(maxsize=128)
def _pt_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal boundary weights b_j (j = 1..n) and convolution
    weights w_m (m = 0..n-1).  Valid for any order alpha > 0."""
    a1 = alpha + 1.0
    j = np.arange(1, n + 1, dtype=float)
    b = (j - 1.0) ** a1 - j**a1 + a1 * j**alpha
    m = np.arange(0, n, dtype=float)
    w = (m + 1.0) ** a1 - 2.0 * m**a1 + np.abs(m - 1.0) ** a1
    w[0] = 1.0
    b.setflags(write=False)
    w.setflags(write=False)
    return b, w


def _pt_apply(
    alpha: float, h: float, values: np.ndarray, b: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Evaluate the product-trapezoidal sums for all grid points at once."""
    n = len(values) - 1
    out = np.zeros(n + 1)
    if n >= 1:
        inner = np.convolve(values[1:], w)[:n]
        out[1:] = (h**alpha / math.gamma(alpha + 2.0)) * (b * values[0] + inner)
    return out


def rl_integral(alpha: float, f: Signal) -> Signal:
    """Fractional integral of order alpha of f on its own grid,
    (I^a f)(t) = 1/Gamma(a) * int_0^t (t-s)^(a-1) f(s) ds, with value 0
    at t = 0 by definition."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"rl_integral requires 0 < alpha <= 1, got {alpha!r}")
    b, w = _pt_weights(alpha, f.grid.n)
    return Signal(f.grid, _pt_apply(alpha, f.grid.h, f.values, b, w))


@lru_cache(maxsize=64)
def _kernel_profile(alpha: float, tau: float, h: float, n: int) -> np.ndarray:
    """Kernel samples E[a,a](-((m*h)/tau)^a) for offsets m = 0..n."""
    prof = ml_eval(MLParams(alpha, alpha), -(((np.arange(n + 1) * h) / tau) ** alpha))
    prof.setflags(write=False)
    return prof


def _peel_count(alpha: float, v_max: float) -> int:
    """Number of leading kernel-series terms integrated exactly.

    The Mittag-Leffler factor has a (t-s)^alpha cusp at the singular point,
    so jointly interpolating kernel times data is only O(h^(2*alpha)).
    Peeling p = ceil(1/alpha) terms leaves a remainder with a (t-s)^(p*a)
    cusp, restoring the O(h^(1+alpha)) rate.  Peeling is skipped when
    (t_end/tau)^alpha is large (the peeled powers grow like v_max^p and
    cancel wildly; measured crossover is near v_max = 20); there the plain
    scheme is used unchanged.
    """
    if v_max > 12.0:
        return 0
    return math.ceil(1.0 / alpha - 1e-12)


def ml_kernel_convolve(params: "VoigtParams", f: Signal) -> Signal:
    """Weakly singular Mittag-Leffler convolution of a sampled function,

      (1/eta^a) int_0^t (t-s)^(a-1) E[a,a](-((t-s)/tau)^a) f(s) ds,

    by product integration: the leading terms of the kernel series are pure
    powers of (t-s) and are integrated exactly against the piecewise-linear
    interpolant of f; the smooth series remainder is folded into the
    interpolated factor as in rl_integral.  Value at t = 0 is 0; the
    empirical convergence rate is O(h^(1+a))."""
    alpha = params.alpha
    tau = params.tau
    grid = f.grid
    n = grid.n
    h = grid.h
    prof = _kernel_profile(alpha, tau, h, n)

    v = ((np.arange(n + 1) * h) / tau) ** alpha  # ((m h)/tau)^a per offset
    n_peel = _peel_count(alpha, float(v[-1]))

    out = np.zeros(n + 1)
    resid_prof = np.array(prof)
    for j in range(n_peel):
        c_j = (-1.0 / tau**alpha) ** j
        order = alpha * (j + 1)
        b, w = _pt_weights(order, n)
        out += c_j * _pt_apply(order, h, f.values, b, w)
        resid_prof -= (-v) ** j / math.gamma(order)

    b, w = _pt_weights(alpha, n)
    out += math.gamma(alpha) * _pt_apply(
        alpha, h, f.values, b * resid_prof[1:], w * resid_prof[:n]
    )
    return Signal(grid, out / params.eta**alpha)
