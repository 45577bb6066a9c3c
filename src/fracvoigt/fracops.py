"""Discrete fractional operators on uniform time grids.

Both operators are convolutions with a weakly singular kernel,
k(t) = t^(a-1) E[a,a](-(t/tau)^a), and use one product-integration rule
(Linz 1985, ch. 7): the data are replaced by their piecewise-linear
interpolant on the grid, which is integrated exactly against k.  Only the
first two integrals of k enter, and both have closed forms (Podlubny 1999,
eq. 1.100): I^1 k(t) = t^a E[a,a+1](-(t/tau)^a) and
F(t) = I^2 k(t) = t^(a+1) E[a,a+2](-(t/tau)^a).  On the grid t_m = m h,

    (k * f)(t_j) = B_j f_0 + sum_{k=1}^{j} W_{j-k} f_k,

    d_0 = 0,   d_m = F(t_m) - F(t_(m-1)),
    W_m = (d_(m+1) - d_m) / h          (m = 0..n-1),
    B_j = I^1 k(t_j) - d_j / h         (j = 1..n).

W_m is the integral of k against a hat function and B_j against a half
hat, so every weight is positive, since k is, wherever it exceeds the
rounding of its differences (about eps m of the plateau tau^a).  The
algebraic tail of k stays above it for alpha <= 0.999; the exponential
kernel of alpha = 1 falls below it past t/tau of about 20, where its
weights are rounding noise of either sign.  The rule is exact for
piecewise-linear data (a unit step reproduces the creep function to
rounding) and converges at O(h^2) for smooth data.  rl_integral is the
case tau = inf, where k(t) = t^(a-1)/Gamma(a).

The weights are memoized per (alpha, tau, h, n) as B together with the
spectrum rfft(W, 2n); one array evaluation of F and one of I^1 k at
t_0..t_n build them.  An apply is then one rfft of the data, one product
and one irfft: O(n log n).  Two rules keep the FFT's rounding (about
1e-16 of the largest output) from showing where the direct sum has none:

* causality: the data enter from their first nonzero sample on, so the
  output before it is exactly 0;
* sign: the output of nonnegative data is clipped to >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

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

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _kernel_integral(alpha: float, tau: float, nu: int, t):
    """I^nu k(t) = t^(a+nu-1) E[a,a+nu](-(t/tau)^a), the nu-fold integral of
    the kernel k(t) = t^(a-1) E[a,a](-(t/tau)^a) (Podlubny 1999, eq. 1.100),
    at a time or an array of times; tau = inf gives t^(a+nu-1)/Gamma(a+nu)."""
    z = -((t / tau) ** alpha)
    return t ** (alpha + nu - 1) * ml_eval(MLParams(alpha, alpha + nu), z)


@lru_cache(maxsize=32)
def _kernel_weights(
    alpha: float, tau: float, h: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal weights of the kernel on (alpha, tau, h, n):
    the boundary weights B, read-only, and the length-2n spectrum of the
    convolution weights W (module docstring)."""
    t = np.arange(n + 1) * h
    d = np.diff(_kernel_integral(alpha, tau, 2, t), prepend=0.0)  # d_0 = 0
    big_w = np.diff(d) / h
    big_b = _kernel_integral(alpha, tau, 1, t[1:]) - d[1:] / h
    spec = np.fft.rfft(big_w, 2 * n)
    big_b.setflags(write=False)
    spec.setflags(write=False)
    return big_b, spec


def _pt_apply(weights: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
    """The sums B_j f_0 + sum_{k=1}^{j} W_{j-k} f_k for j = 1..n (0 at
    j = 0) by one FFT convolution of length 2n, under the causality and
    sign rules of the module docstring."""
    b, spec = weights
    n = len(b)
    out = np.zeros(n + 1)
    nonzero = np.flatnonzero(values)
    if nonzero.size == 0:
        return out
    first = max(int(nonzero[0]), 1)
    tail = np.fft.irfft(np.fft.rfft(values[first:], 2 * n) * spec, 2 * n)
    out[first:] = tail[: n + 1 - first]
    out[1:] += b * values[0]
    if values.min() >= 0.0:
        np.maximum(out, 0.0, out=out)
    return out


def rl_integral(alpha: float, f: Signal) -> Signal:
    """Fractional integral of order alpha of f on its own grid,
    (I^a f)(t) = 1/Gamma(a) * int_0^t (t-s)^(a-1) f(s) ds, with value 0
    at t = 0 by definition: the kernel convolution at tau = inf, on the
    unit grid scaled by h^a."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"rl_integral requires 0 < alpha <= 1, got {alpha!r}")
    weights = _kernel_weights(alpha, math.inf, 1.0, f.grid.n)
    return Signal(f.grid, f.grid.h**alpha * _pt_apply(weights, f.values))


def ml_kernel_convolve(params: "VoigtParams", f: Signal) -> Signal:
    """Weakly singular Mittag-Leffler convolution of a sampled function,

      (1/eta^a) int_0^t (t-s)^(a-1) E[a,a](-((t-s)/tau)^a) f(s) ds,

    by product integration against the kernel's exact integrals (module
    docstring).  Value at t = 0 is 0; exact for piecewise-linear f and
    O(h^2) for smooth f."""
    grid = f.grid
    weights = _kernel_weights(params.alpha, params.tau, grid.h, grid.n)
    return Signal(grid, _pt_apply(weights, f.values) / params.eta**params.alpha)
