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
for smooth integrands.  The Mittag-Leffler kernel convolution is a sum of
such operators over the same data: the peeled leading powers of the kernel
series, each with its own order, and the remainder folded into the
interpolated factor.  All are linear in f, so their weights are folded once
per (alpha, tau, h, n) into one boundary vector B and one convolution
vector W of the same form.

Folded weights are memoized per (alpha, tau, h, n), and the rl_integral
weights per (alpha, n), as B together with the spectrum rfft(W, 2n); the
kernel is translation invariant on a uniform grid, so one array evaluation
of n+1 kernel samples builds them.  An apply is then one rfft of the data,
one product and one irfft: O(n log n).  Two rules keep the FFT's rounding
(about 1e-16 of the largest output) from showing where the direct sum has
none:

* causality: the data enter from their first nonzero sample on, so the
  output before it is exactly 0;
* sign: when every weight in B and W is strictly positive, the output of
  nonnegative data is clipped to >= 0.  The rl_integral weights always are
  (0 < a <= 1).  The folded kernel weights are on most grids, but not on
  all: the peeled series can make W_0 negative on grids coarser than about
  the retardation time ((h/tau)^a near 1 or above), and the tail of B
  negative for some orders near a = 0.45 once (t_end/tau)^a exceeds about
  4.  There the scheme itself gives negative values for nonnegative data,
  and they are kept, not clipped.
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


def _pt_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal boundary weights b_j (j = 1..n) and convolution
    weights w_m (m = 0..n-1).  Valid for any order alpha > 0."""
    a1 = alpha + 1.0
    j = np.arange(1, n + 1, dtype=float)
    b = (j - 1.0) ** a1 - j**a1 + a1 * j**alpha
    m = np.arange(0, n, dtype=float)
    w = (m + 1.0) ** a1 - 2.0 * m**a1 + np.abs(m - 1.0) ** a1
    w[0] = 1.0
    return b, w


def _spectrum(b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The boundary weights b, read-only, the length-2n spectrum of the
    convolution weights w, and whether all of b and w are strictly positive
    (the sign rule)."""
    spec = np.fft.rfft(w, 2 * len(w))
    b.setflags(write=False)
    spec.setflags(write=False)
    return b, spec, bool(np.all(b > 0.0) and np.all(w > 0.0))


def _pt_apply(
    weights: tuple[np.ndarray, np.ndarray, bool], values: np.ndarray
) -> np.ndarray:
    """The sums b_j f_0 + sum_{k=1}^{j} w_{j-k} f_k for j = 1..n (0 at
    j = 0) by one FFT convolution of length 2n, under the causality and
    sign rules of the module docstring."""
    b, spec, positive = weights
    n = len(b)
    out = np.zeros(n + 1)
    nonzero = np.flatnonzero(values)
    if nonzero.size == 0:
        return out
    first = max(int(nonzero[0]), 1)
    tail = np.fft.irfft(np.fft.rfft(values[first:], 2 * n) * spec, 2 * n)
    out[first:] = tail[: n + 1 - first]
    out[1:] += b * values[0]
    if positive and values.min() >= 0.0:
        np.maximum(out, 0.0, out=out)
    return out


@lru_cache(maxsize=32)
def _rl_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    return _spectrum(*_pt_weights(alpha, n))


def rl_integral(alpha: float, f: Signal) -> Signal:
    """Fractional integral of order alpha of f on its own grid,
    (I^a f)(t) = 1/Gamma(a) * int_0^t (t-s)^(a-1) f(s) ds, with value 0
    at t = 0 by definition."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"rl_integral requires 0 < alpha <= 1, got {alpha!r}")
    scale = f.grid.h**alpha / math.gamma(alpha + 2.0)
    return Signal(f.grid, scale * _pt_apply(_rl_weights(alpha, f.grid.n), f.values))


def _kernel_profile(alpha: float, tau: float, h: float, n: int) -> np.ndarray:
    """Kernel samples E[a,a](-((m*h)/tau)^a) for offsets m = 0..n."""
    return ml_eval(MLParams(alpha, alpha), -(((np.arange(n + 1) * h) / tau) ** alpha))


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


def _folded_weights(
    alpha: float, tau: float, h: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary weights B and convolution weights W of the kernel
    convolution on one (alpha, tau, h, n): each peeled power term and the
    remainder is a product-trapezoidal sum over the same data, so their
    weights add up to one pair."""
    v = ((np.arange(n + 1) * h) / tau) ** alpha  # ((m h)/tau)^a per offset
    resid = _kernel_profile(alpha, tau, h, n)
    big_b = np.zeros(n)
    big_w = np.zeros(n)
    for j in range(_peel_count(alpha, float(v[-1]))):
        order = alpha * (j + 1)
        b, w = _pt_weights(order, n)
        scale = (-1.0 / tau**alpha) ** j * h**order / math.gamma(order + 2.0)
        big_b += scale * b
        big_w += scale * w
        resid -= (-v) ** j / math.gamma(order)
    b, w = _pt_weights(alpha, n)
    scale = math.gamma(alpha) * h**alpha / math.gamma(alpha + 2.0)
    big_b += scale * b * resid[1:]
    big_w += scale * w * resid[:n]
    return big_b, big_w


@lru_cache(maxsize=32)
def _kernel_weights(
    alpha: float, tau: float, h: float, n: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    return _spectrum(*_folded_weights(alpha, tau, h, n))


def ml_kernel_convolve(params: "VoigtParams", f: Signal) -> Signal:
    """Weakly singular Mittag-Leffler convolution of a sampled function,

      (1/eta^a) int_0^t (t-s)^(a-1) E[a,a](-((t-s)/tau)^a) f(s) ds,

    by product integration: the leading terms of the kernel series are pure
    powers of (t-s) and are integrated exactly against the piecewise-linear
    interpolant of f; the smooth series remainder is folded into the
    interpolated factor as in rl_integral.  Value at t = 0 is 0; the
    empirical convergence rate is O(h^(1+a))."""
    grid = f.grid
    weights = _kernel_weights(params.alpha, params.tau, grid.h, grid.n)
    return Signal(grid, _pt_apply(weights, f.values) / params.eta**params.alpha)
