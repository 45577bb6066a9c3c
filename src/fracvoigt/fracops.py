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
rounding of the differences (about eps m of the plateau tau^a).  Late in
the long-time range the algebraic tail of alpha < 1 falls below it; such
weights are rounding noise of either sign, and the outputs stay exact to
rounding (test_fracops).  The exponential kernel of alpha = 1 (finite
tau) takes no differences.  With r = h/tau and q = e^(-r) its weights
are geometric,

    W_0 = F(h)/h = tau (1 + expm1(-r)/r),
    W_m = I^1 k(h)^2 q^(m-1) / h = (4 tau^2/h) e^(-t_m/tau) sinh^2(r/2),
    B_j = (I^1 k(h) - F(h)/h) q^(j-1) = tau e^(-t_j/tau) (expm1(r)/r - 1),

products of positive factors that are built from I^1 k(h) and F(h): the
expm1 forms lose 1/r of their digits where h << tau.  The rule is exact
for piecewise-linear data and converges at O(h^2) for smooth data while
h << tau.  Where h >> tau the kernel's algebraic tail meets the
interpolation error in the last cell, and the error, about h^2 (tau/h)^a,
falls as h^(2-a) (test_fracops).  rl_integral is the case tau = inf,
where k(t) = t^(a-1)/Gamma(a).

Constant data c need no weights: the sums telescope to c I^1 k(t_j), the
exact response to a constant load (the creep function times eta^a), and
zero data give +0.0.  The step response and the weights, B with the
spectrum rfft(W, 2n), are memoized per (alpha, tau, h, n); one array
evaluation of F at t_0..t_n and the step response build the weights.  An
apply of any other data is then one rfft of the data, one product and
one irfft: O(n log n).  Two rules keep the FFT's rounding (about 1e-16 of the
largest output) from showing where the direct sum has none:

* causality: the data enter from their first nonzero sample on, so the
  output before it is exactly 0;
* sign: the output of nonnegative data is clipped to >= 0.

Every apply runs on the data scaled by 2^-e, e the binary exponent of
their largest magnitude, and scales the result, the operator's factor
(1/eta^a, or h^a on the unit grid) included, back by 2^e.  A power of two
is exact, bar data below 2^(e-1022) that turn subnormal, which lie under
the rounding of the largest output, and subnormal outputs, rounded once
on the way back; so the sums are those of the rule in a wider exponent
range.  The FFT, which sums the data at frequency 0, cannot overflow on
finite data near the float max, and subnormal data keep their digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .special import Z_MAX_NEG, MLParams, ml_eval

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
        if not np.isfinite(vals).all():
            raise DomainError("signal values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "Signal":
        return cls(grid, np.zeros(grid.n + 1))

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def _model_arg(alpha: float, tau: float, t):
    """z = -(t/tau)^a at a time or an array of times, under the model's range rule."""
    z = -((t / tau) ** alpha)
    if not (z if isinstance(z, float) else z.min(initial=0.0)) >= -Z_MAX_NEG:  # also NaN
        raise DomainError(
            f"t / tau = {np.max(t / tau):.6g} is past 10^{math.log10(Z_MAX_NEG) / alpha:.4g},"
            f" its largest supported value at alpha = {alpha:g} (tau = eta / e_mod)"
        )
    return z


def _kernel_integral(alpha: float, tau: float, nu: int, t):
    """I^nu k(t) = t^(a+nu-1) E[a,a+nu](-(t/tau)^a), the nu-fold integral of
    the kernel k(t) = t^(a-1) E[a,a](-(t/tau)^a) (Podlubny 1999, eq. 1.100),
    at a time or an array of times; tau = inf gives t^(a+nu-1)/Gamma(a+nu)."""
    z = _model_arg(alpha, tau, t)
    return t ** (alpha + nu - 1) * ml_eval(MLParams(alpha, alpha + nu), z)


# a _kernel_weights entry holds ~24 bytes per grid point and a
# _step_response entry 8 more; no caller keeps more than two keys live
# (picard_linear's RL kernel and one ML kernel; a solve reuses one)
@lru_cache(maxsize=2)
def _step_response(alpha: float, tau: float, h: float, n: int) -> np.ndarray:
    """I^1 k(t_j) at t_j = j h for j = 1..n, read-only (module docstring)."""
    step = _kernel_integral(alpha, tau, 1, np.arange(1, n + 1) * h)
    step.setflags(write=False)
    return step


@lru_cache(maxsize=2)
def _kernel_weights(
    alpha: float, tau: float, h: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal weights of the kernel on (alpha, tau, h, n):
    the boundary weights B, read-only, and the length-2n spectrum of the
    convolution weights W (module docstring)."""
    t = np.arange(n + 1) * h
    if alpha == 1.0 and tau < math.inf:  # the exponential kernel's geometric weights
        q = np.exp(_model_arg(alpha, tau, t))[:-1]  # e^(-t_m/tau), m = 0..n-1
        i1, f2 = _kernel_integral(alpha, tau, 1, h), _kernel_integral(alpha, tau, 2, h)
        big_w = np.concatenate(([f2 / h], i1 * i1 / h * q[:-1]))
        big_b = (i1 - f2 / h) * q
    else:
        d = np.diff(_kernel_integral(alpha, tau, 2, t), prepend=0.0)  # d_0 = 0
        big_w = np.diff(d) / h
        big_b = _step_response(alpha, tau, h, n) - d[1:] / h
    spec = np.fft.rfft(big_w, 2 * n)
    big_b.setflags(write=False)
    spec.setflags(write=False)
    return big_b, spec


def _convolve(alpha: float, tau: float, h: float, n: int, values: np.ndarray) -> np.ndarray:
    """The product-integration sums of the module docstring for the data
    values on (alpha, tau, h, n): c I^1 k(t_j) for constant data c, which
    the sums telescope to, and an FFT apply of the weights otherwise."""
    c = values[0]
    if c == values[-1] and (values == c).all():  # the first test rejects most data
        out = np.zeros(n + 1)
        if c:  # zero data, -0.0 among them, give +0.0
            out[1:] = c * _step_response(alpha, tau, h, n)
        return out
    return _pt_apply(_kernel_weights(alpha, tau, h, n), values)


def _pt_apply(weights: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
    """The sums B_j f_0 + sum_{k=1}^{j} W_{j-k} f_k for j = 1..n (0 at
    j = 0) of data that are not constant, by one FFT convolution of
    length 2n, under the causality and sign rules of the module
    docstring."""
    b, spec = weights
    n = len(b)
    out = np.zeros(n + 1)
    if values[0] or values[1]:
        first = 1
    else:  # data that start late: scan for the first load (zero data are constant)
        first = int(np.flatnonzero(values)[0])
    tail = np.fft.irfft(np.fft.rfft(values[first:], 2 * n) * spec, 2 * n)
    out[first:] = tail[: n + 1 - first]
    out[1:] += b * values[0]
    if values.min() >= 0.0:
        np.maximum(out, 0.0, out=out)
    return out


def _apply(alpha: float, tau: float, h: float, f: Signal, finish, message: str) -> Signal:
    """finish(sums) as a Signal, for the product-integration sums of the
    data f on (alpha, tau, h, n), made on f scaled by 2^-e and scaled back
    (module docstring); finish applies the operator's factor, and
    DomainError(message) names an output that overflows."""
    e = math.frexp(f.sup_norm())[1]
    with np.errstate(all="ignore"):  # an overflow is raised below
        out = np.ldexp(finish(_convolve(alpha, tau, h, f.grid.n, np.ldexp(f.values, -e))), e)
    try:
        return Signal(f.grid, out)
    except DomainError:
        raise DomainError(message) from None


def rl_integral(alpha: float, f: Signal) -> Signal:
    """Fractional integral of order alpha of f on its own grid,
    (I^a f)(t) = 1/Gamma(a) * int_0^t (t-s)^(a-1) f(s) ds, with value 0
    at t = 0 by definition: the kernel convolution at tau = inf, on the
    unit grid scaled by h^a."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"rl_integral requires 0 < alpha <= 1, got {alpha!r}")
    h_a = f.grid.h**alpha
    return _apply(
        alpha, math.inf, 1.0, f, lambda out: h_a * out, "fractional integral overflows float64"
    )


def ml_kernel_convolve(params: "VoigtParams", f: Signal) -> Signal:
    """Weakly singular Mittag-Leffler convolution of a sampled function,

      (1/eta^a) int_0^t (t-s)^(a-1) E[a,a](-((t-s)/tau)^a) f(s) ds,

    by product integration against the kernel's exact integrals (module
    docstring).  Value at t = 0 is 0; exact for piecewise-linear f and
    O(h^2) for smooth f while h << tau, O(h^(2-a)) where h >> tau."""
    eta_a = params.eta**params.alpha
    return _apply(
        params.alpha, params.tau, f.grid.h, f,
        lambda out: np.divide(out, eta_a, out=out), "strain overflows float64",
    )
