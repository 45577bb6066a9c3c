"""Two-parameter Mittag-Leffler function on the real line.

``ml_eval`` computes E[a,b](z) = sum_n z^n / Gamma(a*n + b) for a real
scalar or array z to an absolute-or-relative accuracy of 1e-10 on the
supported domain (-Z_MAX_NEG <= z <= Z_MAX_POS).  A scalar in gives a float
out; an array in gives an array of the same shape out.  One boolean-mask
selector, ``_branch_masks``, splits the arguments over three branches:

* z = 0 gives 1/Gamma(b) exactly.
* Taylor series with term-ratio truncation for z > 0, where the terms are
  positive.
* For every z = -x in [-Z_MAX_NEG, 0), the Bromwich integral
  E[a,b](-x) = 1/(2 pi i) int e^s s^(a-b) / (s^a + x) ds on the parabolic
  contour s = mu (1 + i v)^2, discretized by the trapezoidal rule in v
  with fixed nodes (Weideman & Trefethen, Math. Comp. 76 (2007);
  Garrappa, SIAM J. Numer. Anal. 53 (2015)).  The weights
  e^s s^(a-b) ds/dv do not depend on x, so they are built once per (a, b)
  and every x is then a short weighted sum of 1/(s^a + x).  Its error
  does not grow with x, so the cap Z_MAX_NEG = 1e6 reaches the plateau of
  the long-time creep regime: see _CONTOUR_N for the validated range.

Every branch takes whole arrays, and E[1,1](z) is e^z for every z.  The
order a lies in (0, 1], the range of the fractional Voigt models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["MLParams", "ml_eval", "ml_one"]

# Hard evaluation-domain caps for the real argument z.  Z_MAX_NEG keeps the
# contour rule inside its validated range (_CONTOUR_N); its sum flushes to 0
# past x ~ 1e154, where d * d overflows, and turns NaN near x = 1.7e308.
Z_MAX_NEG = 1e6
Z_MAX_POS = 30.0

_SERIES_MAX_TERMS = 8000
_SERIES_BLOCK = 64  # terms summed per step; divides _SERIES_MAX_TERMS

# Parabolic contour s = mu (1 + i v)^2 with trapezoidal nodes v_k = k*h,
# k = 0.._CONTOUR_N (the mirror half is the complex conjugate).  With the
# cut of s^a mapped to Im v = 1, the discretization error is ~e^(-2 pi/h),
# the truncation error ~e^(mu (1 - (N h)^2)) and the rounding ~eps e^mu.
# The validated range is the whole negative axis down to the cap,
# x <= Z_MAX_NEG = 1e6, for every 0 < a <= 1.  Against adaptive mpmath
# quadrature the worst
# absolute-or-relative error is 1.5e-13 over 300 random points with
# 0.001 <= a < 1, 0.01 <= b <= 10 and 0 < x <= 100 (at b = 6.9 near
# x = 0), and 1.6e-14 for a <= 0.01 at x in {1.5, 10, 100}; at a = 1
# against mpmath's e^(-x) 1F1(b-1; b; x) / Gamma(b) it is 1.5e-13 over 680
# points with 0.01 <= b <= 1e6 (again at b = 6.9 near x = 0).  Past x = 100
# it is 3.0e-16 over the 57 frozen test_special rows at x in {150, 3e4, 1e6}
# (a in {0.3, 0.5, 0.75, 0.9} against tests/oracles.ml_ref, a = 1 against
# 1F1, b in {a, 1, a+1, a+2}).  A small mu
# keeps the rounding noise of the h = 1e-3 third differences in the
# complete-monotonicity probe near 6e-7 (it was 5e-6 at N = 18, mu = 5).  For b > _CONTOUR_MU the parabola
# crosses the real axis at b instead, the saddle of e^s s^-b; at mu = 3.25
# the error would grow to ~1e-9 at b = 15.  Past _CONTOUR_MU_MAX the
# integrand is below e^(mu - b ln mu) < 1e-46 along the whole contour, so
# the cap only keeps e^mu finite.
_CONTOUR_N = 22
_CONTOUR_MU = 3.25
_CONTOUR_MU_MAX = 40.0
_CONTOUR_H = 3.1 / _CONTOUR_N


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of the two-parameter Mittag-Leffler
    function.

    alpha lies in (0, 1], the orders of the fractional Voigt models, and
    beta is positive.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta!r}")


# one entry per 64-term block (~0.6 KiB): an evaluation at small alpha near
# Z_MAX_POS walks up to 125 blocks of one (alpha, beta), so fewer would
# rebuild the whole column on every repeat at that pair
@lru_cache(maxsize=256)
def _series_lgamma(alpha: float, beta: float, block: int) -> np.ndarray:
    """Column of lgamma(alpha n + beta) over the terms n of one block."""
    start = block * _SERIES_BLOCK
    lg = [lgamma(alpha * n + beta) for n in range(start, start + _SERIES_BLOCK)]
    column = np.array(lg)[:, None]
    column.flags.writeable = False
    return column


def _series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E[a,b](z) at the points of the array z > 0 by the defining series.

    The terms z^n / Gamma(a n + b) are positive, so the value is the running
    sum, taken _SERIES_BLOCK terms at a time: one cumsum down each column
    from the total carried over.  A point stops at the first term t with
    t <= 1e-16 * total once the terms fall: ln t below the ln of the term
    before it, so terms that underflow to 0 before they peak (1/Gamma(b)
    underflows at b > 171.6) do not stop it.  A term past e^709,
    an infinite total or no stop within _SERIES_MAX_TERMS terms raises
    AccuracyError for the first such point in array order.
    """
    ln_z = np.log(z)
    value = np.empty_like(z)
    failed = np.zeros(z.size, dtype=np.int8)  # 1 term, 2 total, 3 no stop
    live = np.arange(z.size)
    total = np.zeros((1, z.size))
    prev = np.full((1, z.size), -np.inf)  # ln of the term before; term 0 never stops
    for block in range(_SERIES_MAX_TERMS // _SERIES_BLOCK):
        n = np.arange(block * _SERIES_BLOCK, (block + 1) * _SERIES_BLOCK)
        ln_t = n[:, None] * ln_z[live] - _series_lgamma(alpha, beta, block)
        with np.errstate(over="ignore"):  # overflow is found and raised below
            t = np.exp(ln_t)
            sums = np.cumsum(np.vstack((total, t)), axis=0)[1:]
        big = ln_t > 709.0
        bad = big | np.isinf(sums)
        stop = bad | (t <= 1e-16 * sums) & (ln_t < np.vstack((prev, ln_t[:-1])))
        first = stop.argmax(axis=0)
        done = stop.any(axis=0)
        cols = np.flatnonzero(done)
        rows = first[cols]
        value[live[cols]] = sums[rows, cols]
        failed[live[cols]] = np.where(big[rows, cols], 1, 2) * bad[rows, cols]
        live, total, prev = live[~done], sums[-1:, ~done], ln_t[-1:, ~done]
        if not live.size:
            break
    failed[live] = 3
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        where = f"E[{alpha},{beta}]({float(z[i])})"
        raise AccuracyError(
            (
                f"series term overflow for {where}; "
                "argument outside the supported growth range",
                f"series for {where} overflows float64",
                f"series for {where} did not converge within "
                f"{_SERIES_MAX_TERMS} terms",
            )[failed[i] - 1]
        )
    return value


# ~4.6 KiB an entry.  A material needs two pairs, (a, a+1) for the step
# response and creep and (a, a+2) for F = I^2 k, and VoigtParams._creep
# and the fracops caches keep what they reuse, so 8 entries cover four
# materials used in turn
@lru_cache(maxsize=8)
def _contour_nodes(alpha: float, beta: float) -> tuple[tuple[float, ...], ...]:
    """Per node of the upper half of the parabola, the tuple
    (Re s^a, -(Re g Im s^a), Im g, (Im s^a)^2) with trapezoidal weight
    g = (h/pi) e^s s^(a-b) ds/dv (halved at v = 0): the products of
    _integral_neg's sum that do not depend on x."""
    mu = min(max(_CONTOUR_MU, beta), _CONTOUR_MU_MAX)
    v = np.arange(_CONTOUR_N + 1) * _CONTOUR_H
    s = mu * (1.0 + 1j * v) ** 2
    ds = 2j * mu * (1.0 + 1j * v)
    g = (_CONTOUR_H / math.pi) * np.exp(s) * s ** (alpha - beta) * ds
    g[0] *= 0.5
    s_a = s**alpha
    parts = (s_a.real, -(g.real * s_a.imag), g.imag, s_a.imag * s_a.imag)
    return tuple(zip(*(part.tolist() for part in parts)))


def _integral_neg(alpha: float, beta: float, x):
    """E[a,b](-x) for 0 < a <= 1 by the fixed-node rule on the parabolic
    Bromwich contour, E[a,b](-x) = Im sum_k g_k / (s_k^a + x): each term is
    (Im g d - Re g q) / (d^2 + q^2) with d = x + Re s^a and q = Im s^a,
    and _contour_nodes holds -Re g q and q^2, so a node costs 7 flops.

    x is a float (float out) or an array; either way every point sees the
    same float64 operations in the same order, so both give bit-identical
    values.  The contour passes right of every singularity of
    s^(a-b) / (s^a + x) and through the saddle of e^s s^-b once
    b > _CONTOUR_MU, so orders b > 1 need no reduction (test_special checks
    b up to 1e6 against mpmath).  For a < 1, s^a + x has no zero on the
    principal sheet; at a = 1 its zero s = -x maps to v = +-sqrt(x/mu) + i,
    on the line Im v = 1 of the branch point, so the error bound is the
    same.  A larger x only flattens the integrand, so the error does not
    grow with x: it stays below 1e-14 out to x = 1e8, past the cap
    Z_MAX_NEG = 1e6.
    """
    return _contour_sum(_contour_nodes(alpha, beta), x)


def _contour_sum(nodes: tuple[tuple[float, ...], ...], x):
    """_integral_neg's sum over the nodes that _contour_nodes built."""
    total = 0.0
    for p, k, gi, q2 in nodes:
        d = x + p  # Re(s^a + x)
        total = total + (gi * d + k) / (d * d + q2)
    return total


def _recip_gamma(beta: float) -> float:
    """1/Gamma(beta).  Where math.gamma overflows (beta > 171.6, or beta
    below 6e-309) the value is subnormal or zero, and exp(-lgamma) gives
    it."""
    try:
        return 1.0 / math.gamma(beta)
    except OverflowError:
        return math.exp(-lgamma(beta))


def _branch_masks(z: np.ndarray):
    """Masks (zero, series, contour) over the float array z; every finite
    point lies in exactly one of them."""
    return z == 0.0, z > 0.0, z < 0.0


# one evaluator per mask of _branch_masks, mapping (alpha, beta, z) for an
# array z to E[alpha,beta](z)
_BRANCHES = (
    lambda alpha, beta, z: _recip_gamma(beta),
    _series,
    lambda alpha, beta, z: _integral_neg(alpha, beta, -z),
)


def _eval_masked(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E[a,b] at the points of the 1-d array z, each branch taking its
    masked points at once."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)  # E[1,1](z) = e^z for every z
    out = np.empty_like(z)
    for mask, evaluate in zip(_branch_masks(z), _BRANCHES):
        if mask.any():
            out[mask] = evaluate(alpha, beta, z[mask])
    return out


def _check_domain(z: float) -> None:
    """Raise unless z is finite and within the caps."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {float(z)!r}")
    if not -Z_MAX_NEG <= z <= Z_MAX_POS:
        raise AccuracyError(
            f"z={float(z)} outside the supported domain "
            f"[-{Z_MAX_NEG:g}, {Z_MAX_POS:g}]"
        )


def ml_eval(p: MLParams, z):
    """Evaluate E[alpha,beta](z) for a real scalar or array z.

    A scalar gives a float, an array an array of the same shape, equal bit
    for bit to evaluating its elements one at a time.  Absolute-or-relative
    accuracy is 1e-10 or better on the supported domain
    -Z_MAX_NEG <= z <= Z_MAX_POS.  The first z in array order outside that
    domain raises DomainError if it is NaN or infinite and AccuracyError
    otherwise.  Inside it, AccuracyError names the first z > 0 where the
    series overflows float64 (rapid growth at small alpha).
    """
    if isinstance(z, (float, int)) or np.ndim(z) == 0:
        z = float(z)
        if not -Z_MAX_NEG <= z <= Z_MAX_POS:  # also NaN
            _check_domain(z)
        # the contour branch skips the arrays; E[1,1] is left to _eval_masked
        if z < 0.0 and (p.alpha != 1.0 or p.beta != 1.0):
            return _integral_neg(p.alpha, p.beta, -z)
        return float(_eval_masked(p.alpha, p.beta, np.array([z]))[0])
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    inside = (flat >= -Z_MAX_NEG) & (flat <= Z_MAX_POS)  # False at NaN
    if not inside.all():
        _check_domain(flat[inside.argmin()])
    return _eval_masked(p.alpha, p.beta, flat).reshape(arr.shape)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E[alpha](z) = E[alpha,1](z)."""
    return ml_eval(MLParams(alpha, 1.0), z)

