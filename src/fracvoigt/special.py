"""Two-parameter Mittag-Leffler function on the real line.

``ml_eval`` computes E[a,b](z) = sum_n z^n / Gamma(a*n + b) for a real
scalar or array z to an absolute-or-relative accuracy of 1e-10 on the
supported domain (-Z_MAX_NEG <= z <= Z_MAX_POS).  A scalar in gives a float
out; an array in gives an array of the same shape out.  The arguments
split over three branches:

* z = 0 gives 1/Gamma(b) exactly.
* Taylor series with term-ratio truncation for z > 0, where the terms are
  positive.
* For every z = -x in [-Z_MAX_NEG, 0), the Bromwich integral
  E[a,b](-x) = 1/(2 pi i) int e^s s^(a-b) / (s^a + x) ds on a parabolic
  contour by the trapezoidal rule on fixed nodes (Weideman & Trefethen,
  Math. Comp. 76 (2007); Garrappa, SIAM J. Numer. Anal. 53 (2015)).  The
  weights do not depend on x, so they are built once per (a, b)
  (_contour_nodes), and every x is a short weighted sum (_contour_sum).

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

__all__ = ["MLParams", "ml_eval"]

# Hard evaluation-domain caps for the real argument z; Z_MAX_NEG keeps the
# contour rule inside its validated range (_CONTOUR_N).
Z_MAX_NEG = 1e6
Z_MAX_POS = 30.0

_SERIES_MAX_TERMS = 8000
_SERIES_BLOCK = 64  # terms summed per step; divides _SERIES_MAX_TERMS

# Parabolic contour s = mu (1 + i v)^2 with trapezoidal nodes v_k = k*h,
# k = 0.._CONTOUR_N (the mirror half is the complex conjugate).  With the
# cut of s^a mapped to Im v = 1, the discretization error is ~e^(-2 pi/h),
# the truncation error ~e^(mu (1 - (N h)^2)) and the rounding ~eps e^mu,
# which a small mu keeps small.  The rule is validated against mpmath on
# the whole negative axis down to the cap, for every 0 < a <= 1
# (test_special).  For b > _CONTOUR_MU the parabola crosses the real axis
# at b, the saddle of e^s s^-b, so orders b > 1 need no reduction; past
# _CONTOUR_MU_MAX the integrand is below e^(mu - b ln mu) < 1e-46 along
# the whole contour, so the cap only keeps e^mu finite.
_CONTOUR_N = 22
_CONTOUR_MU = 3.25
_CONTOUR_MU_MAX = 40.0
_CONTOUR_H = 3.1 / _CONTOUR_N


@dataclass(frozen=True)
class MLParams:
    """Parameter pair (alpha, beta) of the two-parameter Mittag-Leffler
    function: alpha in (0, 1], the orders of the fractional Voigt models,
    and beta > 0, or DomainError."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta!r}")


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
        n = range(block * _SERIES_BLOCK, (block + 1) * _SERIES_BLOCK)
        lg = np.array([lgamma(alpha * k + beta) for k in n])[:, None]
        ln_t = np.array(n)[:, None] * ln_z[live] - lg
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
    _contour_sum's terms that do not depend on x."""
    mu = min(max(_CONTOUR_MU, beta), _CONTOUR_MU_MAX)
    v = np.arange(_CONTOUR_N + 1) * _CONTOUR_H
    s = mu * (1.0 + 1j * v) ** 2
    ds = 2j * mu * (1.0 + 1j * v)
    g = (_CONTOUR_H / math.pi) * np.exp(s) * s ** (alpha - beta) * ds
    g[0] *= 0.5
    s_a = s**alpha
    parts = (s_a.real, -(g.real * s_a.imag), g.imag, s_a.imag * s_a.imag)
    return tuple(zip(*(part.tolist() for part in parts)))


def _contour_sum(nodes: tuple[tuple[float, ...], ...], x):
    """E[a,b](-x) = Im sum_k g_k / (s_k^a + x) over the nodes of
    _contour_nodes(a, b), 0 < a <= 1: each term is
    (Im g d - Re g q) / (d^2 + q^2) with d = x + Re s^a and q = Im s^a.

    x is a float (float out) or an array; every point sees the same
    float64 operations in the same order, so both give bit-identical
    values.  The contour passes right of every singularity of
    s^(a-b) / (s^a + x): for a < 1, s^a + x has no zero on the principal
    sheet, and at a = 1 its zero s = -x maps to v = +-sqrt(x/mu) + i, on
    the line Im v = 1 of the branch point, so the error bound is the same.
    A larger x only flattens the integrand, so the error does not grow
    with x.
    """
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


def _eval_masked(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E[a,b] at the points of the 1-d array z: 1/Gamma(b) at z = 0, the
    series at z > 0 and the contour rule at z < 0, each branch taking its
    points at once."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)  # E[1,1](z) = e^z for every z
    out = np.empty_like(z)
    out[z == 0.0] = _recip_gamma(beta)
    if (pos := z > 0.0).any():
        out[pos] = _series(alpha, beta, z[pos])
    if (neg := z < 0.0).any():
        out[neg] = _contour_sum(_contour_nodes(alpha, beta), -z[neg])
    return out


def _raise_outside(z: float) -> None:
    """Raise for a z outside the supported domain: DomainError if it is NaN
    or infinite, AccuracyError otherwise."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {float(z)!r}")
    raise AccuracyError(
        f"z={float(z)} outside the supported domain [-{Z_MAX_NEG:g}, {Z_MAX_POS:g}]"
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
            _raise_outside(z)
        # the contour branch skips the arrays; E[1,1] is left to _eval_masked
        if z < 0.0 and (p.alpha != 1.0 or p.beta != 1.0):
            return _contour_sum(_contour_nodes(p.alpha, p.beta), -z)
        return float(_eval_masked(p.alpha, p.beta, np.array([z]))[0])
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    inside = (flat >= -Z_MAX_NEG) & (flat <= Z_MAX_POS)  # False at NaN
    if not inside.all():
        _raise_outside(flat[inside.argmin()])
    return _eval_masked(p.alpha, p.beta, flat).reshape(arr.shape)

