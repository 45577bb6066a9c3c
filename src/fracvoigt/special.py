"""Two-parameter Mittag-Leffler function on the real line.

``ml_eval`` computes E[a,b](z) = sum_n z^n / Gamma(a*n + b) for a real
scalar or array z to an absolute-or-relative accuracy of 1e-10 on the
supported domain (-Z_MAX_NEG <= z <= Z_MAX_POS).  A scalar in gives a float
out; an array in gives an array of the same shape out.  One boolean-mask
selector, ``_branch_masks``, splits the arguments over three branches:

* z = 0 gives 1/Gamma(b) exactly.
* Taylor series with term-ratio truncation for z > 0, where the terms are
  single-signed, and for 1 < a <= 2, where a cancelled sum on the negative
  axis raises rather than degrades.
* For 0 < a <= 1 and every z = -x in [-Z_MAX_NEG, 0), the Bromwich
  integral E[a,b](-x) = 1/(2 pi i) int e^s s^(a-b) / (s^a + x) ds on the
  parabolic contour s = mu (1 + i v)^2, discretized by the trapezoidal rule
  in v with fixed nodes (Weideman & Trefethen, Math. Comp. 76 (2007);
  Garrappa, SIAM J. Numer. Anal. 53 (2015)).  The weights
  e^s s^(a-b) ds/dv do not depend on x, so they are built once per (a, b)
  and every x is then a short weighted sum of 1/(s^a + x).  Its error
  does not grow with x: see _CONTOUR_N for the validated range.
  E[1,1](-x) is e^(-x).

Every branch but the series takes whole arrays; the series runs per
point inside an array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["MLParams", "ml_eval", "ml_one", "ml_deriv_sign_probe"]

# Hard evaluation-domain caps for the real argument z.
Z_MAX_NEG = 100.0
Z_MAX_POS = 30.0

_SERIES_MAX_TERMS = 8000

_EPS = 2.22e-16

# Parabolic contour s = mu (1 + i v)^2 with trapezoidal nodes v_k = k*h,
# k = 0.._CONTOUR_N (the mirror half is the complex conjugate).  With the
# cut of s^a mapped to Im v = 1, the discretization error is ~e^(-2 pi/h),
# the truncation error ~e^(mu (1 - (N h)^2)) and the rounding ~eps e^mu.
# The validated range is the whole negative axis down to the cap, x <= 100,
# for every 0 < a <= 1.  Against adaptive mpmath quadrature the worst
# absolute-or-relative error is 1.5e-13 over 300 random points with
# 0.001 <= a < 1, 0.01 <= b <= 10 and 0 < x <= 100 (at b = 6.9 near
# x = 0), and 1.6e-14 for a <= 0.01 at x in {1.5, 10, 100}; at a = 1
# against mpmath's e^(-x) 1F1(b-1; b; x) / Gamma(b) it is 1.5e-13 over 680
# points with 0.01 <= b <= 1e6 (again at b = 6.9 near x = 0).  A small mu
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

    The model layer restricts alpha to (0, 1]; plain function evaluation is
    supported for 0 < alpha <= 2.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 2.0):
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta!r}")


def _series(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Taylor partial sums of the defining series.

    Returns (value, cancellation_estimate).  The estimate bounds the float64
    rounding of the largest term; for single-signed series it is a vast
    overestimate of the true error but still usable as an accept gate.
    """
    ln_abs_z = math.log(abs(z))
    negative = z < 0.0
    terms = []
    total = 0.0
    err_max = 0.0
    prev_abs = math.inf
    converged = False
    for n in range(_SERIES_MAX_TERMS):
        lg = lgamma(alpha * n + beta)
        ln_t = n * ln_abs_z - lg
        if ln_t > 709.0:
            raise AccuracyError(
                f"series term overflow for E[{alpha},{beta}]({z}); "
                "argument outside the supported growth range"
            )
        t = math.exp(ln_t)
        if negative and n % 2 == 1:
            t = -t
        terms.append(t)
        total += t
        if math.isinf(total):
            raise AccuracyError(
                f"series for E[{alpha},{beta}]({z}) overflows float64"
            )
        a_t = abs(t)
        # per-term rounding: the exponent ln_t carries absolute error
        # ~eps * (|n ln z| + |lgamma| + |ln_t|), all of which exp() turns
        # into relative error of the term
        err_max = max(
            err_max, a_t * (2.0 + abs(n * ln_abs_z) + 2.0 * abs(lg) + abs(ln_t))
        )
        if a_t <= 1e-16 * abs(total) and a_t < prev_abs:
            converged = True
            break
        prev_abs = a_t
    if not converged:
        raise AccuracyError(
            f"series for E[{alpha},{beta}]({z}) did not converge within "
            f"{_SERIES_MAX_TERMS} terms"
        )
    value = math.fsum(terms)
    return value, _EPS * err_max


def _series_checked(alpha: float, beta: float, z: float) -> float:
    """Series branch value.  The negative axis reaches it only for
    alpha > 1, where no other branch exists, so a cancelled sum raises."""
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)  # exact exponential reduction
    value, cancel = _series(alpha, beta, z)
    # accept anything that still clears the 1e-10 contract with a factor-5
    # margin (the estimate is itself conservative); beyond that an honest
    # error beats a degraded value
    if z < 0.0 and cancel > 2e-11 * max(1.0, abs(value)):
        raise AccuracyError(
            f"no branch reaches the accuracy target for "
            f"E[{alpha},{beta}]({z})"
        )
    return value


@lru_cache(maxsize=256)
def _contour_nodes(alpha: float, beta: float) -> tuple[tuple[float, ...], ...]:
    """Per node of the upper half of the parabola, the tuple
    (Re s^a, Im s^a, Re g, Im g) with trapezoidal weight
    g = (h/pi) e^s s^(a-b) ds/dv (halved at v = 0)."""
    mu = min(max(_CONTOUR_MU, beta), _CONTOUR_MU_MAX)
    v = np.arange(_CONTOUR_N + 1) * _CONTOUR_H
    s = mu * (1.0 + 1j * v) ** 2
    ds = 2j * mu * (1.0 + 1j * v)
    g = (_CONTOUR_H / math.pi) * np.exp(s) * s ** (alpha - beta) * ds
    g[0] *= 0.5
    s_a = s**alpha
    parts = (s_a.real, s_a.imag, g.real, g.imag)
    return tuple(zip(*(part.tolist() for part in parts)))


def _integral_neg(alpha: float, beta: float, x):
    """E[a,b](-x) for 0 < a <= 1 by the fixed-node rule on the parabolic
    Bromwich contour, E[a,b](-x) = Im sum_k g_k / (s_k^a + x).

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
    Z_MAX_NEG.  E[1,1](-x) is e^(-x), exactly as np.exp rounds it.
    """
    if alpha == 1.0 and beta == 1.0:
        value = np.exp(-x)  # np.exp on both paths: math.exp rounds differently
        return float(value) if isinstance(x, float) else value
    total = 0.0
    for p, q, gr, gi in _contour_nodes(alpha, beta):
        d = x + p  # Re(s^a + x)
        total = total + (gi * d - gr * q) / (d * d + q * q)
    return total


def _recip_gamma(beta: float) -> float:
    """1/Gamma(beta).  Where math.gamma overflows (beta > 171.6, or beta
    below 6e-309) the value is subnormal or zero, and exp(-lgamma) gives
    it."""
    try:
        return 1.0 / math.gamma(beta)
    except OverflowError:
        return math.exp(-lgamma(beta))


def _branch_masks(alpha: float, z):
    """Masks (zero, series, contour) over z, a float (masks are bools) or a
    float array (boolean arrays); every point lies in exactly one of them,
    and each alpha has at most one branch for z < 0."""
    zero = z == 0.0
    if alpha > 1.0:
        return zero, z != 0.0, z != z  # z is finite: no contour point
    return zero, z > 0.0, z < 0.0


# one (evaluator, takes arrays) pair per mask of _branch_masks; evaluators
# map (alpha, beta, z) to E[alpha,beta](z)
_BRANCHES = (
    (lambda alpha, beta, z: _recip_gamma(beta), True),
    (_series_checked, False),
    (lambda alpha, beta, z: _integral_neg(alpha, beta, -z), True),
)


def _eval_masked(alpha: float, beta: float, z: np.ndarray, masks) -> np.ndarray:
    """Evaluate E[a,b] at the points of the 1-d array z on the branches
    given by masks."""
    out = np.empty_like(z)
    for mask, (evaluate, on_arrays) in zip(masks, _BRANCHES):
        if on_arrays:
            if mask.any():
                out[mask] = evaluate(alpha, beta, z[mask])
        else:  # the series runs per point
            for i in np.flatnonzero(mask):
                out[i] = evaluate(alpha, beta, float(z[i]))
    return out


def _check_domain(z_min: float, z_max: float) -> None:
    """Raise unless every z in [z_min, z_max] is finite and within the caps."""
    for z in (z_min, z_max):
        if not math.isfinite(z):
            raise DomainError(f"z must be finite, got {float(z)!r}")
    if z_max > Z_MAX_POS or z_min < -Z_MAX_NEG:
        bad = z_max if z_max > Z_MAX_POS else z_min
        raise AccuracyError(
            f"z={float(bad)} outside the supported domain "
            f"[-{Z_MAX_NEG:g}, {Z_MAX_POS:g}]"
        )


def ml_eval(p: MLParams, z):
    """Evaluate E[alpha,beta](z) for a real scalar or array z.

    A scalar gives a float, an array an array of the same shape, equal bit
    for bit to evaluating its elements one at a time.  Absolute-or-relative
    accuracy is 1e-10 or better on the supported domain
    -Z_MAX_NEG <= z <= Z_MAX_POS.  Raises AccuracyError when any z lies
    outside the caps or (for rapidly growing cases at small alpha) when no
    branch converges to tolerance.
    """
    if isinstance(z, (float, int)) or np.ndim(z) == 0:
        z = float(z)
        if not -Z_MAX_NEG <= z <= Z_MAX_POS:  # also NaN
            _check_domain(z, z)
        alpha = p.alpha
        if z < 0.0 and alpha <= 1.0:  # the masks' contour branch
            return _integral_neg(alpha, p.beta, -z)
        evaluate, _ = _BRANCHES[_branch_masks(alpha, z).index(True)]
        return evaluate(alpha, p.beta, z)
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    if flat.size:
        _check_domain(flat.min(), flat.max())
    out = _eval_masked(p.alpha, p.beta, flat, _branch_masks(p.alpha, flat))
    return out.reshape(arr.shape)


@lru_cache(maxsize=64, typed=True)
def _one_params(alpha: float) -> MLParams:
    return MLParams(alpha, 1.0)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E[alpha](z) = E[alpha,1](z)."""
    return ml_eval(_one_params(alpha), z)


_PROBE_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
}


def ml_deriv_sign_probe(p: MLParams, x: float, n: int, h: float) -> float:
    """n-th central finite difference (divided by h^n) of t -> E[a,b](-t)
    at t = x, used by the complete-monotonicity test suite.

    Each alpha has one branch on the negative axis, so every stencil point
    there is evaluated on the same branch and inter-branch offsets cannot
    masquerade as sign changes in the third difference; the stencil skips
    the domain check of ml_eval.
    """
    if not isinstance(n, int) or not 0 <= n <= 3:
        raise DomainError(f"difference order n must be an int in [0, 3], got {n!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive, got {h!r}")
    if not 0.0 <= x < math.inf:  # also NaN
        raise DomainError(f"probe point x must be finite and nonnegative, got {x!r}")
    if p.alpha > 1.0 or p.beta < p.alpha:
        raise DomainError(
            "probe requires 0 < alpha <= 1 and beta >= alpha "
            f"(got alpha={p.alpha}, beta={p.beta})"
        )
    stencil = _PROBE_STENCILS[n]
    z = -(x + np.array([offset for offset, _ in stencil]) * h)
    values = _eval_masked(p.alpha, p.beta, z, _branch_masks(p.alpha, z))
    acc = 0.0
    for (_, coeff), value in zip(stencil, values):
        acc += coeff * float(value)
    return acc / h**n if n > 0 else acc
