"""Two-parameter Mittag-Leffler function on the real line.

``ml_eval`` computes E[a,b](z) = sum_n z^n / Gamma(a*n + b) for a real
scalar or array z to an absolute-or-relative accuracy of 1e-10 on the
supported domain (-Z_MAX_NEG <= z <= Z_MAX_POS).  A scalar in gives a float
out; an array in gives an array of the same shape out.  One boolean-mask
selector, ``_branch_masks``, splits the arguments over four branches
(z = 0 gives 1/Gamma(b) exactly):

* Taylor series with term-ratio truncation for z > 0, where the terms are
  single-signed, and for 1 < a <= 2, where a cancelled sum on the negative
  axis raises rather than degrades.
* A stabilized confluent-series reduction for a == 1 and z < 0 (the
  alternating exponential-type series is rewritten so that all terms after
  factoring e^z are single-signed), exact to rounding for every b > 0.  An
  array runs the term recurrence over fixed buffers until every point's
  sum has stopped.
* For 0 < a < 1 and z = -x < 0 with u = x^(1/a) < 36, the Bromwich
  integral E[a,b](-x) = 1/(2 pi i) int e^s s^(a-b) / (s^a + x) ds on the
  parabolic contour s = mu (1 + i v)^2, discretized by the trapezoidal rule
  in v with fixed nodes (Weideman & Trefethen, Math. Comp. 76 (2007);
  Garrappa, SIAM J. Numer. Anal. 53 (2015)).  The weights
  e^s s^(a-b) ds/dv do not depend on x, so they are built once per (a, b)
  and every x is then a short weighted sum of 1/(s^a + x).
* For 0 < a < 1 and u >= 36, the algebraic asymptotic expansion in 1/x,
  truncated adaptively at the smallest term of its envelope.  Its
  coefficients are tabulated once per (a, b) from log-gamma, as the
  envelope ratio rho_k and a signed coefficient |c_k| <= 1, and each point
  runs the recurrence env *= rho_k / x, sum += env * c_k.  An array runs
  the same float64 operations row by row, dropping points as they stop.

Every branch but the series takes whole arrays; the series runs per
point inside an array call.

Reciprocal-gamma coefficients are computed from log-gamma plus the sign
factor so that poles of Gamma contribute exact zero terms.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["MLParams", "ml_eval", "ml_one", "ml_deriv_sign_probe"]

# Hard evaluation-domain caps for the real argument z.
Z_MAX_NEG = 100.0
Z_MAX_POS = 30.0

# The asymptotic expansion, truncated at its smallest term, has remainder
# ~exp(-|z|^(1/a)); requiring |z|^(1/a) >= 36 keeps that below 1e-15.
_ASYM_U_MIN = 36.0

_SERIES_MAX_TERMS = 8000
# rows of an asymptotic table at most: the expansion needs up to ~40/a
# terms at u = 36, so small orders need room (a = 0.015 at the domain edge
# is still covered)
_ASYM_MAX_TERMS = 2500

_EPS = 2.22e-16

# Parabolic contour s = mu (1 + i v)^2 with trapezoidal nodes v_k = k*h,
# k = 0.._CONTOUR_N (the mirror half is the complex conjugate).  With the
# cut of s^a mapped to Im v = 1, the discretization error is ~e^(-2 pi/h),
# the truncation error ~e^(mu (1 - (N h)^2)) and the rounding ~eps e^mu.
# These values keep the worst error near 4e-14 against mpmath for
# 0.02 <= a < 1, 0.01 <= b <= 4 and u <= 36; a small mu keeps the rounding
# noise of the h = 1e-3 third differences in the complete-monotonicity
# probe near 6e-7 (it was 5e-6 at N = 18, mu = 5).  For b > _CONTOUR_MU the
# parabola crosses the real axis at b instead, the saddle of e^s s^-b;
# at mu = 3.25 the error would grow to ~1e-9 at b = 15.  Past
# _CONTOUR_MU_MAX the integrand is below e^(mu - b ln mu) < 1e-46 along
# the whole contour, so the cap only keeps e^mu finite.
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


def _recip_gamma_log(w: float) -> tuple[float, float]:
    """Return (sign, log magnitude) of 1/Gamma(w); sign 0 at poles."""
    if w > 0.0:
        return 1.0, -lgamma(w)
    if w == math.floor(w):
        return 0.0, -math.inf  # pole of Gamma: 1/Gamma vanishes
    # Gamma alternates in sign between consecutive negative integers
    return (-1.0) ** (math.floor(-w) + 1), -lgamma(w)


def _series(alpha: float, beta: float, z: float) -> tuple[float, float]:
    """Taylor partial sums of the defining series.

    Returns (value, cancellation_estimate).  The estimate bounds the float64
    rounding of the largest term; for single-signed series it is a vast
    overestimate of the true error but still usable as an accept gate.
    """
    if z == 0.0:
        return 1.0 / math.gamma(beta), 0.0
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


def _confluent_sum(beta: float, x: float) -> float:
    """sum_{n>=1} x^n / ((b-1+n) n!) at one x > 0, stopped at the first
    term n > x below 1e-17 of the sum."""
    s1 = 0.0
    t = 1.0  # x^n / n!
    n = 0
    while True:
        n += 1
        t *= x / n
        term = t / (beta - 1.0 + n)
        s1 += term
        if term <= 1e-17 * s1 and n > x:
            return s1
        if n > 2000:  # x <= 100 needs < 400 terms
            raise AccuracyError(f"confluent series for E[1,{beta}](-{x}) stalled")


def _confluent_sum_array(beta: float, x: np.ndarray) -> np.ndarray:
    """_confluent_sum over a 1-d array of x, term by term with the same
    float64 operations, until every point's stop rule has fired.  Terms
    after a point's stop fall from 1e-17 of its sum, below half an ulp of
    it, so adding them leaves the sum _confluent_sum returns."""
    s1 = np.zeros_like(x)
    t = np.ones_like(x)  # x^n / n!
    r = np.empty_like(x)
    term = np.empty_like(x)
    done = np.empty(x.shape, dtype=bool)
    n = 0
    while True:
        n += 1
        np.divide(x, n, out=r)
        t *= r
        np.divide(t, beta - 1.0 + n, out=term)
        s1 += term
        np.multiply(s1, 1e-17, out=r)
        np.less_equal(term, r, out=done)
        done &= x < n
        if done.all():
            return s1
        if n > 2000:  # the scalar sum raises for the first stalled point
            _confluent_sum(beta, float(x[np.argmin(done)]))


def _confluent_neg(beta: float, x):
    """E[1,beta](-x) for x >= 0 via the Kummer-transformed series, at a
    float x (float out) or a 1-d array x (array out), equal bit for bit.

    E[1,b](-x) = e^(-x) * M(b-1, b, x) / Gamma(b) with
    M(b-1, b, x) = 1 + (b-1) * sum_{n>=1} x^n / ((b-1+n) n!),
    whose summands are single-signed, so the evaluation is cancellation-free
    for every b > 0 and x in [0, Z_MAX_NEG].
    """
    scalar = isinstance(x, float)
    m_val = 1.0
    if beta != 1.0:
        total = _confluent_sum(beta, x) if scalar else _confluent_sum_array(beta, x)
        m_val = 1.0 + (beta - 1.0) * total
    # np.exp on both paths: math.exp rounds differently in the last bit
    value = np.exp(-x) * m_val / math.gamma(beta)
    return float(value) if scalar else value


_LN_PI = math.log(math.pi)
# the expansion stops once a term's envelope is below 1e-18 * max(1, |sum|)
_ASYM_SIZE_STOP = 1e-18
# rows kept past the last one any x in the branch needs, against rounding
# differences between the envelope recurrence and its logarithm
_ASYM_SPARE_ROWS = 4


@lru_cache(maxsize=64)
def _asym_table(alpha: float, beta: float) -> tuple[tuple[array, array], ...]:
    """Rows (rho_k, c_k), k = 1, 2, ..., of the asymptotic expansion of
    E[a,b](-x), as (head, tail), each a pair of float arrays (rho, c): the
    tail holds the rows with w_k = b - a*k < 0 (k > 1), where the envelope
    may grow again.

    With the envelope constant G_k = Gamma(1 - w_k)/pi for w_k <= 0.5 and
    1/Gamma(w_k) otherwise (G_0 = 1), term k is env_k * c_k where
    env_k = G_k / x^k = env_(k-1) * rho_k / x, rho_k = G_k / G_(k-1), and
    c_k = (-1)^(k+1) / (Gamma(w_k) G_k), so |c_k| <= 1 (0 at the poles of
    Gamma).  The table stops _ASYM_SPARE_ROWS past the first row by which
    every x in [_ASYM_U_MIN^a, Z_MAX_NEG] has met a stop rule (taking
    max(1, |sum|) as 1), or at _ASYM_MAX_TERMS rows.  Rows are stored as
    packed doubles, 16 bytes each.
    """
    head = (array("d"), array("d"))
    tail = (array("d"), array("d"))
    # the x not yet stopped after row k are those with lo < ln x < hi
    lo = alpha * math.log(_ASYM_U_MIN)
    hi = math.log(Z_MAX_NEG)
    ln_size_stop = math.log(_ASYM_SIZE_STOP)
    ln_g_prev = 0.0
    spare = _ASYM_SPARE_ROWS
    for k in range(1, _ASYM_MAX_TERMS + 1):
        w = beta - alpha * k
        ln_g = lgamma(1.0 - w) - _LN_PI if w <= 0.5 else -lgamma(w)
        sgn, ln_rg = _recip_gamma_log(w)
        if k % 2 == 0:
            sgn = -sgn
        rows = head
        if w < 0.0 and k > 1:
            rows = tail
            lo = max(lo, ln_g - ln_g_prev)  # x <= rho_k stops by growth
        rows[0].append(math.exp(ln_g - ln_g_prev))
        rows[1].append(sgn * math.exp(ln_rg - ln_g))
        hi = min(hi, (ln_g - ln_size_stop) / k)  # larger x stop by size
        ln_g_prev = ln_g
        if lo >= hi:
            spare -= 1
            if spare < 0:
                break
    return head, tail


def _asym_sum(head, tail, x: float) -> tuple[float, float]:
    """(sum, truncation estimate) of the expansion at one x > 0."""
    total = 0.0
    env = 1.0
    for rho, c in zip(*head):
        env *= rho / x
        total += env * c
        if env <= _ASYM_SIZE_STOP * max(1.0, abs(total)):
            return total, env
    for rho, c in zip(*tail):
        r = rho / x
        if r >= 1.0:
            return total, env * r  # envelope minimum: optimal truncation
        env *= r
        total += env * c
        if env <= _ASYM_SIZE_STOP * max(1.0, abs(total)):
            return total, env
    return total, env


def _asym_sum_array(head, tail, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_asym_sum over a 1-d array of x, row by row: a point is frozen at the
    row where _asym_sum would return, after the same float64 operations.
    Fixed buffers updated in place keep a kernel-profile call from
    fragmenting the heap."""
    total = np.zeros_like(x)
    env = np.ones_like(x)
    est = np.empty_like(x)
    r = np.empty_like(x)
    tmp = np.empty_like(x)
    live = np.ones(x.shape, dtype=bool)
    stop = np.empty(x.shape, dtype=bool)
    grow_from = len(head[0])
    for k, (rho, c) in enumerate(zip(head[0] + tail[0], head[1] + tail[1])):
        np.divide(rho, x, out=r)
        if k >= grow_from:
            np.greater_equal(r, 1.0, out=stop)
            stop &= live
            if stop.any():
                np.multiply(env, r, out=est, where=stop)
                live &= ~stop
        np.multiply(env, r, out=env, where=live)
        np.multiply(env, c, out=tmp, where=live)
        np.add(total, tmp, out=total, where=live)
        np.abs(total, out=tmp)
        np.maximum(tmp, 1.0, out=tmp)
        tmp *= _ASYM_SIZE_STOP
        np.less_equal(env, tmp, out=stop)
        stop &= live
        if stop.any():
            np.copyto(est, env, where=stop)
            live &= ~stop
        if not live.any():
            break
    np.copyto(est, env, where=live)  # rows exhausted
    return total, est


def _asymptotic_neg(alpha: float, beta: float, x):
    """Algebraic expansion of E[a,b](-x) in powers of 1/x, truncated at the
    smallest term of its envelope.  Returns (value, truncation estimate),
    floats for a float x and arrays for a 1-d array x, equal bit for bit.

    The raw coefficients 1/Gamma(b - a*k) oscillate through the reflection
    sine factor, so growth detection uses the smooth envelope
    x^-k * Gamma(1 - b + a*k) / pi instead of the terms themselves.
    """
    head, tail = _asym_table(alpha, beta)
    if isinstance(x, float):
        total, est = _asym_sum(head, tail, x)
        stalled = est > 1e-10 * max(1.0, abs(total))
    else:
        total, est = _asym_sum_array(head, tail, x)
        bad = est > 1e-10 * np.maximum(1.0, np.abs(total))
        stalled = bad.any()
        if stalled:  # report the first stalling point, as a loop would
            i = int(np.argmax(bad))
            x, est = float(x[i]), float(est[i])
    if stalled:
        raise AccuracyError(
            f"asymptotic expansion for E[{alpha},{beta}](-{x}) stalls "
            f"at estimated error {est:.2e}"
        )
    return total, est


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
    """E[a,b](-x) for 0 < a < 1 by the fixed-node rule on the parabolic
    Bromwich contour, E[a,b](-x) = Im sum_k g_k / (s_k^a + x).

    x is a float or an array; either way every point sees the same float64
    operations in the same order, so both give bit-identical values.  The
    contour passes right of every singularity of s^(a-b) / (s^a + x) and
    through the saddle of e^s s^-b once b > _CONTOUR_MU, so orders b > 1
    need no reduction (test_special checks b up to 1e6 against mpmath).
    """
    total = 0.0
    for p, q, gr, gi in _contour_nodes(alpha, beta):
        d = x + p  # Re(s^a + x)
        total = total + (gi * d - gr * q) / (d * d + q * q)
    return total


def _x_asym(alpha: float) -> float:
    """Smallest x = -z of the asymptotic branch for 0 < alpha < 1: the
    contour branch takes -x < z < 0, the expansion z <= -x."""
    return _ASYM_U_MIN**alpha  # |z|^(1/a) >= 36


def _branch_masks(alpha: float, z):
    """Masks (zero, series, confluent, contour, asymptotic) over z, a float
    (masks are bools) or a float array (boolean arrays); every point lies in
    exactly one of them."""
    zero = z == 0.0
    none = z != z  # z is finite
    if alpha > 1.0:
        return zero, z != 0.0, none, none, none
    if alpha == 1.0:
        return zero, z > 0.0, z < 0.0, none, none
    x_asym = _x_asym(alpha)
    return zero, z > 0.0, none, (z < 0.0) & (z > -x_asym), z <= -x_asym


# one (evaluator, takes arrays) pair per mask of _branch_masks; evaluators
# map (alpha, beta, z) to E[alpha,beta](z)
_BRANCHES = (
    (lambda alpha, beta, z: 1.0 / math.gamma(beta), True),
    (_series_checked, False),
    (lambda alpha, beta, z: _confluent_neg(beta, -z), True),
    (lambda alpha, beta, z: _integral_neg(alpha, beta, -z), True),
    (lambda alpha, beta, z: _asymptotic_neg(alpha, beta, -z)[0], True),
)


def _eval_masked(alpha: float, beta: float, z: np.ndarray, masks) -> np.ndarray:
    """Evaluate E[a,b] at the points of the 1-d array z on the branches
    given by masks."""
    out = np.empty_like(z)
    for mask, (evaluate, on_arrays) in zip(masks, _BRANCHES):
        if on_arrays:
            if mask.any():
                out[mask] = evaluate(alpha, beta, z[mask])
        else:  # the adaptive branches run per point
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
        if z < 0.0 and alpha < 1.0:  # the masks' contour/asymptotic split
            if z > -_x_asym(alpha):
                return _integral_neg(alpha, p.beta, -z)
            return _asymptotic_neg(alpha, p.beta, -z)[0]
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

    All stencil points on the negative axis are evaluated on the branch
    selected at the stencil center so that inter-branch offsets of ~1e-13
    cannot masquerade as sign changes in the third difference.
    """
    if not isinstance(n, int) or not 0 <= n <= 3:
        raise DomainError(f"difference order n must be an int in [0, 3], got {n!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive, got {h!r}")
    if x < 0.0:
        raise DomainError(f"probe point x must be nonnegative, got {x!r}")
    if p.alpha > 1.0 or p.beta < p.alpha:
        raise DomainError(
            "probe requires 0 < alpha <= 1 and beta >= alpha "
            f"(got alpha={p.alpha}, beta={p.beta})"
        )
    stencil = _PROBE_STENCILS[n]
    z = -(x + np.array([offset for offset, _ in stencil]) * h)
    center = -x if x > 0.0 else -h
    masks = _branch_masks(p.alpha, np.where(z < 0.0, center, z))
    values = _eval_masked(p.alpha, p.beta, z, masks)
    acc = 0.0
    for (_, coeff), value in zip(stencil, values):
        acc += coeff * float(value)
    return acc / h**n if n > 0 else acc
