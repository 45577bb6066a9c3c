"""Nonlinear fractional Voigt model: stress depends on the strain.

The model is solved as a fixed-point problem for the integral operator

    (T eps)(t) = (1/eta^a) int_0^t (t-s)^(a-1)
                 E[a,a](-((t-s)/tau)^a) sigma(eps(s)) ds,

iterated from eps = 0 in voigt._fixed_point, the loop that also runs
picard_linear, with Anderson mixing of depth 3 and the loop's safeguards.
The returned solution is always an image T(eps) (or its damped form): at
damping 1, exactly 0 at t = 0 and >= 0 for sigma >= 0.  Existence of a
positive bounded solution is guaranteed for continuous, convex, decreasing
sigma with sigma(eps)/eps unbounded at 0 and vanishing at infinity, but no
contraction property comes with it: convergence of the iteration is
empirical and reported honestly on the result, never presumed.
check_hypotheses screens those conditions on one fixed probe by their
sample forms; its verdict is a sanity check, not a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import DomainError, EvaluationError
from .fracops import Grid, Signal, ml_kernel_convolve
from .voigt import PicardResult, SolverConfig, VoigtParams, _fixed_point

__all__ = [
    "ConstitutiveLaw",
    "HypothesisReport",
    "apply_T",
    "solve_nonlinear",
    "residual",
    "check_hypotheses",
]

# the probe of check_hypotheses: log-spaced strains on [low, high]; values are
# compared to tol times the largest |sigma| probed, so c * sigma reads as sigma
_PROBE_LOW = 1e-8
_PROBE_HIGH = 1e8
_PROBE_SAMPLES = 200
_PROBE_TOL = 1e-12
# what a law's fn raises where it is undefined (float() of a complex: TypeError)
_LAW_ERRORS = (ArithmeticError, ValueError, TypeError)


@dataclass(frozen=True)
class ConstitutiveLaw:
    """A stress-strain law sigma(eps), total and finite for eps >= 0.  fn
    maps a 1-d array of strains elementwise; map_values alone calls it."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, eps: float) -> float:
        return float(self.map_values(np.array([float(eps)]))[0])

    def map_values(self, values: np.ndarray) -> np.ndarray:
        """sigma at every strain of the 1-d array values, by one call of fn,
        or EvaluationError: at once for an output of another shape, else at
        the first strain where fn raises one of _LAW_ERRORS or gives a
        complex or non-finite value, found by expr._first_failure."""
        law = f"constitutive law ({self.kind})"
        try:
            out = np.asarray(self.fn(values))
            defined = expr._defined(out)
        except _LAW_ERRORS:
            out, defined = values, False
        if out.shape != values.shape:
            raise EvaluationError(f"{law} maps {values.shape} strains to shape {out.shape}")
        if defined:
            return np.asarray(out, dtype=float)
        eps = float(values[expr._first_failure(self.fn, values, _LAW_ERRORS)])
        try:
            value = np.asarray(self.fn(np.array([eps]))).tolist()[0]
        except _LAW_ERRORS as exc:
            raise EvaluationError(f"{law} undefined at eps={eps!r}: {exc}") from exc
        raise EvaluationError(f"{law} returned {value!r} at eps={eps!r}")

    @classmethod
    def from_expression(cls, src: str) -> "ConstitutiveLaw":
        tree = expr.parse(src, "eps")
        return cls(kind=f"expression:{src}", fn=lambda e: expr.evaluate(tree, e))

    @classmethod
    def from_table(cls, strains: np.ndarray, stresses: np.ndarray) -> "ConstitutiveLaw":
        """Piecewise-linear law through sampled (strain, stress) pairs;
        constant extrapolation outside the sampled range."""
        s, v = np.asarray(strains, dtype=float), np.asarray(stresses, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
            raise DomainError("law table needs two equal-length 1-d columns")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise DomainError("law table entries must be finite")
        if np.any(np.diff(s) <= 0):
            raise DomainError("law table strains must be strictly increasing")
        return cls(kind="table", fn=lambda e: np.interp(e, s, v))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], name: str = "custom"):
        """A law from fn, a function of one float strain.  A complex value
        fails: a Python complex by float()'s TypeError, a numpy one as a
        complex array, which a cast to float would cut to its real part."""

        def lifted(e: np.ndarray) -> np.ndarray:
            out = [fn(x) for x in e.tolist()]
            cplx = any(issubclass(t, np.complexfloating) for t in set(map(type, out)))
            return np.array(out, dtype=complex if cplx else float)

        return cls(kind=name, fn=lifted)


def apply_T(params: VoigtParams, law: ConstitutiveLaw, eps: Signal) -> Signal:
    """One application of the fixed-point operator: the linear strain
    response to the stress history sigma(eps(t)).

    For sigma >= 0 the result is nonnegative at every grid point: the
    kernel is nonnegative by complete monotonicity, and so are the
    product-integration weights built from its integrals."""
    return ml_kernel_convolve(params, Signal(eps.grid, law.map_values(eps.values)))


def solve_nonlinear(
    params: VoigtParams,
    law: ConstitutiveLaw,
    grid: Grid,
    cfg: SolverConfig | None = None,
    damping: float = 1.0,
) -> PicardResult:
    """Fixed-point iteration of the step eps -> (1-damping) eps + damping
    T(eps) from eps = 0, Anderson-mixed (depth 3, see voigt._fixed_point).

    Damping applies to the step that is mixed: damping = 1 mixes the images
    T(eps) themselves; smaller values help non-contractive cases.  The
    solution is the last step taken, and the iteration stops when that
    step moved eps by less than cfg.tol * max(1, sup eps).  Non-convergence
    is reported, not raised.
    """
    if not (0.0 < damping <= 1.0):
        raise DomainError(f"damping must lie in (0, 1], got {damping!r}")

    def step(eps: Signal) -> Signal:
        image = apply_T(params, law, eps)
        if damping < 1.0:
            return Signal(grid, (1.0 - damping) * eps.values + damping * image.values)
        return image

    return _fixed_point(step, Signal.zeros(grid), cfg or SolverConfig(), depth=3)


def residual(params: VoigtParams, law: ConstitutiveLaw, eps: Signal) -> float:
    """Sup-norm of eps - T(eps): the fixed-point defect of a candidate
    solution on its grid."""
    image = apply_T(params, law, eps)
    return float(np.abs(eps.values - image.values).max())


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical screening of the structural conditions under which a
    positive bounded solution is known to exist."""

    is_decreasing: bool
    is_convex: bool
    sigma_at_zero: float
    e0_estimate: float
    e_inf_estimate: float
    verdict: bool


def check_hypotheses(law: ConstitutiveLaw) -> HypothesisReport:
    """Sample sigma in one law call at 200 log-spaced strains on [1e-8, 1e8],
    at the midpoint of each of their 19900 pairs and at 0, and screen the
    existence hypotheses by their sample forms to a tolerance of 1e-12 times
    the largest |sigma| sampled, so c * sigma (c = 2^k) reads as sigma: the
    samples decrease; no midpoint lies above its pair's chord (convexity);
    sigma(0) > 0, which for a convex, decreasing sigma is sigma(e)/e -> inf
    at 0; and sigma(1e8) >= 0, bounded below by 0 as apply_T's cone needs,
    which gives sigma(e)/e -> 0 at inf.  It misses a law that turns negative
    only past 1e8, such as 1 - 1e-9*eps, and a rise or kink below the
    tolerance.  The secants sigma(e)/e at 1e-8 and 1e8 are reported only."""
    pts = np.geomspace(_PROBE_LOW, _PROBE_HIGH, _PROBE_SAMPLES)  # exact endpoints
    i, j = np.triu_indices(_PROBE_SAMPLES, 1)  # every pair i < j, row by row
    probe = law.map_values(np.concatenate((pts, 0.5 * (pts[i] + pts[j]), [0.0])))
    vals, mids = probe[:_PROBE_SAMPLES], probe[_PROBE_SAMPLES:-1]
    tol = _PROBE_TOL * np.max(np.abs(probe))

    is_decreasing = bool(np.all(np.diff(vals) <= tol))
    is_convex = not np.any(mids > 0.5 * vals[i] + 0.5 * vals[j] + tol)  # halves: no overflow
    return HypothesisReport(
        is_decreasing=is_decreasing,
        is_convex=is_convex,
        sigma_at_zero=float(probe[-1]),
        e0_estimate=float(vals[0]) / _PROBE_LOW,
        e_inf_estimate=float(vals[-1]) / _PROBE_HIGH,
        verdict=bool(is_decreasing and is_convex and probe[-1] > 0.0 and vals[-1] >= 0.0),
    )
