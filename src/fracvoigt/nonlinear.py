"""Nonlinear fractional Voigt model: stress depends on the strain.

The model is solved as a fixed-point problem for the integral operator

    (T eps)(t) = (1/eta^a) int_0^t (t-s)^(a-1)
                 E[a,a](-((t-s)/tau)^a) sigma(eps(s)) ds,

iterated from eps = 0 by plain successive substitution (optionally damped)
in voigt._fixed_point, the same loop that runs picard_linear.
Existence of a positive bounded solution is guaranteed for continuous,
convex, decreasing sigma with sigma(eps)/eps unbounded at 0 and vanishing
at infinity, but no contraction property comes with it: convergence of the
iteration is empirical and reported honestly on the result, never presumed.
check_hypotheses probes those structural conditions numerically; its
verdict is a threshold-based sanity check, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .fracops import Grid, Signal, ml_kernel_convolve
from .voigt import PicardResult, SolverConfig, VoigtParams, _fixed_point

__all__ = [
    "ConstitutiveLaw",
    "ProbeConfig",
    "HypothesisReport",
    "apply_T",
    "solve_nonlinear",
    "residual",
    "check_hypotheses",
    "E0_THRESH",
    "EINF_THRESH",
]

# Verdict thresholds standing in for the symbolic limits sigma(e)/e -> inf
# (e -> 0) and -> 0 (e -> inf).  Heuristics: the report carries the raw
# estimates so callers can apply their own judgement.
E0_THRESH = 1e6
EINF_THRESH = 1e-6
# midpoints per law call in check_hypotheses: the default 200 samples take
# one call, and memory stays bounded for any sample count
_PAIRS_PER_CALL = 1 << 20


@dataclass(frozen=True)
class ConstitutiveLaw:
    """A stress-strain law sigma(eps), total and finite on [0, bound].

    on_arrays marks an fn that also maps a whole array of strains
    elementwise (expression and table laws); other callables are applied
    one point at a time."""

    kind: str
    fn: Callable[[float], float]
    bound: float = math.inf
    on_arrays: bool = False

    def __call__(self, eps: float) -> float:
        try:
            value = float(self.fn(eps))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(
                f"constitutive law ({self.kind}) undefined at eps={eps!r}: {exc}"
            ) from exc
        if not math.isfinite(value):
            raise EvaluationError(
                f"constitutive law ({self.kind}) returned {value!r} at eps={eps!r}"
            )
        return value

    def map_values(self, values: np.ndarray) -> np.ndarray:
        """sigma at every strain in values: one call when fn takes arrays."""
        if self.on_arrays:
            try:
                out = np.asarray(self.fn(values), dtype=float)
                if np.isfinite(out).all():
                    return out
            except (ArithmeticError, ValueError):
                pass  # the loop below raises, naming the first bad eps
        return np.array([self(float(v)) for v in values])

    @classmethod
    def from_expression(cls, src: str) -> "ConstitutiveLaw":
        from . import expr

        tree = expr.parse(src, "eps")
        return cls(
            kind=f"expression:{src}", fn=lambda e: expr.evaluate(tree, e), on_arrays=True
        )

    @classmethod
    def from_table(
        cls, strains: np.ndarray, stresses: np.ndarray
    ) -> "ConstitutiveLaw":
        """Piecewise-linear law through sampled (strain, stress) pairs;
        constant extrapolation outside the sampled range."""
        s = np.asarray(strains, dtype=float)
        v = np.asarray(stresses, dtype=float)
        if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
            raise DomainError("law table needs two equal-length 1-d columns")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise DomainError("law table entries must be finite")
        if np.any(np.diff(s) <= 0):
            raise DomainError("law table strains must be strictly increasing")
        return cls(
            kind="table",
            fn=lambda e: np.interp(e, s, v),
            bound=float(s[-1]),
            on_arrays=True,
        )

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], name: str = "custom"):
        return cls(kind=name, fn=fn)


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
    """Fixed-point iteration eps <- (1-damping) eps + damping * T(eps)
    starting from eps = 0.

    damping = 1 is plain successive substitution; smaller values help
    non-contractive cases.  Non-convergence is reported, not raised (see
    voigt._fixed_point).
    """
    if not (0.0 < damping <= 1.0):
        raise DomainError(f"damping must lie in (0, 1], got {damping!r}")

    def step(eps: Signal) -> Signal:
        image = apply_T(params, law, eps)
        if damping < 1.0:
            return Signal(grid, (1.0 - damping) * eps.values + damping * image.values)
        return image

    return _fixed_point(step, Signal.zeros(grid), cfg or SolverConfig())


def residual(params: VoigtParams, law: ConstitutiveLaw, eps: Signal) -> float:
    """Sup-norm of eps - T(eps): the fixed-point defect of a candidate
    solution on its grid."""
    image = apply_T(params, law, eps)
    return float(np.max(np.abs(eps.values - image.values)))


@dataclass(frozen=True)
class ProbeConfig:
    eps_small: float = 1e-8
    upper: float = 1e8
    samples: int = 200
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_small < self.upper):
            raise DomainError("probe needs 0 < eps_small < upper")
        if type(self.samples) is not int or self.samples < 3:  # rejects bool
            raise DomainError(f"samples must be an integer >= 3, got {self.samples!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise DomainError(f"tol must be nonnegative, got {self.tol!r}")


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


def check_hypotheses(
    law: ConstitutiveLaw, probe: ProbeConfig | None = None
) -> HypothesisReport:
    """Sample sigma on a log-spaced set and test the structural hypotheses:
    decreasing (no adjacent increase beyond tol), midpoint convexity over
    all sampled pairs, sigma(0) > 0, and threshold checks on the secant
    estimates sigma(e)/e at eps_small and at upper."""
    if probe is None:
        probe = ProbeConfig()
    pts = np.geomspace(probe.eps_small, probe.upper, probe.samples)
    vals = law.map_values(pts)

    is_decreasing = bool(np.all(np.diff(vals) <= probe.tol))

    # midpoint convexity over all pairs i < j, a block of rows per call
    m = len(pts)
    rows = max(1, _PAIRS_PER_CALL // m)
    is_convex = True
    for lo in range(0, m - 1, rows):
        i, j = np.nonzero(np.arange(lo, min(lo + rows, m))[:, None] < np.arange(m))
        i += lo
        mids = law.map_values(0.5 * (pts[i] + pts[j]))
        if np.any(mids > 0.5 * (vals[i] + vals[j]) + probe.tol):
            is_convex = False
            break

    sigma_at_zero = law(0.0)
    e0 = law(probe.eps_small) / probe.eps_small
    e_inf = law(probe.upper) / probe.upper
    verdict = (
        is_decreasing
        and is_convex
        and sigma_at_zero > 0.0
        and e0 >= E0_THRESH
        and e_inf <= EINF_THRESH
    )
    return HypothesisReport(
        is_decreasing=is_decreasing,
        is_convex=is_convex,
        sigma_at_zero=sigma_at_zero,
        e0_estimate=e0,
        e_inf_estimate=e_inf,
        verdict=verdict,
    )
