"""Extended-precision reference values for the test suite.

The primary oracle is the defining power series summed with mpmath at a
working precision chosen from the size of the largest partial-sum term, so
float64 cancellation cannot contaminate the reference.  The series stops
being practical once |z|^(1/alpha) grows past a few hundred (the term count
and the required digits both explode), so for large negative arguments at
small alpha the oracle switches to high-precision tanh-sinh quadrature of
the real Bromwich-contour representation.  The two oracle routes are
cross-checked against each other in their overlap window and against the
exact erfc identity at alpha = 1/2 (see test_special).

Regenerate the frozen acceptance reference table with:

    python tests/oracles.py tests/data/ml_reference.csv

Rows already present are kept byte for byte and only missing rows are
computed, one worker process per CPU; delete the file first to recompute
every row.

The frozen positive-axis rows at large beta (tests/data/ml_positive_axis.csv,
seed POSITIVE_AXIS_SEED) are regenerated, in one process, with:

    python tests/oracles.py --positive-axis tests/data/ml_positive_axis.csv

and the frozen rows at beta > 3 past x = 100 (tests/data/ml_large_beta.csv,
seed LARGE_BETA_SEED), from the asymptotic series, with:

    python tests/oracles.py --large-beta tests/data/ml_large_beta.csv

The module imports the package for ml_deriv_sign_probe, the finite
differences of the complete-monotonicity checks, and for ml_one and
creep_function_alt, the one-parameter closed form of the creep function
that acceptance criterion 03 holds creep_function to.  evaluate_ref is the
reference for expression evaluation: a walk that tests each node's domain
and the finiteness of its value by hand.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import multiprocessing
import os
import random
import sys

import mpmath as mp
import numpy as np

from fracvoigt.errors import DomainError, EvaluationError
from fracvoigt.expr import BinOp, Call, Neg, Num, Var, to_source
from fracvoigt.fracops import _model_arg
from fracvoigt.special import MLParams, _eval_masked, ml_eval
from fracvoigt.voigt import _creep_times

# Series is considered practical while |z|^(1/alpha) stays below this.
_SERIES_U_CAP = 140.0


def _ml_series_mp(alpha, beta, z, extra_dps=40):
    """Partial sums of the defining series, summed until the terms drop
    below 1e-35 relative; working precision absorbs the largest term."""
    u = abs(z) ** (1.0 / alpha) if z != 0 else 0.0
    dps = 60 + extra_dps + int(0.5 * u)
    with mp.workdps(dps):
        # exact binary values of the float64 inputs; the gamma argument must
        # be formed in working precision, not float64
        zm = mp.mpf(z)
        am = mp.mpf(alpha)
        bm = mp.mpf(beta)
        s = mp.mpf(0)
        n = 0
        while True:
            t = zm**n / mp.gamma(am * n + bm)
            s += t
            if n > u / alpha and abs(t) < mp.mpf("1e-35") * max(abs(s), mp.mpf(1)):
                break
            n += 1
            if n > 200000:
                raise RuntimeError("oracle series did not converge")
        return +s


def _ml_integral_mp(alpha, beta, x):
    """E[a,b](-x) for 0 < a < 1, b <= 1 via the Bromwich-contour integral
    collapsed onto the positive real axis (smooth parameterization with a
    quadratic denominator), in mpmath precision."""
    with mp.workdps(60):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        xm = mp.mpf(x)
        cos_api = mp.cos(mp.pi * a)
        s1 = mp.sin(mp.pi * (1 - b))
        s2 = mp.sin(mp.pi * (1 + a - b))

        def integrand(s):
            if s <= 0:
                return mp.mpf(0)
            den = s * s + 2 * s * xm * cos_api + xm * xm
            num = s * s1 + xm * s2
            return mp.e ** (-(s ** (1 / a))) * s ** ((1 - b) / a) * num / (
                den * mp.pi * a
            )

        points = [mp.mpf(0), mp.mpf(1)]  # exp(-s^(1/a)) cutoff near s = 1
        if cos_api < 0:
            s_peak = -xm * cos_api
            points += [s_peak / 2, s_peak, 2 * s_peak]
        points += [2 * mp.mpf(60) ** a, mp.inf]
        return mp.quad(integrand, sorted(set(points)))


def ml_ref(alpha: float, beta: float, z: float) -> float:
    """Reference value of E[alpha,beta](z) accurate to well below 1e-13."""
    if z == 0.0:
        return float(1 / mp.gamma(beta))
    u = abs(z) ** (1.0 / alpha)
    if u <= _SERIES_U_CAP or z > 0.0:
        return float(_ml_series_mp(alpha, beta, z))
    if not (0.0 < alpha < 1.0 and z < 0.0):
        raise RuntimeError(
            f"oracle has no practical route for alpha={alpha}, z={z}"
        )
    x = -z
    m = 0
    beta0 = beta
    if beta > 1.0:
        m = math.ceil((beta - 1.0) / alpha - 1e-12)
        beta0 = beta - m * alpha
    with mp.workdps(45):
        val = _ml_integral_mp(alpha, beta0, x)
        b = mp.mpf(beta0)
        for _ in range(m):
            val = (val - 1 / mp.gamma(b)) / mp.mpf(-x)
            b += mp.mpf(alpha)
        return float(val)


_PROBE_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
}


def ml_deriv_sign_probe(p: MLParams, x: float, n: int, h: float) -> float:
    """n-th central finite difference (divided by h^n) of t -> E[a,b](-t)
    at t = x, for the complete-monotonicity checks (criterion 09,
    test_special).

    The negative axis has one branch, so every stencil point there is
    evaluated on the same branch and inter-branch offsets cannot
    masquerade as sign changes in the third difference; the stencil skips
    the domain check of ml_eval.
    """
    if not isinstance(n, int) or not 0 <= n <= 3:
        raise DomainError(f"difference order n must be an int in [0, 3], got {n!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive, got {h!r}")
    if not 0.0 <= x < math.inf:  # also NaN
        raise DomainError(f"probe point x must be finite and nonnegative, got {x!r}")
    if p.beta < p.alpha:
        raise DomainError(
            f"probe requires beta >= alpha (got alpha={p.alpha}, beta={p.beta})"
        )
    stencil = _PROBE_STENCILS[n]
    z = -(x + np.array([offset for offset, _ in stencil]) * h)
    values = _eval_masked(p.alpha, p.beta, z)
    acc = 0.0
    for (_, coeff), value in zip(stencil, values):
        acc += coeff * float(value)
    return acc / h**n if n > 0 else acc


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E[alpha](z) = E[alpha,1](z)."""
    return ml_eval(MLParams(alpha, 1.0), z)


def creep_function_alt(params, t):
    """The one-parameter form of the creep function,
    (tau/eta)^a (1 - E_a(-(t/tau)^a)), at a time or an array of times,
    validated as creep_function validates them.  It loses relative
    accuracy where (t/tau)^a is small, where 1 - E_a cancels."""
    a, tau = params.alpha, params.tau
    return (tau / params.eta) ** a * (1.0 - ml_one(a, _model_arg(a, tau, _creep_times(t))))


def rk4_solve(f, y0: float, t_grid, substeps: int = 20):
    """Classical fixed-step fourth-order Runge-Kutta integration of
    y' = f(t, y) reported on t_grid (assumed increasing, t_grid[0] = 0)."""
    out = [y0]
    y = y0
    for k in range(len(t_grid) - 1):
        t = t_grid[k]
        h = (t_grid[k + 1] - t_grid[k]) / substeps
        for _ in range(substeps):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out.append(y)
    return out


# The reference for fracvoigt.expr.evaluate: a walk that checks every node by
# hand, under np.errstate(all="ignore"), as the package once did.  A domain
# test runs before each '/', log and sqrt, a finiteness scan after each node,
# and the power check names math.pow's two errors.

# function name -> (numpy function, the reason an EvaluationError names when
# its value is not finite, or None where this is not checked)
_REF_FUNCS = {
    "exp": (np.exp, "overflow"),
    "log": (np.log, "non-finite value"),
    "sqrt": (np.sqrt, None),
    "sin": (np.sin, "overflow"),
    "cos": (np.cos, "overflow"),
    "abs": (np.abs, "overflow"),
    "pow": (np.power, None),  # checked by _check_power
}

# binary operator -> numpy function
_REF_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

# operator or function name -> (test of its last argument against 0 that
# marks a point outside the domain, the reason the error names)
_DOMAIN = {
    "/": (np.equal, "division by zero"),
    "log": (np.less_equal, "log of nonpositive value"),
    "sqrt": (np.less, "sqrt of negative value"),
}


def evaluate_ref(e, x):
    """The value of expression tree e with its variable bound to x, a float
    (float out) or an array (array out), or the EvaluationError of the
    first node, in evaluation order, that fails anywhere in x."""
    with np.errstate(all="ignore"):
        value = _eval(e, np.asarray(x, dtype=float))
    if np.ndim(x) == 0:
        return float(value)
    return np.full(np.shape(x), value)


def _check_finite(value, node, reason: str = "non-finite value"):
    if not np.isfinite(value).all():
        raise EvaluationError(f"{reason} in {to_source(node)!r}")
    return value


def _eval(e, x: np.ndarray):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return _check_finite(x, e)
    if isinstance(e, Neg):
        return -_eval(e.operand, x)
    if isinstance(e, BinOp):
        name, args = e.op, (_eval(e.left, x), _eval(e.right, x))
        fn, reason = _REF_BINOPS[name], "non-finite value"
    elif isinstance(e, Call):
        name, args = e.func, [_eval(a, x) for a in e.args]
        fn, reason = _REF_FUNCS[name]
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if name in _DOMAIN:
        outside, why = _DOMAIN[name]
        if outside(args[-1], 0.0).any():
            raise EvaluationError(f"{why} in {to_source(e)!r}")
    value = fn(*args)
    if fn is np.power:
        return _check_power(value, args[0], e)
    return value if reason is None else _check_finite(value, e, reason)


def _check_power(value, base, node):
    finite = np.isfinite(value)
    if not finite.all():
        # math.pow's two errors: a negative base to a non-integer power and
        # zero to a negative power are outside its domain, the rest overflows
        domain = np.any(np.isnan(value) | ((base == 0.0) & ~finite))
        reason = "math domain error" if domain else "math range error"
        raise EvaluationError(f"invalid power in {to_source(node)!r}: {reason}")
    return value


def _acceptance_grid():
    """(alpha, beta, z) triples of the Mittag-Leffler acceptance sweep, in
    table order: the original 16 pairs on [-50, 5], the same pairs on
    [-100, -50), then alpha in {0.1, 0.9, 0.99} on [-100, 0]."""
    values = [0.25, 0.5, 0.75, 1.0]
    blocks = [
        (values, [(-50.0 + 55.0 * i / 499.0) for i in range(500)]),
        (values, [(-100.0 + 50.0 * i / 250.0) for i in range(250)]),
        ([0.1, 0.9, 0.99], [(-100.0 + 100.0 * i / 249.0) for i in range(250)]),
    ]
    for alphas, z_grid in blocks:
        for alpha in alphas:
            for beta in values:
                for z in z_grid:
                    yield alpha, beta, z


def _ref_row(triple):
    alpha, beta, z = triple
    return [repr(alpha), repr(beta), repr(z), repr(ml_ref(alpha, beta, z))]


def regenerate_reference(path: str) -> None:
    """Write the reference table.  Rows already in the file at path are
    kept byte for byte; only missing rows cost mpmath time, spread over
    one process per CPU."""
    known = {}
    if os.path.exists(path):
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                known[tuple(row[:3])] = row
    grid = list(_acceptance_grid())
    todo = [t for t in grid if tuple(map(repr, t)) not in known]
    print(f"  {len(grid)} rows, {len(todo)} to compute", file=sys.stderr)
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(mp_context=spawn) as pool:
        for i, row in enumerate(pool.map(_ref_row, todo, chunksize=8)):
            known[tuple(row[:3])] = row
            if i % 500 == 0:
                print(f"  {i} rows done", file=sys.stderr)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "z", "value"])
        for triple in grid:
            writer.writerow(known[tuple(map(repr, triple))])


POSITIVE_AXIS_SEED = 20161
POSITIVE_AXIS_COUNT = 150


def _positive_axis_points(seed: int = POSITIVE_AXIS_SEED, count: int = POSITIVE_AXIS_COUNT):
    """Seeded (alpha, beta, z): alpha uniform in [0.2, 1], beta log-uniform
    in [0.01, 1e3], z uniform in (0, 30]."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = 0.2 + 0.8 * rng.random()
        beta = 10.0 ** (-2.0 + 5.0 * rng.random())
        z = 30.0 * (1.0 - rng.random())
        yield alpha, beta, z


def positive_axis_ref(alpha: float, beta: float, z: float) -> float | None:
    """E[alpha,beta](z) for z > 0 by the series at 40 digits, or None where
    the value overflows float64: where the largest term z^n / Gamma(a n + b)
    passes e^709, found from ln t_n = n ln z - lgamma(a n + b), which is
    concave in n, by walking n up to its peak, or where the sum does."""
    with mp.workdps(40):
        ln_z, a, b = mp.log(z), mp.mpf(alpha), mp.mpf(beta)
        n, ln_t = 0, -mp.loggamma(b)
        while True:
            if ln_t > 709:
                return None
            rise = (n + 1) * ln_z - mp.loggamma(a * (n + 1) + b)
            if rise <= ln_t:
                break  # the peak
            n, ln_t = n + 1, rise
        total, n = mp.mpf(0), 0
        while True:
            t = mp.mpf(z) ** n * mp.rgamma(a * n + b)
            total += t
            if n > 0 and t < prev and t < mp.mpf("1e-35") * total:
                break
            prev, n = t, n + 1
        value = float(total)
    return None if math.isinf(value) else value


def regenerate_positive_axis(path: str) -> None:
    """Write the frozen positive-axis rows; value None marks overflow."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "z", "value"])
        for alpha, beta, z in _positive_axis_points():
            writer.writerow([repr(alpha), repr(beta), repr(z), repr(positive_axis_ref(alpha, beta, z))])


LARGE_BETA_SEED = 20162
LARGE_BETA_COUNT = 100


def _large_beta_points(seed: int = LARGE_BETA_SEED, count: int = LARGE_BETA_COUNT):
    """Seeded (alpha, beta, z): alpha uniform in (0, 1), beta log-uniform
    in (3, 1e3], z = -x with x log-uniform in [1e2, 1e6)."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha = 0.0
        while alpha == 0.0:
            alpha = rng.random()
        beta = 3.0 * (1e3 / 3.0) ** (1.0 - rng.random())
        x = 10.0 ** (2.0 + 4.0 * rng.random())
        yield alpha, beta, -x


def large_argument_ref(alpha: float, beta: float, x: float) -> float:
    """E[alpha,beta](-x) for 0 < alpha < 1 by the asymptotic series
    sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k) (Podlubny 1999,
    Theorem 1.4), at 60 digits beyond the largest term's excess over the
    sum, stopped at its smallest term.  A term's size is taken from the
    envelope x^-k / Gamma(s) for s = beta - alpha k >= 1 and
    x^-k Gamma(1 - s) / pi below, which bounds |x^-k / Gamma(s)| and has
    no zeros: the smallest term is where the envelope first rises past
    k = beta/alpha + 1, or the first below 10^-65 of the sum."""
    lost = 0
    while True:
        with mp.workdps(60 + lost):
            a, b, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
            total, largest, last, k = mp.mpf(0), mp.mpf(0), None, 1
            while True:
                s = b - a * k
                size = xm**-k * (mp.rgamma(s) if s >= 1 else mp.gamma(1 - s) / mp.pi)
                if total and size < mp.mpf("1e-65") * abs(total):
                    break
                if last is not None and k > b / a + 1 and size > last:
                    break
                term = xm**-k * mp.rgamma(s)
                total += term if k % 2 else -term
                largest, last, k = max(largest, abs(term)), size, k + 1
            excess = int(mp.log10(largest / abs(total))) + 1
            if excess <= lost:
                return float(total)
            lost = excess


def regenerate_large_beta(path: str) -> None:
    """Write the frozen rows at beta > 3 past x = 100."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "z", "value"])
        for alpha, beta, z in _large_beta_points():
            writer.writerow([repr(alpha), repr(beta), repr(z), repr(large_argument_ref(alpha, beta, -z))])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--positive-axis"]:
        regenerate_positive_axis(sys.argv[2] if len(sys.argv) > 2 else "tests/data/ml_positive_axis.csv")
    elif sys.argv[1:2] == ["--large-beta"]:
        regenerate_large_beta(sys.argv[2] if len(sys.argv) > 2 else "tests/data/ml_large_beta.csv")
    else:
        regenerate_reference(sys.argv[1] if len(sys.argv) > 1 else "tests/data/ml_reference.csv")
