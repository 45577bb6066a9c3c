"""Model invariants as Hypothesis properties: sign and causality of the
discrete operators, nonnegative nonlinear solves, monotone bounded creep,
the alpha = 1 exponential reduction, Picard iterates approaching the
direct linear solution, and array Mittag-Leffler and creep calls agreeing
with their scalar calls."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvoigt.errors import AccuracyError, DomainError
from fracvoigt.fracops import Grid, Signal
from fracvoigt.nonlinear import ConstitutiveLaw, apply_T, solve_nonlinear
from fracvoigt.special import Z_MAX_NEG, MLParams, ml_eval
from fracvoigt.voigt import (
    SolverConfig,
    VoigtParams,
    creep_function,
    linear_strain,
    picard_linear,
)

from test_fracops import builder_weights, fft_apply

log_scale = st.floats(-2.0, 2.0).map(math.exp)
# largest (t/tau)^alpha a test draws: t = x^(1/alpha) tau maps back to x
# within a few ulp, which may land past the cap Z_MAX_NEG itself
Z_REACH = Z_MAX_NEG * (1.0 - 1e-12)


@st.composite
def nonnegative_histories(draw):
    """A material, a grid with (t_end/tau)^a up to 99, and nonnegative data
    that are zero up to a drawn index: random values, or a history that
    is tiny for most of the window and large at its end."""
    alpha = draw(st.floats(0.1, 1.0))
    params = VoigtParams(eta=draw(log_scale), e_mod=draw(log_scale), alpha=alpha)
    v_max = math.exp(draw(st.floats(math.log(0.01), math.log(99.0))))
    n = draw(st.integers(1, 600))
    grid = Grid(v_max ** (1.0 / alpha) * params.tau, n)
    lead = draw(st.integers(0, n))
    t = grid.points / grid.t_end
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.random(n + 1) * (rng.random(n + 1) < 0.8)
    else:
        values = np.exp(-draw(st.floats(50.0, 700.0)) * (1.0 - t))
    values[:lead] = 0.0
    return params, Signal(grid, values)


def assert_causal_and_signed(data, out):
    """Exactly 0 before the first nonzero sample; >= 0 everywhere."""
    nonzero = np.flatnonzero(data.values)
    first = int(nonzero[0]) if nonzero.size else data.grid.n + 1
    assert np.all(out.values[: max(first, 1)] == 0.0)
    assert np.all(out.values >= 0.0)


@settings(max_examples=150, deadline=None)
@given(nonnegative_histories())
def test_linear_strain_causal_and_nonnegative(case):
    params, stress = case
    assert_causal_and_signed(stress, linear_strain(params, stress))


@settings(max_examples=100, deadline=None)
@given(nonnegative_histories(), st.sampled_from(["eps*exp(-eps)", "eps^2/(1+eps)", "3*eps"]))
def test_apply_T_causal_and_nonnegative(case, law_src):
    # sigma(0) = 0 and sigma >= 0, so sigma(eps) keeps eps's leading zeros
    params, eps = case
    law = ConstitutiveLaw.from_expression(law_src)
    stress = Signal(eps.grid, law.map_values(eps.values))
    assert_causal_and_signed(stress, apply_T(params, law, eps))


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.one_of(st.floats(0.02, 1.0), st.just(1.0)),
    tau=log_scale,
    v_max=st.floats(math.log(1e-3), math.log(99.0)).map(math.exp),
    n=st.integers(1, 4096),
)
def test_kernel_weights_positive(alpha, tau, v_max, n):
    # W_m and B_j integrate the positive kernel against a hat and a half
    # hat.  Their differences round to about eps m of the plateau, which
    # the algebraic tail of k stays above for alpha <= 0.999 while
    # (t/tau)^alpha <= 99; the exponential kernel of alpha = 1 takes no
    # differences, since its weights are geometric.  v_max stops at 99, not
    # at Z_MAX_NEG: at n = 4096 a weight <= 0 appears near
    # (t/tau)^alpha = 3e4 at alpha = 0.999 (fracops docstring), and the
    # outputs stay exact to rounding there
    # (test_constant_data_match_the_fft_apply).
    b, w = builder_weights(alpha, tau, v_max ** (1.0 / alpha) * tau / n, n)
    assert np.all(b > 0.0) and np.all(w > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    eta=log_scale,
    e_mod=log_scale,
    v_max=st.floats(math.log(1e-3), math.log(Z_REACH)).map(math.exp),
)
def test_creep_monotone_and_bounded(alpha, eta, e_mod, v_max):
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    plateau = (p.tau / p.eta) ** alpha
    t = np.linspace(0.0, v_max ** (1.0 / alpha) * p.tau, 64)
    c = creep_function(p, t)
    assert c[0] == 0.0
    assert np.all(c >= 0.0)
    assert np.all(np.diff(c) >= -1e-13 * plateau)
    assert np.all(c <= plateau * (1.0 + 1e-12))


@given(alpha=st.floats(0.05, 0.999), log_t=st.floats(-300.0, -3.0))
def test_creep_nonnegative_at_tiny_times(alpha, log_t):
    # below (t/tau)^alpha ~ 1e-16 the computed E_alpha(-(t/tau)^alpha) may
    # exceed 1 by an ulp, so 1 - E_alpha is clamped, in both paths
    p = VoigtParams(eta=1.0, e_mod=1.0, alpha=alpha)
    t = 10.0**log_t
    assert creep_function(p, t) >= 0.0
    assert np.all(creep_function(p, np.array([t, 2.0 * t, 0.5 * t])) >= 0.0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.1, 1.0),
    eta=log_scale,
    e_mod=log_scale,
    v_max=st.floats(math.log(1e-3), math.log(Z_REACH)).map(math.exp),
    n=st.integers(1, 4096),
)
def test_step_strain_is_the_creep_function(alpha, eta, e_mod, v_max, n):
    # the rule is exact for a unit step, whose strain is the creep
    # function, out to the cap: only rounding separates them
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    plateau = (p.tau / p.eta) ** alpha
    g = Grid(v_max ** (1.0 / alpha) * p.tau, n)
    strain = linear_strain(p, Signal(g, np.ones(n + 1))).values
    assert np.max(np.abs(strain - creep_function(p, g.points))) <= 1e-13 * plateau


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
    eta=log_scale,
    e_mod=log_scale,
    v_max=st.floats(math.log(1e-3), math.log(Z_REACH)).map(math.exp),
    n=st.integers(1, 4096),
    c=st.sampled_from([1.0, -3.5, 2e-9]),
)
def test_constant_data_match_the_fft_apply(alpha, eta, e_mod, v_max, n, c):
    # constant data take c I^1 k(t_j) / eta^a; the weights' sums telescope
    # to it, so the FFT apply differs only by its rounding, about
    # eps log2(2n) of the largest output (5.3e-15 seen at alpha < 1).  At
    # alpha = 1 the geometric weights do not telescope: they meet the step
    # response through I^1 k(h) and F(h), each within ~3e-15 (8.6e-15 seen)
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    f = Signal(Grid(v_max ** (1.0 / alpha) * p.tau, n), np.full(n + 1, c))
    out = linear_strain(p, f).values
    bound = 2e-14 if alpha == 1.0 else 1e-14
    assert np.max(np.abs(out - fft_apply(p, f))) <= bound * np.max(np.abs(out))


@settings(max_examples=100, deadline=None)
@given(
    eta=log_scale,
    e_mod=log_scale,
    ratio=st.floats(0.1, 50.0),
    n=st.integers(1, 400),
)
def test_alpha_one_is_exponential(eta, e_mod, ratio, n):
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=1.0)
    g = Grid(ratio * p.tau, n)
    exact = (1.0 - np.exp(-g.points / p.tau)) / e_mod
    np.testing.assert_allclose(creep_function(p, g.points), exact, rtol=0.0, atol=1e-13 / e_mod)
    # product trapezoid on the exponential kernel: error below (h/tau)^2 / 12
    strain = linear_strain(p, Signal(g, np.ones(n + 1))).values
    assert np.max(np.abs(strain - exact)) <= ((g.h / p.tau) ** 2 / 10.0 + 1e-13) / e_mod


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.3, 1.0),
    eta=st.floats(-1.0, 1.0).map(math.exp),
    e_mod=st.floats(-1.0, 1.0).map(math.exp),
    ratio=st.floats(0.25, 4.0),
    ramp=st.booleans(),
)
def test_picard_approaches_linear_strain(alpha, eta, e_mod, ratio, ramp):
    # both discretize the same Volterra equation, so their gap shrinks as
    # the grid is refined (over this domain a fourfold refinement cuts it
    # by 1.66 or more; at n = 32 -> 64 the ramp is still pre-asymptotic)
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    plateau = (p.tau / p.eta) ** alpha
    gaps = []
    for n in (64, 256):
        g = Grid(ratio * p.tau, n)
        stress = Signal(g, g.points / g.t_end if ramp else np.ones(n + 1))
        res = picard_linear(p, stress, SolverConfig(tol=1e-12, max_iter=500))
        assert res.converged
        gaps.append(float(np.max(np.abs(res.solution.values - linear_strain(p, stress).values))))
    assert gaps[0] <= 0.05 * plateau
    assert gaps[1] <= 0.75 * gaps[0]


@st.composite
def decreasing_laws(draw):
    """A positive decreasing law, c/(d+eps)^p or c*exp(-p*eps), as an
    expression."""
    c = draw(st.floats(math.log(0.1), math.log(1e3)).map(math.exp))
    p = draw(st.floats(0.2, 4.0))
    if draw(st.booleans()):
        return f"{c!r}*exp(-{p!r}*eps)"
    d = draw(st.floats(math.log(0.01), math.log(10.0)).map(math.exp))
    return f"{c!r}/({d!r}+eps)^{p!r}"


@settings(max_examples=60, deadline=None)
@given(
    src=decreasing_laws(),
    alpha=st.floats(0.05, 1.0),
    ratio=st.floats(math.log(0.1), math.log(1e3)).map(math.exp),
    n=st.sampled_from([64, 256]),
)
def test_solve_stays_nonnegative(src, alpha, ratio, n):
    # T maps eps >= 0 to itself for sigma >= 0, and the mixed loop keeps
    # its iterates there: the law is never called at a negative strain
    lowest = []
    law = ConstitutiveLaw.from_expression(src)

    def fn(eps):
        lowest.append(np.min(eps))
        return law.fn(eps)

    p = VoigtParams(eta=0.5, e_mod=1.0, alpha=alpha)
    res = solve_nonlinear(p, ConstitutiveLaw(law.kind, fn), Grid(ratio * p.tau, n))
    assert min(lowest) >= 0.0
    if res.converged:
        assert res.solution.values[0] == 0.0
        assert np.all(res.solution.values >= 0.0)


@st.composite
def negative_axis_cases(draw):
    """(alpha, beta, x) with points x in [0, Z_MAX_NEG] (z = -x), the
    contour rule's whole range, half of them drawn from [0, 100]; alpha = 1,
    the exponential case of the same rule, in one case of five."""
    alpha = 1.0 if draw(st.integers(0, 4)) == 0 else draw(st.floats(0.02, 0.999))
    beta = draw(st.floats(0.05, 8.0))
    point = st.one_of(st.floats(0.0, 100.0), st.floats(0.0, Z_MAX_NEG))
    return alpha, beta, np.array(draw(st.lists(point, min_size=1, max_size=24)))


@st.composite
def real_axis_cases(draw):
    """(alpha, beta, z), one kind in three: a negative-axis case; points z
    in (0, 30] at 0 < alpha <= 1, the series' whole domain, where fast
    growth at small alpha raises; or a negative-axis case with one to three
    points outside the domain (+-inf, NaN, z < -Z_MAX_NEG, z > 30) inserted."""
    kind = draw(st.integers(0, 2))
    if kind == 1:
        alpha = draw(st.floats(0.02, 1.0))
        beta = draw(st.floats(0.05, 8.0))
        point = st.floats(0.0, 30.0, exclude_min=True)
        return alpha, beta, np.array(draw(st.lists(point, min_size=1, max_size=24)))
    alpha, beta, x = draw(negative_axis_cases())
    if kind == 0:
        return alpha, beta, -x
    z = list(-x)
    outside = st.one_of(
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.floats(max_value=-Z_MAX_NEG, exclude_max=True),
        st.floats(min_value=30.0, exclude_min=True),
    )
    for _ in range(draw(st.integers(1, 3))):
        z.insert(draw(st.integers(0, len(z))), draw(outside))
    return alpha, beta, np.array(z)


@settings(max_examples=100, deadline=None)
@given(real_axis_cases())
def test_ml_eval_array_equals_scalar_loop(case):
    alpha, beta, z = case
    p = MLParams(alpha, beta)
    try:
        expected = [ml_eval(p, float(v)) for v in z]
    except (AccuracyError, DomainError) as exc:  # the array call names the same point
        with pytest.raises(type(exc)) as info:
            ml_eval(p, z)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    assert ml_eval(p, z).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(negative_axis_cases(), log_scale, log_scale)
def test_creep_array_matches_float_calls(case, eta, e_mod):
    alpha, _, x = case
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    # (t/tau)^alpha = x up to rounding, kept clear of the cap
    t = np.minimum(x, Z_REACH) ** (1.0 / alpha) * p.tau
    expected = [creep_function(p, float(v)) for v in t]
    np.testing.assert_allclose(creep_function(p, t), expected, rtol=1e-13, atol=0.0)
