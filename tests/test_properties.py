"""Model invariants as Hypothesis properties: sign and causality of the
discrete operators, monotone bounded creep, the alpha = 1 exponential
reduction, Picard iterates approaching the direct linear solution, and
array Mittag-Leffler and creep calls agreeing with their scalar calls."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvoigt.fracops import Grid, Signal
from fracvoigt.nonlinear import ConstitutiveLaw, apply_T
from fracvoigt.special import MLParams, ml_eval
from fracvoigt.voigt import (
    SolverConfig,
    VoigtParams,
    creep_function,
    linear_strain,
    picard_linear,
)

from test_fracops import builder_weights

log_scale = st.floats(-2.0, 2.0).map(math.exp)


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
    alpha=st.floats(0.02, 0.999),
    tau=log_scale,
    v_max=st.floats(math.log(1e-3), math.log(99.0)).map(math.exp),
    n=st.integers(1, 4096),
)
def test_kernel_weights_positive(alpha, tau, v_max, n):
    # W_m and B_j integrate the positive kernel against a hat and a half
    # hat.  Their differences round to about eps m of the plateau, which
    # the algebraic tail of k stays above for alpha <= 0.999; the
    # exponential kernel of alpha = 1 falls below it past t/tau ~ 20.
    b, w = builder_weights(alpha, tau, v_max ** (1.0 / alpha) * tau / n, n)
    assert np.all(b > 0.0) and np.all(w > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    eta=log_scale,
    e_mod=log_scale,
    v_max=st.floats(1e-3, 99.0),
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
def negative_axis_cases(draw):
    """(alpha, beta, x) with points x in [0, 100] (z = -x), weighted toward
    the asymptotic side x^(1/alpha) >= 36 of the contour rule (three of
    five choices, one more on the boundary itself); alpha = 1, the
    confluent branch, in one case of five."""
    alpha = 1.0 if draw(st.integers(0, 4)) == 0 else draw(st.floats(0.02, 0.999))
    beta = draw(st.floats(0.05, 8.0))
    x_asym = 36.0**alpha
    asym = st.floats(x_asym, 100.0)
    point = st.one_of(asym, asym, asym, st.floats(0.0, x_asym), st.just(x_asym))
    return alpha, beta, np.array(draw(st.lists(point, min_size=1, max_size=24)))


@settings(max_examples=100, deadline=None)
@given(negative_axis_cases())
def test_ml_eval_array_equals_scalar_loop(case):
    alpha, beta, x = case
    p = MLParams(alpha, beta)
    assert ml_eval(p, -x).tolist() == [ml_eval(p, -float(v)) for v in x]


@settings(max_examples=60, deadline=None)
@given(negative_axis_cases(), log_scale, log_scale)
def test_creep_array_matches_float_calls(case, eta, e_mod):
    alpha, _, x = case
    p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
    # (t/tau)^alpha = x up to rounding, kept clear of the cap z >= -100
    t = np.minimum(x, 99.0) ** (1.0 / alpha) * p.tau
    expected = [creep_function(p, float(v)) for v in t]
    np.testing.assert_allclose(creep_function(p, t), expected, rtol=1e-13, atol=0.0)
