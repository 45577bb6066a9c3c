"""Nonlinear model: fixed-point operator, solver, residual, hypothesis probe."""

import itertools
import math

import numpy as np
import pytest

from fracvoigt.errors import DomainError, EvaluationError
from fracvoigt import nonlinear
from fracvoigt.fracops import Grid, Signal
from fracvoigt.nonlinear import (
    ConstitutiveLaw,
    HypothesisReport,
    apply_T,
    check_hypotheses,
    residual,
    solve_nonlinear,
)
from fracvoigt.voigt import SolverConfig, VoigtParams, _fixed_point, linear_strain

from oracles import rk4_solve

INV_LINEAR = ConstitutiveLaw.from_callable(lambda e: 1.0 / (1.0 + e), "inverse-linear")

# the worked nonlinear problem: D^(1/2) eps + sqrt(2) eps = 1/(1+eps),
# i.e. eta^a = 1 and E^a = sqrt(2) at a = 1/2
EXAMPLE_PARAMS = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)


class TestConstitutiveLaw:
    def test_expression_law(self):
        law = ConstitutiveLaw.from_expression("1/(1+eps)")
        assert law(0.0) == 1.0
        assert law(1.0) == 0.5

    def test_table_law_interpolates(self):
        law = ConstitutiveLaw.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.4])
        assert law(0.5) == pytest.approx(0.75)
        assert law(5.0) == 0.4  # constant extrapolation

    def test_table_validation(self):
        with pytest.raises(DomainError):
            ConstitutiveLaw.from_table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            ConstitutiveLaw.from_table([0.0], [1.0])
        for strains, stresses in [([0.0, math.inf], [1.0, 0.5]), ([0.0, 1.0], [1.0, math.nan])]:
            with pytest.raises(DomainError, match="^law table entries must be finite$"):
                ConstitutiveLaw.from_table(strains, stresses)

    def test_nonfinite_result_raises(self):
        law = ConstitutiveLaw.from_callable(lambda e: 1.0 / e, "reciprocal")
        with pytest.raises(EvaluationError):
            law(0.0)

    def test_complex_result_raises(self):
        # a negative base to a fractional power is complex in Python
        law = ConstitutiveLaw.from_callable(lambda e: (e + 0.01) ** -0.5, "power")
        with pytest.raises(EvaluationError):
            law(-0.1)
        with pytest.raises(EvaluationError):
            law.map_values(np.array([0.0, -0.1]))


class TestApplyT:
    def test_zero_law(self):
        g = Grid(1.0, 64)
        law = ConstitutiveLaw.from_callable(lambda e: 0.0, "zero")
        out = apply_T(EXAMPLE_PARAMS, law, Signal(g, np.abs(np.sin(g.points))))
        assert out.sup_norm() == 0.0

    def test_classical_unit_law(self):
        # alpha=1, eta=tau=1, sigma == 1: T(anything) = 1 - exp(-t)
        p = VoigtParams(1.0, 1.0, 1.0)
        g = Grid(1.0, 256)
        law = ConstitutiveLaw.from_callable(lambda e: 1.0, "unit")
        out = apply_T(p, law, Signal(g, g.points**2))
        expected = 1.0 - np.exp(-g.points)
        assert np.max(np.abs(out.values - expected)) < 1e-4

    def test_first_iterate_is_unit_stress_strain(self):
        # from eps = 0 the first iterate solves the linear model with
        # sigma = sigma(0) = 1
        g = Grid(1.0, 128)
        lhs = apply_T(EXAMPLE_PARAMS, INV_LINEAR, Signal.zeros(g))
        rhs = linear_strain(EXAMPLE_PARAMS, Signal(g, np.ones(129)))
        np.testing.assert_array_equal(lhs.values, rhs.values)

    def test_positivity_preserved(self):
        g = Grid(1.0, 128)
        rng = np.random.default_rng(5)
        eps = Signal(g, np.abs(rng.standard_normal(129)))
        out = apply_T(EXAMPLE_PARAMS, INV_LINEAR, eps)
        assert np.all(out.values >= 0.0)

    def test_antitone_for_decreasing_law(self):
        # eps1 <= eps2 pointwise implies T eps1 >= T eps2 pointwise
        g = Grid(1.0, 96)
        rng = np.random.default_rng(17)
        for _ in range(5):
            lo = np.abs(rng.standard_normal(97))
            hi = lo + np.abs(rng.standard_normal(97))
            t_lo = apply_T(EXAMPLE_PARAMS, INV_LINEAR, Signal(g, lo))
            t_hi = apply_T(EXAMPLE_PARAMS, INV_LINEAR, Signal(g, hi))
            assert np.all(t_lo.values - t_hi.values >= -1e-14)


class TestSolveNonlinear:
    def test_zero_law_converges_immediately(self):
        g = Grid(1.0, 64)
        law = ConstitutiveLaw.from_callable(lambda e: 0.0, "zero")
        res = solve_nonlinear(EXAMPLE_PARAMS, law, g)
        assert res.converged
        assert res.iterations == 1
        assert res.solution.sup_norm() == 0.0

    def test_worked_example_converges(self):
        g = Grid(1.0, 256)
        res = solve_nonlinear(
            EXAMPLE_PARAMS, INV_LINEAR, g, SolverConfig(tol=1e-8, max_iter=100)
        )
        assert res.converged
        assert res.iterations <= 100
        eps = res.solution.values
        assert eps[0] == 0.0
        assert np.all(eps >= 0.0)
        assert np.all(np.diff(eps) >= -1e-12)  # nondecreasing
        # uniform bound sigma(0) / (eta^a Gamma(a+1)) = 1/Gamma(1.5)
        assert np.max(eps) <= 1.0 / math.gamma(1.5) + 1e-6

    def test_residual_of_converged_solution(self):
        g = Grid(1.0, 256)
        cfg = SolverConfig(tol=1e-8, max_iter=100)
        res = solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, cfg)
        assert residual(EXAMPLE_PARAMS, INV_LINEAR, res.solution) <= 10.0 * cfg.tol

    def test_damping_reaches_same_fixed_point(self):
        g = Grid(1.0, 128)
        cfg = SolverConfig(tol=1e-10, max_iter=300)
        plain = solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, cfg)
        damped = solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, cfg, damping=0.5)
        assert plain.converged and damped.converged
        assert np.max(np.abs(plain.solution.values - damped.solution.values)) < 1e-8

    def test_damping_validation(self):
        g = Grid(1.0, 16)
        with pytest.raises(DomainError):
            solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, damping=0.0)
        with pytest.raises(DomainError):
            solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, damping=1.5)

    def test_nonconvergence_reported(self):
        g = Grid(1.0, 64)
        res = solve_nonlinear(
            EXAMPLE_PARAMS, INV_LINEAR, g, SolverConfig(tol=1e-14, max_iter=2)
        )
        assert not res.converged
        assert len(res.diff_history) == 2
        # the result contract of the loop shared with picard_linear, plain
        # and damped, converged and stopped at the cap
        for damping in (1.0, 0.7):
            for cfg in (SolverConfig(tol=1e-8, max_iter=100), SolverConfig(max_iter=1)):
                res = solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, cfg, damping)
                assert_loop_contract(res, cfg)
                assert res.converged == (cfg.max_iter > 1)

    def test_classical_limit_against_ode_integrator(self):
        # alpha = 1, eta = 1, E = 2: eps' = -2 eps + 1/(1+eps), eps(0) = 0
        p = VoigtParams(1.0, 2.0, 1.0)
        g = Grid(1.0, 512)
        res = solve_nonlinear(p, INV_LINEAR, g, SolverConfig(tol=1e-10, max_iter=200))
        assert res.converged
        ref = rk4_solve(
            lambda t, y: -2.0 * y + 1.0 / (1.0 + y), 0.0, g.points, substeps=20
        )
        assert np.max(np.abs(res.solution.values - np.array(ref))) < 1e-3


def plain_solve(params, law, grid, cfg, damping=1.0):
    """solve_nonlinear's iteration without mixing: the reference the
    Anderson-mixed solve is held to."""

    def step(eps):
        image = apply_T(params, law, eps)
        if damping < 1.0:
            return Signal(grid, (1.0 - damping) * eps.values + damping * image.values)
        return image

    return _fixed_point(step, Signal.zeros(grid), cfg)


def assert_loop_contract(res, cfg):
    assert res.iterations == len(res.diff_history)
    assert res.final_diff == res.diff_history[-1]
    scale = max(1.0, res.solution.sup_norm())
    assert res.converged == (res.final_diff < cfg.tol * scale)


class TestAndersonMixing:
    def test_law_undefined_at_a_mixed_iterate(self):
        # sigma = 1/sqrt(eps + 0.01) is undefined below eps = -0.01; the
        # images stay >= 0, and the unrefused second mixed iterate would dip
        # to about -0.1: the cone safeguard takes the plain step instead
        raised = []

        def fn(e):
            try:
                return 1.0 / math.sqrt(e + 0.01)
            except ValueError:
                raised.append(e)
                raise

        law = ConstitutiveLaw.from_callable(fn, "singular")
        g = Grid(1.0, 128)
        cfg = SolverConfig(tol=1e-8, max_iter=200)
        res = solve_nonlinear(EXAMPLE_PARAMS, law, g, cfg)
        assert not raised  # the law was never called where it is undefined
        assert res.converged
        assert_loop_contract(res, cfg)
        ref = plain_solve(EXAMPLE_PARAMS, law, g, cfg)
        assert np.max(np.abs(res.solution.values - ref.solution.values)) <= 10.0 * cfg.tol

    def test_constant_law(self):
        g = Grid(1.0, 256)
        law = ConstitutiveLaw.from_expression("2")
        cfg = SolverConfig(tol=1e-12, max_iter=50)
        for damping in (1.0, 0.7):
            res = solve_nonlinear(EXAMPLE_PARAMS, law, g, cfg, damping)
            assert res.converged
            assert_loop_contract(res, cfg)
            assert residual(EXAMPLE_PARAMS, law, res.solution) <= 10.0 * cfg.tol

    def test_singular_gram_takes_the_plain_step(self):
        # a step that drifts by 1 everywhere: every residual is the same,
        # so each Delta F is 0 and the Gram matrix is singular
        g = Grid(1.0, 8)
        cfg = SolverConfig(tol=1e-8, max_iter=6)
        res = _fixed_point(lambda x: Signal(g, x.values + 1.0), Signal.zeros(g), cfg, depth=3)
        assert res.diff_history == [1.0] * 6
        np.testing.assert_array_equal(res.solution.values, np.full(9, 6.0))
        assert_loop_contract(res, cfg)

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_first_step_is_plain(self, damping):
        g = Grid(1.0, 256)
        cfg = SolverConfig(max_iter=1)
        res = solve_nonlinear(EXAMPLE_PARAMS, INV_LINEAR, g, cfg, damping)
        image = damping * apply_T(EXAMPLE_PARAMS, INV_LINEAR, Signal.zeros(g)).values
        assert res.solution.values.tobytes() == image.tobytes()
        assert res.diff_history == [float(np.max(np.abs(image)))]
        assert_loop_contract(res, cfg)


# the laws and (t_end, alpha) windows the mixing was tuned on: the three
# families of the long-solve benchmark at both ends of its range, a law
# with a steep singularity near 0 and two slowly contracting ones
SWEEP_LAWS = [
    f"{c}{form}"
    for form in ("/(1+eps)", "*exp(-eps)", "/sqrt(1+eps)")
    for c in ("0.5", "2.5")
] + ["1/(eps+0.01)^0.5", "exp(-eps^2)+0.1", "1/(1+eps)^3"]
SWEEP_WINDOWS = [(1.0, 0.5), (20.0, 0.5), (5.0, 0.3), (1.0, 1.0)]


@pytest.mark.parametrize("damping", [1.0, 0.7])
@pytest.mark.parametrize("t_end,alpha", SWEEP_WINDOWS)
@pytest.mark.parametrize("src", SWEEP_LAWS)
def test_mixing_saves_sweeps(src, t_end, alpha, damping):
    params = VoigtParams(eta=1.0, e_mod=2.0, alpha=alpha)
    law = ConstitutiveLaw.from_expression(src)
    g = Grid(t_end, 512)
    cfg = SolverConfig(tol=1e-8, max_iter=200)
    mixed = solve_nonlinear(params, law, g, cfg, damping)
    plain = plain_solve(params, law, g, cfg, damping)
    assert mixed.converged and plain.converged
    # damped steps contract fast already; there the mixing may cost one
    assert mixed.iterations <= plain.iterations + (damping < 1.0)
    gap = np.max(np.abs(mixed.solution.values - plain.solution.values))
    assert gap <= 10.0 * cfg.tol
    assert residual(params, law, mixed.solution) <= 10.0 * cfg.tol


def test_mixing_halves_the_sweeps():
    # over the same grid at damping 1: 651 plain sweeps, 343 mixed
    plain = mixed = 0
    cfg = SolverConfig(tol=1e-8, max_iter=200)
    for (t_end, alpha), src in itertools.product(SWEEP_WINDOWS, SWEEP_LAWS):
        params = VoigtParams(eta=1.0, e_mod=2.0, alpha=alpha)
        law = ConstitutiveLaw.from_expression(src)
        g = Grid(t_end, 512)
        plain += plain_solve(params, law, g, cfg).iterations
        mixed += solve_nonlinear(params, law, g, cfg).iterations
    assert mixed <= 0.6 * plain


# laws that meet the existence hypotheses (positive, decreasing, convex,
# sigma(e)/e unbounded at 0 and vanishing at infinity), from gentle to a
# singularity just below eps = 0, swept at tau = 0.5 over the model's range
HYPOTHESIS_LAWS = [
    "1/(1+eps)", "100/(1+eps)", "1e4/(1+eps)", "10*exp(-eps)", "1e3*exp(-eps)",
    "20/(1+eps)^2", "1e3/(1+eps)^2", "1/(0.01+eps)",
]
# check_hypotheses verdicts: laws whose sigma(e)/e -> inf at 0 and -> 0 at
# inf, though their secants at 1e-8 or 1e8 can be small or large, with the
# benchmark's long-solve laws for c in [0.5, 2.5]; and laws that rise, are
# concave, or are not bounded below by 0 (1e-20*(1+eps) rises by less than
# an absolute tolerance of 1e-12)
CONSISTENT_LAWS = [
    "0.001/(1+eps)", "0.005*exp(-eps)", "200+1/(1+eps)", "1e5/(1+eps)", "1e9*exp(-eps)",
    "1e7/sqrt(1+eps)", *HYPOTHESIS_LAWS,
    *(f.format(c=c) for f in ("{c!r}/(1+eps)", "{c!r}*exp(-eps)", "{c!r}/sqrt(1+eps)")
      for c in (0.5, 1.25, 2.5)),
]
FAILING_LAWS = ["1-eps", "1/(1+eps)-0.5", "1e-20*(1+eps)", "eps", "-eps", "2-eps^2"]
# samples near the float max, whose chords would overflow as sums of two
# samples; the convex law is consistent, the concave one only fails convexity
NEAR_MAX_LAWS = [("1.7e308/(1+eps)", True), ("1.7e308-1e300*(eps/1e8)^2", False)]


def test_mixing_stays_in_the_cone(monkeypatch):
    # 160 solves at n = 1024: the mixed loop never calls the law below
    # eps = 0, so it cannot settle on a negative fixed point of the law
    # continued there; 13 of the runs stop unconverged at 200 sweeps
    negative_calls = []
    map_values = ConstitutiveLaw.map_values

    def spy(law, values):
        if values.min() < 0.0:
            negative_calls.append((law.kind, float(values.min())))
        return map_values(law, values)

    monkeypatch.setattr(ConstitutiveLaw, "map_values", spy)
    converged = 0
    for src, alpha, ratio in itertools.product(
        HYPOTHESIS_LAWS, (0.3, 0.5, 0.9, 1.0), (1.0, 1e1, 1e2, 1e3, 1e4)
    ):
        res = solve_nonlinear(
            VoigtParams(eta=0.5, e_mod=1.0, alpha=alpha),
            ConstitutiveLaw.from_expression(src),
            Grid(0.5 * ratio, 1024),
        )
        if res.converged:
            converged += 1
            assert res.solution.values.min() >= 0.0, (src, alpha, ratio)
    assert not negative_calls
    assert converged >= 147


class TestResidual:
    def test_zero_everything(self):
        g = Grid(1.0, 32)
        law = ConstitutiveLaw.from_callable(lambda e: 0.0, "zero")
        assert residual(EXAMPLE_PARAMS, law, Signal.zeros(g)) == 0.0

    def test_unit_law_from_zero_candidate(self):
        # alpha=1, eta=tau=1: ||0 - T 0|| = sup(1 - exp(-t)) = 1 - 1/e on [0,1]
        p = VoigtParams(1.0, 1.0, 1.0)
        g = Grid(1.0, 256)
        law = ConstitutiveLaw.from_callable(lambda e: 1.0, "unit")
        got = residual(p, law, Signal.zeros(g))
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)


class TestCheckHypotheses:
    def test_worked_example_law_passes(self):
        report = check_hypotheses(INV_LINEAR)
        assert report.is_decreasing
        assert report.is_convex
        assert report.sigma_at_zero == 1.0
        assert report.e0_estimate == pytest.approx(1e8, rel=1e-6)
        assert report.e_inf_estimate == pytest.approx(1e-16, rel=1e-6)
        assert report.e_inf_estimate >= 0.0  # sigma(1e8) >= 0: bounded below by 0
        assert report.verdict

    def test_increasing_law_fails(self):
        law = ConstitutiveLaw.from_callable(lambda e: e, "identity")
        report = check_hypotheses(law)
        assert not report.is_decreasing
        assert not report.verdict

    def test_exponential_decay_law_passes(self):
        law = ConstitutiveLaw.from_callable(lambda e: math.exp(-e), "exp-decay")
        report = check_hypotheses(law)
        assert report.is_decreasing
        assert report.is_convex
        assert report.e0_estimate == pytest.approx(1e8, rel=1e-6)
        assert report.e_inf_estimate == 0.0
        assert report.verdict

    def test_concave_law_detected(self):
        # decreasing but concave on the probed range
        law = ConstitutiveLaw.from_callable(lambda e: 1e4 - e**2 if e < 100 else -e, "concave")
        report = check_hypotheses(law)
        assert not report.is_convex
        assert not report.verdict

    def test_report_invariant(self):
        report = check_hypotheses(INV_LINEAR)
        assert isinstance(report, HypothesisReport)
        assert report.verdict == (
            report.is_decreasing
            and report.is_convex
            and report.sigma_at_zero > 0.0
            and report.e_inf_estimate >= 0.0
        )

    @pytest.mark.parametrize(
        "src, verdict",
        [(src, True) for src in CONSISTENT_LAWS] + [(src, False) for src in FAILING_LAWS]
        + NEAR_MAX_LAWS,
    )
    def test_verdict_table(self, src, verdict):
        assert check_hypotheses(ConstitutiveLaw.from_expression(src)).verdict is verdict

    @pytest.mark.parametrize("src", CONSISTENT_LAWS + FAILING_LAWS)
    def test_scale_invariance(self, src):
        # c = 2^k scales every sample and the tolerance exactly
        def tests(report):
            return report.is_decreasing, report.is_convex, report.verdict

        want = tests(check_hypotheses(ConstitutiveLaw.from_expression(src)))
        for k in (-60, -20, 20, 60):
            scaled = ConstitutiveLaw.from_expression(f"{2.0**k!r}*({src})")
            assert tests(check_hypotheses(scaled)) == want, k

    def test_one_law_call(self):
        calls = []
        law = ConstitutiveLaw("counting", lambda e: calls.append(e.size) or 1.0 / (1.0 + e))
        assert check_hypotheses(law).verdict
        assert calls == [200 + 19900 + 1]


PROBE_POINTS = np.geomspace(nonlinear._PROBE_LOW, nonlinear._PROBE_HIGH, nonlinear._PROBE_SAMPLES)
POLE = float(0.5 * (PROBE_POINTS[10] + PROBE_POINTS[11]))  # a midpoint, not a sample


def loop_is_convex(law):
    """Midpoint convexity by the pairwise loop, to _PROBE_TOL times the
    largest |sigma| probed: the reference for the array evaluation in
    check_hypotheses."""
    pts = PROBE_POINTS
    vals = [law(float(e)) for e in pts]
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    mids = [law(0.5 * (pts[i] + pts[j])) for i, j in pairs]
    tol = nonlinear._PROBE_TOL * max(abs(v) for v in [*vals, *mids, law(0.0)])
    return not any(m > 0.5 * vals[i] + 0.5 * vals[j] + tol for m, (i, j) in zip(mids, pairs))


class TestArrayLaws:
    @pytest.mark.parametrize(
        "law",
        [
            ConstitutiveLaw.from_expression("2*exp(-eps)+1/(1+eps)^2"),
            ConstitutiveLaw.from_table([0.0, 0.5, 2.0], [1.0, 0.4, 0.1]),
        ],
    )
    def test_map_values_matches_point_calls(self, law):
        eps = np.linspace(0.0, 3.0, 301)
        got = law.map_values(eps)
        np.testing.assert_allclose(got, [law(float(e)) for e in eps], rtol=1e-15, atol=0.0)

    def test_map_values_error_names_the_first_bad_eps(self):
        law = ConstitutiveLaw.from_expression("log(eps)")
        with pytest.raises(EvaluationError) as scalar:
            law(0.0)
        with pytest.raises(EvaluationError) as array:
            law.map_values(np.array([1.0, 0.0, 2.0]))
        assert str(array.value) == str(scalar.value)
        assert "eps=0.0" in str(array.value)

    @pytest.mark.parametrize("how", ["raises", "returns inf"])
    @pytest.mark.parametrize("first_bad", [0, 1, 4999, 12345, 19898, 19899])
    def test_first_bad_eps_found_by_bisection(self, how, first_bad):
        # a pole at one strain of 19900: the array call fails, and windows
        # that double, then halve, find the pole in about 2 log2(19900) ~ 29
        # calls on about 3 (first_bad + 1) strains in all, not one call per
        # strain up to the pole
        values = np.linspace(0.0, 2.0, 19900)
        pole = values[first_bad]
        calls = []

        def fn(e):
            calls.append(np.size(e))
            if how == "raises" and np.any(e == pole):
                raise ZeroDivisionError("pole")
            return np.where(e == pole, np.inf, 1.0)

        law = ConstitutiveLaw("pole", fn)
        with pytest.raises(EvaluationError) as array:
            law.map_values(values)
        assert calls[0] == values.size
        assert len(calls) <= 2 * math.log2(values.size) + 2
        assert sum(calls[1:]) <= 4 * (first_bad + 1)
        pointwise = ConstitutiveLaw.from_callable(fn, "pole")
        with pytest.raises(EvaluationError) as scalar:
            pointwise.map_values(values)
        assert str(array.value) == str(scalar.value)
        assert f"eps={float(pole)!r}" in str(array.value)

    @pytest.mark.parametrize(
        "law",
        [
            ConstitutiveLaw.from_callable(lambda e: np.emath.sqrt(1.0 - e), "sqrt"),
            ConstitutiveLaw("sqrt", lambda e: np.emath.sqrt(1.0 - e)),
        ],
        ids=["callable", "array"],
    )
    def test_complex_value_raises(self, law):
        # numpy's casts would keep the real part, 0.0 at eps = 2
        message = r"^constitutive law \(sqrt\) returned 1j at eps=2.0$"
        with pytest.raises(EvaluationError, match=message):
            law(2.0)
        with pytest.raises(EvaluationError, match=r"returned 0.5j at eps=1.25$"):
            law.map_values(np.linspace(0.0, 2.0, 9))

    def test_array_law_of_another_shape_raises(self):
        law = ConstitutiveLaw("constant", lambda e: 1.0)
        message = r"^constitutive law \(constant\) maps \(3,\) strains to shape \(\)$"
        with pytest.raises(EvaluationError, match=message):
            law.map_values(np.ones(3))

    def test_callable_law_mapped_point_by_point(self):
        seen = []
        law = ConstitutiveLaw.from_callable(lambda e: seen.append(e) or 1.0, "counting")
        law.map_values(np.array([0.0, 1.0, 2.0]))
        assert seen == [0.0, 1.0, 2.0]


class TestConvexityProbe:
    LAWS = [
        INV_LINEAR,
        ConstitutiveLaw.from_expression("1/(1+eps)"),
        ConstitutiveLaw.from_expression("1e5/(1+eps)"),
        ConstitutiveLaw.from_expression("exp(-eps)+0.01*sin(eps)"),
        ConstitutiveLaw.from_expression("2-eps^2"),
        ConstitutiveLaw.from_callable(lambda e: 1e4 - e**2 if e < 100 else -e, "concave"),
        *(ConstitutiveLaw.from_expression(src) for src, _ in NEAR_MAX_LAWS),
    ]

    @pytest.mark.parametrize("law", LAWS)
    def test_matches_pairwise_loop(self, law):
        assert check_hypotheses(law).is_convex == loop_is_convex(law)

    @pytest.mark.parametrize(
        "law",
        [
            ConstitutiveLaw.from_expression(f"1/(eps-{POLE!r})^2"),
            ConstitutiveLaw.from_callable(lambda e: 1.0 / (e - POLE) ** 2, "pole"),
        ],
    )
    def test_law_undefined_at_a_midpoint_raises(self, law):
        # every sample is fine; the midpoint of samples 10 and 11 is the pole
        with pytest.raises(EvaluationError, match="undefined at eps="):
            check_hypotheses(law)
