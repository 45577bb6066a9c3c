"""Nonlinear model: fixed-point operator, solver, residual, hypothesis probe."""

import math

import numpy as np
import pytest

from fracvoigt.errors import DomainError, EvaluationError
from fracvoigt import nonlinear
from fracvoigt.fracops import Grid, Signal
from fracvoigt.nonlinear import (
    ConstitutiveLaw,
    HypothesisReport,
    ProbeConfig,
    apply_T,
    check_hypotheses,
    residual,
    solve_nonlinear,
)
from fracvoigt.voigt import SolverConfig, VoigtParams, linear_strain

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
        assert law.bound == 2.0

    def test_table_validation(self):
        with pytest.raises(DomainError):
            ConstitutiveLaw.from_table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            ConstitutiveLaw.from_table([0.0], [1.0])

    def test_nonfinite_result_raises(self):
        law = ConstitutiveLaw.from_callable(lambda e: 1.0 / e, "reciprocal")
        with pytest.raises(EvaluationError):
            law(0.0)


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
                assert res.iterations == len(res.diff_history)
                assert res.final_diff == res.diff_history[-1]
                assert res.converged == (res.final_diff < cfg.tol)
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
        assert report.e0_estimate >= 1e6
        assert report.e_inf_estimate <= 1e-6
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
        report = check_hypotheses(law, ProbeConfig(eps_small=1e-4, upper=10.0, samples=50))
        assert not report.is_convex
        assert not report.verdict

    def test_report_invariant(self):
        report = check_hypotheses(INV_LINEAR)
        assert isinstance(report, HypothesisReport)
        if report.verdict:
            assert report.is_decreasing and report.is_convex
            assert report.sigma_at_zero > 0.0

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            ProbeConfig(eps_small=1.0, upper=0.5)
        with pytest.raises(DomainError):
            ProbeConfig(samples=2)

    def test_probe_rejects_bool_samples(self):
        with pytest.raises(DomainError):
            ProbeConfig(samples=True)


def loop_is_convex(law, probe):
    """Midpoint convexity by the pairwise loop: the reference for the
    array evaluation in check_hypotheses."""
    pts = np.geomspace(probe.eps_small, probe.upper, probe.samples)
    vals = [law(float(e)) for e in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if law(0.5 * (pts[i] + pts[j])) > 0.5 * (vals[i] + vals[j]) + probe.tol:
                return False
    return True


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

    def test_callable_law_mapped_point_by_point(self):
        seen = []
        law = ConstitutiveLaw.from_callable(lambda e: seen.append(e) or 1.0, "counting")
        law.map_values(np.array([0.0, 1.0, 2.0]))
        assert seen == [0.0, 1.0, 2.0]


class TestConvexityProbe:
    LAWS = [
        INV_LINEAR,
        ConstitutiveLaw.from_expression("1/(1+eps)"),
        ConstitutiveLaw.from_expression("exp(-eps)+0.01*sin(eps)"),
        ConstitutiveLaw.from_expression("2-eps^2"),
        ConstitutiveLaw.from_callable(lambda e: 1e4 - e**2 if e < 100 else -e, "concave"),
    ]
    PROBES = [
        ProbeConfig(),
        ProbeConfig(eps_small=1e-4, upper=10.0, samples=50),
        ProbeConfig(eps_small=0.5, upper=20.0, samples=7),
    ]

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("probe", PROBES)
    def test_matches_pairwise_loop(self, law, probe):
        assert check_hypotheses(law, probe).is_convex == loop_is_convex(law, probe)

    @pytest.mark.parametrize("law", LAWS)
    def test_blocks_of_rows_match_one_call(self, law, monkeypatch):
        probe = ProbeConfig(eps_small=1e-3, upper=50.0, samples=23)
        whole = check_hypotheses(law, probe)
        monkeypatch.setattr(nonlinear, "_PAIRS_PER_CALL", 50)
        assert check_hypotheses(law, probe) == whole

    @pytest.mark.parametrize(
        "law",
        [
            ConstitutiveLaw.from_expression("1/(2*eps-3)"),
            ConstitutiveLaw.from_callable(lambda e: 1.0 / (2.0 * e - 3.0), "pole"),
        ],
    )
    def test_law_undefined_at_a_midpoint_raises(self, law):
        # samples 1, 2, 4 are fine; the midpoint 1.5 of the first pair is
        # the pole
        with pytest.raises(EvaluationError):
            check_hypotheses(law, ProbeConfig(eps_small=1.0, upper=4.0, samples=3))
