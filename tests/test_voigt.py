"""Linear fractional Voigt model: strain, creep functions, Picard solver."""

import math

import numpy as np
import pytest

from fracvoigt.errors import DomainError
from fracvoigt.fracops import Grid, Signal, rl_integral
from fracvoigt.voigt import (
    PicardResult,
    SolverConfig,
    VoigtParams,
    creep_function,
    creep_function_alt,
    linear_strain,
    picard_linear,
)


class TestVoigtParams:
    def test_tau_is_derived(self):
        p = VoigtParams(eta=3.0, e_mod=1.5, alpha=0.5)
        assert p.tau == 2.0
        with pytest.raises(AttributeError):
            p.tau = 1.0

    @pytest.mark.parametrize(
        "eta,e_mod,alpha",
        [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 1.5)],
    )
    def test_validation(self, eta, e_mod, alpha):
        with pytest.raises(DomainError):
            VoigtParams(eta, e_mod, alpha)


class TestLinearStrain:
    def test_zero_stress_zero_strain(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        out = linear_strain(p, Signal.zeros(Grid(1.0, 64)))
        assert out.sup_norm() == 0.0

    def test_classical_ramp_stress(self):
        # alpha=1, eta=1, E=2 (tau = 0.5), sigma(s) = s:
        # eps(t) = tau*t - tau^2*(1 - exp(-t/tau))
        p = VoigtParams(1.0, 2.0, 1.0)
        g = Grid(1.0, 512)
        out = linear_strain(p, Signal(g, g.points.copy()))
        t = g.points
        exact = 0.5 * t - 0.25 * (1.0 - np.exp(-t / 0.5))
        assert np.max(np.abs(out.values - exact)) < 1e-4

    def test_classical_reduction_against_quadrature(self):
        # alpha=1 strain vs (1/eta) int exp(-(t-s)/tau) sigma(s) ds by
        # composite trapezoid on a fine subgrid
        p = VoigtParams(2.0, 4.0, 1.0)
        g = Grid(1.0, 512)
        sigma = lambda s: np.sin(3.0 * s) ** 2
        out = linear_strain(p, Signal(g, sigma(g.points)))
        fine = np.linspace(0.0, 1.0, 8193)
        ref = []
        for t in g.points:
            mask = fine <= t + 1e-15
            s = fine[mask]
            if len(s) < 2:
                ref.append(0.0)
                continue
            integrand = np.exp(-(t - s) / p.tau) * sigma(s)
            ref.append(np.trapezoid(integrand, s) / p.eta)
        assert np.max(np.abs(out.values - np.array(ref))) < 1e-4

    def test_constant_stress_equals_creep_function(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 256)
        out = linear_strain(p, Signal(g, np.ones(257)))
        exact = np.array([creep_function(p, float(t)) for t in g.points])
        assert np.max(np.abs(out.values - exact)) < 1e-4

    def test_linearity_in_stress(self):
        p = VoigtParams(1.0, 1.0, 0.7)
        g = Grid(1.0, 64)
        rng = np.random.default_rng(11)
        s1 = Signal(g, rng.standard_normal(65))
        s2 = Signal(g, rng.standard_normal(65))
        a, b = 1.75, -0.5
        lhs = linear_strain(p, Signal(g, a * s1.values + b * s2.values))
        rhs = a * linear_strain(p, s1).values + b * linear_strain(p, s2).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-13)


class TestCreepFunction:
    def test_zero_time(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        assert creep_function(p, 0.0) == 0.0
        assert creep_function_alt(p, 0.0) == 0.0

    def test_negative_time_rejected(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            creep_function(p, -0.1)
        with pytest.raises(DomainError):
            creep_function_alt(p, -0.1)

    def test_array_times_match_scalar_calls(self):
        # t/tau reaches 80, so the table crosses from the contour rule to the
        # asymptotic expansion at t/tau = 36
        p = VoigtParams(1.0, 2.0, 0.5)
        t = np.linspace(0.0, 40.0, 201)
        got = creep_function(p, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        expected = [creep_function(p, float(x)) for x in t]
        assert all(isinstance(v, float) for v in expected)
        # the array path raises t/tau to the power alpha with numpy, the
        # scalar path with Python floats; the two may differ in the last bit
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_array_times_validated(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            creep_function(p, np.array([0.0, 1.0, -0.5]))
        with pytest.raises(DomainError):
            creep_function(p, np.array([0.0, float("nan")]))

    @pytest.mark.parametrize("eta,e_mod", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)])
    def test_classical_reduction(self, eta, e_mod):
        # k_1(t) = (1/E)(1 - exp(-t/tau))
        p = VoigtParams(eta, e_mod, 1.0)
        for t in np.linspace(0.0, 5.0, 100):
            expected = (1.0 / e_mod) * (1.0 - math.exp(-t / p.tau))
            assert abs(creep_function(p, float(t)) - expected) <= 1e-8

    def test_half_order_value_via_erfc(self):
        # alpha=1/2, eta=1, E=2, t=1: k = (tau/eta)^a (1 - E[1/2](-sqrt(2)))
        # and E[1/2](-x) = exp(x^2) erfc(x)
        p = VoigtParams(1.0, 2.0, 0.5)
        expected = math.sqrt(0.5) * (1.0 - math.exp(2.0) * math.erfc(math.sqrt(2.0)))
        assert creep_function(p, 1.0) == pytest.approx(expected, rel=1e-11)

    def test_two_forms_agree(self):
        for alpha in [0.1, 0.3, 0.5, 0.75, 1.0]:
            for eta, e_mod in [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]:
                p = VoigtParams(eta, e_mod, alpha)
                for t in np.linspace(0.0, 5.0, 40):
                    a = creep_function(p, float(t))
                    b = creep_function_alt(p, float(t))
                    assert abs(a - b) <= 1e-10

    def test_alt_form_classical(self):
        p = VoigtParams(2.0, 1.0, 1.0)
        for t in [0.1, 0.5, 2.0]:
            expected = (1.0 / p.e_mod) * (1.0 - math.exp(-t / p.tau))
            assert creep_function_alt(p, t) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_bounded(self):
        p = VoigtParams(1.0, 2.0, 0.4)
        ts = np.linspace(0.0, 5.0, 1000)
        vals = np.array([creep_function(p, float(t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all(vals <= (p.tau / p.eta) ** p.alpha + 1e-12)
        assert np.all(vals >= 0.0)


class TestPicardLinear:
    def test_zero_stress_converges_immediately(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        res = picard_linear(p, Signal.zeros(Grid(1.0, 64)))
        assert res.converged
        assert res.iterations == 1
        assert res.solution.sup_norm() == 0.0

    def test_result_invariants(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 64)
        cfg = SolverConfig(tol=1e-8, max_iter=60)
        for cfg in (cfg, SolverConfig(tol=1e-8, max_iter=1)):
            res = picard_linear(p, Signal(g, np.ones(65)), cfg)
            assert isinstance(res, PicardResult)
            assert res.final_diff == res.diff_history[-1]
            assert res.converged == (res.final_diff < cfg.tol)
            assert res.iterations == len(res.diff_history)
        assert res.iterations == 1 and not res.converged  # max_iter=1

    def test_first_iterate_partial_sum(self):
        # eps_1 = I^a sigma / eta^a - I^(2a) sigma / (eta^a tau^a), with
        # I^(2a) realized as the nested discrete operator
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 128)
        stress = Signal(g, np.sin(g.points) + 1.0)
        a = p.alpha
        res = picard_linear(p, stress, SolverConfig(tol=1e-30, max_iter=1))
        base = rl_integral(a, stress).values / p.eta**a
        nested = rl_integral(a, rl_integral(a, stress)).values
        expected = base - nested / (p.eta**a * p.tau**a)
        np.testing.assert_allclose(res.solution.values, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partial_sum_structure(self, m):
        # iterate m equals (1/eta^a) sum_{k=0}^m (-tau^-a)^k I^((k+1)a) sigma
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 64)
        stress = Signal(g, g.points**2 + 0.5)
        a = p.alpha
        res = picard_linear(p, stress, SolverConfig(tol=1e-30, max_iter=m))
        acc = np.zeros(g.n + 1)
        power = Signal(g, stress.values)
        for k in range(m + 1):
            power = rl_integral(a, power)  # now I^((k+1)a) sigma
            acc += (-1.0 / p.tau**a) ** k * power.values
        expected = acc / p.eta**a
        np.testing.assert_allclose(res.solution.values, expected, atol=1e-12)

    def test_converges_to_closed_form(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 256)
        s = Signal(g, np.ones(257))
        res = picard_linear(p, s, SolverConfig(tol=1e-8, max_iter=60))
        assert res.converged
        assert res.iterations <= 60
        strain = linear_strain(p, s)
        assert np.max(np.abs(res.solution.values - strain.values)) < 5e-3

    def test_nonconvergence_reported_not_raised(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 64)
        res = picard_linear(p, Signal(g, np.ones(65)), SolverConfig(tol=1e-14, max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.diff_history) == 2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(tol=0.0)
        with pytest.raises(DomainError):
            SolverConfig(tol=1e-8, max_iter=0)

    def test_config_rejects_bool_max_iter(self):
        with pytest.raises(DomainError):
            SolverConfig(tol=1e-8, max_iter=True)
