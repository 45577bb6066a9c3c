"""Linear fractional Voigt model: strain, creep functions, Picard solver."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from fracvoigt.errors import DomainError
from fracvoigt.fracops import Grid, Signal, _model_arg, rl_integral
from fracvoigt.nonlinear import ConstitutiveLaw, apply_T, residual, solve_nonlinear
from fracvoigt import voigt
from fracvoigt.special import Z_MAX_NEG, MLParams, _contour_nodes, ml_eval
from fracvoigt.voigt import (
    PicardResult,
    SolverConfig,
    VoigtParams,
    _creep_times,
    creep_function,
    linear_strain,
    picard_linear,
)
from oracles import creep_function_alt, ml_ref


class TestVoigtParams:
    def test_tau_is_derived(self):
        p = VoigtParams(eta=3.0, e_mod=1.5, alpha=0.5)
        assert p.tau == 2.0
        with pytest.raises(AttributeError):
            p.tau = 1.0

    @pytest.mark.parametrize(
        "eta,e_mod,alpha",
        [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 1.5),
         # tau = eta / e_mod overflows to inf or underflows to 0
         (1e300, 1e-300, 0.5), (1e-300, 1e300, 0.5)],
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
        # t/tau reaches 80, so the table runs the contour rule from z = 0
        # out to z = -sqrt(80)
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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -0.1])
    def test_bad_time_is_named(self, bad):
        # a float, and the first bad time of an array in array order
        p = VoigtParams(1.0, 2.0, 0.5)
        message = f"creep time must be finite and nonnegative, got {bad!r}"
        for t in (bad, np.array([0.0, 1.0, bad, -2.0]), np.array([[1.0, bad], [-3.0, 0.0]])):
            with pytest.raises(DomainError) as info:
                creep_function(p, t)
            assert str(info.value) == message

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


def step_creep(p, t):
    """The creep function through the validated path at every time,
    (tau/eta)^a x E[a,a+1](-x) with x = (t/tau)^a: the value the float
    fast path of creep_function must reproduce."""
    a = p.alpha
    x = 0.0 - _model_arg(a, p.tau, _creep_times(t))
    return (p.tau / p.eta) ** a * x * ml_eval(MLParams(a, a + 1.0), -x)


class TestCreepFastPath:
    def test_float_times_match_validated_path_bit_for_bit(self):
        rng = np.random.default_rng(19)
        alphas = [0.05, 0.3, 0.5, 0.9, 0.999, 1.0, *rng.uniform(0.01, 0.999, 20)]
        for alpha in alphas:
            eta, e_mod = 10 ** rng.uniform(-3, 3, 2)
            p = VoigtParams(float(eta), float(e_mod), alpha)
            cap = Z_MAX_NEG ** (1.0 / alpha) * p.tau  # (t/tau)^alpha = Z_MAX_NEG up to rounding
            xs = 10 ** rng.uniform(-30, 6, 40)
            times = [*(xs ** (1.0 / alpha) * p.tau), 0.0, -0.0, 5e-324, 1e-310, 1e-300]
            times += [cap * (1.0 + k * 2.2e-16) for k in range(-6, 7)]
            for t in map(float, times):
                try:
                    expected = step_creep(p, t)
                except DomainError as exc:  # past the cap
                    with pytest.raises(DomainError) as info:
                        creep_function(p, t)
                    assert str(info.value) == str(exc)
                    continue
                assert creep_function(p, t).hex() == expected.hex(), (alpha, t)

    def test_subnormal_time_that_underflows_gives_zero(self):
        # t / tau = 5e-324 / 2 rounds to 0, so (t/tau)^alpha = 0, not t > 0
        assert creep_function(VoigtParams(2.0, 1.0, 0.5), 5e-324) == 0.0

    @pytest.mark.parametrize(
        "t", [-0.1, -5e-324, float("nan"), float("inf"), -2, 3, np.float64(0.7), np.float64(-1.0), 2e12]
    )
    def test_other_inputs_take_the_validated_path(self, t):
        # every input but a float t > 0 inside the cap is validated first
        p = VoigtParams(1.0, 1.0, 0.5)  # tau = 1: 2e12 is past the cap 1e12
        try:
            expected = step_creep(p, t)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                creep_function(p, t)
            assert str(info.value) == str(exc)
            return
        got = creep_function(p, t)
        assert type(got) is float and got == expected

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_zero_time_gives_positive_zero(self, alpha):
        # (-0.0) ** 1.0 is -0.0, so the validated path forms x as 0 - z; tau = 2,
        # so t / tau underflows to 0 at t = 5e-324
        p = VoigtParams(2.0, 1.0, alpha)
        for t in (0.0, -0.0, 5e-324):
            assert creep_function(p, t).hex() == "0x0.0p+0"
            assert creep_function_alt(p, t).hex() == "0x0.0p+0"
        got = creep_function(p, np.array([0.0, -0.0, 5e-324]))
        assert got.tolist() == [0.0] * 3 and not np.signbit(got).any()


class TestCreepEarlyTimes:
    # the step-response form keeps relative accuracy as (t/tau)^a -> 0,
    # where 1 - E_a(-x) cancels to rounding noise

    @staticmethod
    def cases():
        rng = np.random.default_rng(25)
        alphas = [0.05, 0.3, 0.5, 0.9, 0.999, 1.0, *rng.uniform(0.05, 1.0, 6)]
        for alpha in map(float, alphas):
            eta, e_mod = (float(v) for v in 10 ** rng.uniform(-2, 2, 2))
            p = VoigtParams(eta, e_mod, alpha)
            # t = x^(1/a) tau stays a normal float
            lo = max(-30.0, -290.0 * alpha)
            xs = [*10 ** rng.uniform(lo, -3.0, 10), 1e-3]
            yield p, np.array(xs) ** (1.0 / alpha) * p.tau

    @staticmethod
    def reference(p, t):
        x = (t / p.tau) ** p.alpha
        return (p.tau / p.eta) ** p.alpha * x * ml_ref(p.alpha, p.alpha + 1.0, -x)

    def test_float_times_against_mpmath(self):
        for p, times in self.cases():
            for t in times.tolist():
                ref = self.reference(p, t)
                assert abs(creep_function(p, t) - ref) <= 1e-14 * ref, (p, t)

    def test_array_times_against_mpmath(self):
        for p, times in self.cases():
            ref = np.array([self.reference(p, t) for t in times.tolist()])
            got = creep_function(p, times)
            assert np.all(np.abs(got - ref) <= 1e-14 * ref), p


class TestCreepConstants:
    def test_contour_nodes_looked_up_once_per_params(self, monkeypatch):
        calls = []

        def spy(alpha, beta):
            calls.append((alpha, beta))
            return _contour_nodes(alpha, beta)

        monkeypatch.setattr(voigt, "_contour_nodes", spy)
        p = VoigtParams(1.5, 2.5, 0.4375)
        values = [creep_function(p, t) for t in np.linspace(0.01, 5.0, 50).tolist()]
        creep_function(p, np.linspace(0.0, 5.0, 7))
        assert calls == [(0.4375, 1.4375)]
        assert values == [step_creep(p, t) for t in np.linspace(0.01, 5.0, 50).tolist()]
        creep_function(VoigtParams(1.5, 2.5, 0.4375), 1.0)  # equal, but a new object
        assert len(calls) == 2

    def test_not_a_field(self):
        p, q = VoigtParams(1.5, 2.5, 0.6), VoigtParams(1.5, 2.5, 0.6)
        creep_function(p, 1.0)
        assert "_creep" in vars(p) and "_creep" not in vars(q)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert repr(p) == "VoigtParams(eta=1.5, e_mod=2.5, alpha=0.6)"
        assert "_creep" not in [f.name for f in dataclasses.fields(p)]
        assert dataclasses.astuple(p) == (1.5, 2.5, 0.6)

    def test_replace_gives_fresh_constants(self):
        p = VoigtParams(1.5, 2.5, 0.6)
        creep_function(p, 1.0)
        q = dataclasses.replace(p, alpha=0.7, eta=3.0)
        assert "_creep" not in vars(q)
        assert creep_function(q, 1.0) == step_creep(q, 1.0)
        assert q._creep == (0.7, q.tau, (q.tau / 3.0) ** 0.7, _contour_nodes(0.7, 1.7))

    def test_alpha_one_is_the_exponential_creep(self):
        # the (1, 2) contour gives E[1,2](-x) = -expm1(-x)/x, so alpha = 1
        # needs no branch of its own, at any x up to the cap
        p = VoigtParams(1.0, 2.0, 1.0)
        assert p._creep[3] == _contour_nodes(1.0, 2.0)
        times = 10 ** np.linspace(-20.0, 6.0, 105) * p.tau
        ref = np.array([0.5 * -math.expm1(-t / p.tau) for t in times.tolist()])
        for got in (np.array([creep_function(p, t) for t in times.tolist()]), creep_function(p, times)):
            assert np.all(np.abs(got - ref) <= 4e-15 * ref)


class TestMemoBounds:
    # a material touches two node tables: (a, a+1) for the step response
    # and creep, and (a, a+2) for F = I^2 k

    def test_one_material_builds_two_node_tables(self):
        _contour_nodes.cache_clear()
        g = Grid(2.0, 37)
        for repeat in (2, 0):
            before = _contour_nodes.cache_info().misses
            p = VoigtParams(eta=1.3, e_mod=2.9, alpha=0.6)  # equal, a new object
            linear_strain(p, Signal(g, g.points))
            creep_function(p, 0.7)
            creep_function(p, g.points)
            assert _contour_nodes.cache_info().misses == before + repeat

    def test_fresh_materials_retain_little_memory(self):
        # each material brings a fresh alpha, as a fitting sweep does
        g = Grid(1.0, 8)
        tracemalloc.start()
        try:
            for k in range(300):
                p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.3 + 0.6 * (k + 0.5) / 300)
                linear_strain(p, Signal(g, np.ones(g.n + 1)))
                [creep_function(p, t) for t in g.points.tolist()]
            del p
            gc.collect()  # a full collection also empties the free lists
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        package = snapshot.filter_traces([tracemalloc.Filter(True, "*fracvoigt*")])
        assert sum(stat.size for stat in package.statistics("filename")) < 128 * 1024
        info = _contour_nodes.cache_info()
        assert info.currsize <= info.maxsize


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
            scale = max(1.0, res.solution.sup_norm())
            assert res.converged == (res.final_diff < cfg.tol * scale)
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

    # unit step, eta = 1, E = 2 (tau = 0.5), n = 256: the window set by
    # t_end / tau that the picard_linear docstring states
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_converges_inside_its_window(self, alpha):
        p = VoigtParams(1.0, 2.0, alpha)
        res = picard_linear(p, Signal(Grid(15 * p.tau, 256), np.ones(257)),
                            SolverConfig(tol=1e-8, max_iter=300))
        assert res.converged

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_reports_past_its_window(self, alpha):
        p = VoigtParams(1.0, 2.0, alpha)
        res = picard_linear(p, Signal(Grid(30 * p.tau, 256), np.ones(257)),
                            SolverConfig(tol=1e-8, max_iter=2000))
        assert not res.converged
        assert res.iterations == 2000

    def test_sweeps_grow_with_the_window(self):
        # the Neumann partial sums peak near e^(t/tau) before they cancel;
        # measured (alpha 1 to 0.3): 24-84 sweeps at t_end/tau = 5, 54-183 at
        # 15 and 95-297 at 20, and none converges within 2000 at 25, so the
        # default 200 sweeps cover t_end/tau <= 15
        alphas = (1.0, 0.9, 0.7, 0.5, 0.3)
        sweeps = {}
        for ratio in (5, 15, 20, 25):
            for alpha in alphas:
                p = VoigtParams(1.0, 2.0, alpha)
                res = picard_linear(p, Signal(Grid(ratio * p.tau, 256), np.ones(257)),
                                    SolverConfig(tol=1e-8, max_iter=2000))
                sweeps[ratio, alpha] = res.iterations if res.converged else None
        for alpha in alphas:
            assert sweeps[5, alpha] < sweeps[15, alpha] < sweeps[20, alpha]
            assert sweeps[25, alpha] is None
        assert max(sweeps[5, a] for a in alphas) <= 100
        assert 150 <= max(sweeps[15, a] for a in alphas) <= SolverConfig.max_iter
        assert max(sweeps[20, a] for a in alphas) > SolverConfig.max_iter

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(tol=0.0)
        with pytest.raises(DomainError):
            SolverConfig(tol=1e-8, max_iter=0)

    def test_config_rejects_bool_max_iter(self):
        with pytest.raises(DomainError):
            SolverConfig(tol=1e-8, max_iter=True)


class TestModelRange:
    # alpha = 0.5 and tau = 1: (t / tau)^alpha <= 1e6 up to t = 1e12
    P = VoigtParams(eta=1.0, e_mod=1.0, alpha=0.5)
    MESSAGE = (
        "t / tau = 2e+12 is past 10^12, its largest supported value at alpha = 0.5 "
        "(tau = eta / e_mod)"
    )

    def test_every_entry_point_raises_one_error(self):
        p, grid = self.P, Grid(2e12, 4)
        step, law = Signal(grid, np.ones(5)), ConstitutiveLaw.from_expression("1/(1+eps)")
        calls = [
            lambda: creep_function(p, 2e12),
            lambda: creep_function(p, grid.points),
            lambda: linear_strain(p, step),
            lambda: picard_linear(p, step),
            lambda: solve_nonlinear(p, law, grid),
            lambda: apply_T(p, law, step),
            lambda: residual(p, law, step),
        ]
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == self.MESSAGE

    def test_the_cap_itself_is_in_range(self):
        p, grid = self.P, Grid(1e12, 4)
        plateau = (p.tau / p.eta) ** p.alpha
        creep = creep_function(p, grid.points)
        assert 0.0 < creep[-1] <= plateau
        strain = linear_strain(p, Signal(grid, np.ones(5))).values
        np.testing.assert_allclose(strain, creep, rtol=0.0, atol=1e-13 * plateau)
        assert picard_linear(p, Signal(grid, np.zeros(5))).converged
