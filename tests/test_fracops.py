"""Grids, signals, and the discrete fractional operators."""

import math

import numpy as np
import pytest

from fracvoigt import fracops
from fracvoigt.cli import run
from fracvoigt.errors import DomainError
from fracvoigt.fracops import (
    Grid,
    Signal,
    _kernel_integral,
    _kernel_weights,
    _pt_apply,
    _step_response,
    ml_kernel_convolve,
    rl_integral,
)
from fracvoigt.special import MLParams, ml_eval
from fracvoigt.voigt import VoigtParams, creep_function, linear_strain


def unit_signal(n, t_end=1.0):
    g = Grid(t_end, n)
    return Signal(g, np.ones(n + 1))


class TestGridSignal:
    def test_grid_points(self):
        g = Grid(2.0, 4)
        assert g.h == 0.5
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("t_end,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_grid_validation(self, t_end, n):
        with pytest.raises(DomainError):
            Grid(t_end, n)

    def test_grid_rejects_bool_n(self):
        # bool is an int subclass; Grid(1.0, True) must not mean n = 1
        with pytest.raises(DomainError):
            Grid(1.0, True)

    def test_signal_length_checked(self):
        g = Grid(1.0, 4)
        with pytest.raises(DomainError):
            Signal(g, np.ones(4))

    def test_signal_rejects_nonfinite(self):
        g = Grid(1.0, 2)
        with pytest.raises(DomainError):
            Signal(g, [0.0, float("inf"), 1.0])

    def test_signal_values_frozen_copy(self):
        g = Grid(1.0, 2)
        src = np.array([1.0, 2.0, 3.0])
        s = Signal(g, src)
        src[0] = 99.0
        assert s.values[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestRlIntegral:
    def test_order_one_is_ordinary_integral(self):
        s = unit_signal(8)
        out = rl_integral(1.0, s)
        np.testing.assert_allclose(out.values, s.grid.points, atol=1e-15)

    def test_constant_exact(self):
        # I^a 1 = t^a / Gamma(1+a), exact because the interpolant is exact
        s = unit_signal(16)
        out = rl_integral(0.5, s)
        expected = s.grid.points**0.5 / math.gamma(1.5)
        np.testing.assert_allclose(out.values, expected, atol=5e-15)

    def test_ramp_exact(self):
        g = Grid(1.0, 16)
        s = Signal(g, g.points.copy())
        out = rl_integral(0.5, s)
        expected = math.gamma(2.0) / math.gamma(2.5) * g.points**1.5
        np.testing.assert_allclose(out.values, expected, atol=5e-15)

    def test_zero_in_zero_out(self):
        out = rl_integral(0.7, Signal.zeros(Grid(1.0, 32)))
        assert out.sup_norm() == 0.0

    def test_starts_at_zero(self):
        out = rl_integral(0.3, unit_signal(8))
        assert out.values[0] == 0.0

    def test_linearity_to_rounding(self):
        g = Grid(1.0, 64)
        rng = np.random.default_rng(42)
        f1 = Signal(g, rng.standard_normal(65))
        f2 = Signal(g, rng.standard_normal(65))
        a, b = 2.5, -1.25
        lhs = rl_integral(0.6, Signal(g, a * f1.values + b * f2.values))
        rhs = a * rl_integral(0.6, f1).values + b * rl_integral(0.6, f2).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-13)

    @pytest.mark.parametrize("a,rate", [(0.5, 1.9), (0.75, 2.0)])
    def test_semigroup_by_refinement(self, a, rate):
        # I^a(I^a 1) approaches t^(2a)/Gamma(1+2a); the second operator
        # interpolates the cusped output of the first, so the observed rate
        # is h^(2a) and the error ratio per doubling is 2^(2a)
        errs = []
        for n in [64, 128, 256]:
            s = unit_signal(n)
            nested = rl_integral(a, rl_integral(a, s))
            exact = s.grid.points ** (2 * a) / math.gamma(1.0 + 2 * a)
            errs.append(float(np.max(np.abs(nested.values - exact))))
        assert errs[0] / errs[1] >= rate
        assert errs[1] / errs[2] >= rate

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.1, 2.0])
    def test_order_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            rl_integral(alpha, unit_signal(4))

    def test_overflow_names_the_integral(self):
        # finite data whose integral overflows, without a numpy warning
        f = Signal(Grid(4.0, 4), [0.0, 1e308, 1e308, 1e308, 1e308])
        with pytest.raises(DomainError) as info:
            rl_integral(0.5, f)
        assert str(info.value) == "fractional integral overflows float64"


class TestMlKernelConvolve:
    def test_zero_stress(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        out = ml_kernel_convolve(p, Signal.zeros(Grid(1.0, 32)))
        assert out.sup_norm() == 0.0

    def test_classical_limit_constant_stress(self):
        # alpha = 1, eta = tau = 1: response to unit stress is 1 - exp(-t)
        p = VoigtParams(1.0, 1.0, 1.0)
        s = unit_signal(256)
        out = ml_kernel_convolve(p, s)
        expected = 1.0 - np.exp(-s.grid.points)
        assert np.max(np.abs(out.values - expected)) < 1e-5

    def test_constant_stress_matches_creep_function(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        s = unit_signal(256)
        out = ml_kernel_convolve(p, s)
        expected = np.array([creep_function(p, float(t)) for t in s.grid.points])
        assert np.max(np.abs(out.values - expected)) < 1e-4

    def test_starts_at_zero(self):
        p = VoigtParams(2.0, 1.0, 0.7)
        out = ml_kernel_convolve(p, unit_signal(16))
        assert out.values[0] == 0.0

    def test_linearity(self):
        g = Grid(1.0, 64)
        p = VoigtParams(1.0, 1.0, 0.6)
        rng = np.random.default_rng(3)
        f1 = Signal(g, rng.standard_normal(65))
        f2 = Signal(g, rng.standard_normal(65))
        lhs = ml_kernel_convolve(p, Signal(g, 3.0 * f1.values - 0.5 * f2.values))
        rhs = 3.0 * ml_kernel_convolve(p, f1).values - 0.5 * ml_kernel_convolve(p, f2).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-13)

    @pytest.mark.parametrize(
        "eta,e_mod,alpha,ratio",
        [
            (1.0, 2.0, 0.5, 2.0),
            (1.0, 2.0, 0.5, 160.0),
            (1.0, 2.0, 0.3, 4000.0),
            (1.0, 2.0, 0.8, 80.0),
            (0.005, 1.0, 0.5, 200.0),  # tau = 0.005 on [0, 1]
            (1.0, 2.0, 1.0, 99.0),  # the geometric weights of the exponential kernel
            (1e6, 1.0, 1.0, 1e-9),  # h / tau = 2.4e-13, where the expm1 forms fail
        ],
    )
    def test_piecewise_linear_data_exact(self, eta, e_mod, alpha, ratio):
        # the interpolant of a step or a ramp is the datum itself, so the
        # rule reproduces its convolution to rounding, however coarse the
        # grid is against tau: the step gives the creep function, the ramp
        # the kernel's second integral
        p = VoigtParams(eta=eta, e_mod=e_mod, alpha=alpha)
        g = Grid(ratio * p.tau, 4096)
        t = g.points
        plateau = (p.tau / p.eta) ** alpha
        step = ml_kernel_convolve(p, Signal(g, np.ones(g.n + 1))).values
        assert np.max(np.abs(step - creep_function(p, t))) <= 1e-13 * plateau
        ramp = ml_kernel_convolve(p, Signal(g, t)).values
        exact = t ** (alpha + 1) * ml_eval(MLParams(alpha, alpha + 2), -((t / p.tau) ** alpha))
        exact /= p.eta**alpha
        assert np.max(np.abs(ramp - exact)) <= 1e-13 * np.max(exact)

    @pytest.mark.parametrize("alpha,bound", [(0.5, 2e-8), (0.9, 2.5e-9)])
    def test_rate_where_h_exceeds_tau(self, alpha, bound):
        # tau = 1e-6 on [0, 1], so h / tau >= 244: the kernel's algebraic
        # tail against the interpolation error of t^2 in the last cell gives
        # an error near h^2 (tau/h)^a, which falls as h^(2-a), not h^2.
        # Measured at n = 1024: 1.33e-8 (a = 0.5) and 1.70e-9 (a = 0.9) of
        # the largest strain, with orders 1.50-1.52 and 1.10
        p = VoigtParams(eta=1.0, e_mod=1e6, alpha=alpha)
        errors = []
        for n in (64, 256, 1024):
            t = Grid(1.0, n).points
            exact = 2.0 * _kernel_integral(alpha, p.tau, 3, t) / p.eta**alpha  # k * t^2
            got = ml_kernel_convolve(p, Signal(Grid(1.0, n), t**2)).values
            errors.append(np.max(np.abs(got - exact)) / np.max(exact))
        assert errors[-1] <= bound
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(math.log(coarse / fine, 4) - (2.0 - alpha)) <= 0.05


def builder_weights(alpha, tau, h, n):
    """B and W of _kernel_weights, rebuilt from the formulas of the fracops
    docstring; the builder's cached B and spectrum rfft(W, 2n) must equal
    them bit for bit, so W is the builder's own."""
    t = np.arange(n + 1) * h
    if alpha == 1.0 and tau < math.inf:  # geometric in q = e^(-h/tau)
        q = np.exp(-t[:-1] / tau)
        i1, f2 = _kernel_integral(1.0, tau, 1, h), _kernel_integral(1.0, tau, 2, h)
        w = np.concatenate(([f2 / h], i1 * i1 / h * q[:-1]))
        b = (i1 - f2 / h) * q
    else:
        d = np.diff(_kernel_integral(alpha, tau, 2, t), prepend=0.0)
        w = np.diff(d) / h
        b = _kernel_integral(alpha, tau, 1, t[1:]) - d[1:] / h
    cached_b, spec = _kernel_weights(alpha, tau, h, n)
    assert np.array_equal(b, cached_b)
    assert np.array_equal(np.fft.rfft(w, 2 * n), spec)
    return b, w


def classical_pt_weights(alpha, n):
    """Product-trapezoidal weights of the kernel t^(a-1)/Gamma(a) times
    Gamma(a+2) on the unit grid, from the classical closed form:
    b_j = (j-1)^(a+1) - j^(a+1) + (a+1) j^a (j = 1..n), w_0 = 1,
    w_m = (m+1)^(a+1) - 2 m^(a+1) + (m-1)^(a+1) (m = 1..n-1)."""
    a1 = alpha + 1.0
    j = np.arange(1, n + 1, dtype=float)
    b = (j - 1.0) ** a1 - j**a1 + a1 * j**alpha
    m = np.arange(0, n, dtype=float)
    w = (m + 1.0) ** a1 - 2.0 * m**a1 + np.abs(m - 1.0) ** a1
    w[0] = 1.0
    return b, w


def direct_sum(b, w, f):
    """b_j f_0 + sum_{k=1}^{j} w_{j-k} f_k for j = 1..n by direct
    convolution, 0 at j = 0."""
    n = len(b)
    out = np.zeros(n + 1)
    out[1:] = b * f[0] + np.convolve(f[1:], w)[:n]
    return out


def sample_data(kind, n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n + 1)
    return {
        "signed": rng.standard_normal(n + 1),
        "nonnegative": rng.random(n + 1),
        "late-start": np.where(t >= 0.5, 1.0 + t, 0.0),
        "tiny-then-large": np.exp(-200.0 * (1.0 - t)),
    }[kind]


# (alpha, t_end/tau): a small order, the contour branch near z = 0, the
# exponential kernel (alpha = 1) and the contour branch far out
# ((t_end/tau)^a = 20)
KERNEL_CASES = [(0.1, 2.0), (0.5, 2.0), (1.0, 5.0), (0.5, 400.0)]
DATA_KINDS = ["signed", "nonnegative", "late-start", "tiny-then-large"]


class TestFftApply:
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 4097])
    @pytest.mark.parametrize("alpha,ratio", KERNEL_CASES)
    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_kernel_matches_direct_convolution(self, n, alpha, ratio, kind):
        p = VoigtParams(eta=1.5, e_mod=3.0, alpha=alpha)
        f = Signal(Grid(ratio * p.tau, n), sample_data(kind, n))
        big_b, big_w = builder_weights(alpha, p.tau, f.grid.h, n)
        ref = direct_sum(big_b, big_w, f.values) / p.eta**alpha
        got = ml_kernel_convolve(p, f).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 4097])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_rl_integral_matches_direct_convolution(self, n, alpha, kind):
        # the classical weights and the second differences of m^(a+1) that
        # the builder takes both round to about eps m^2 relative
        f = Signal(Grid(2.0, n), sample_data(kind, n))
        b, w = classical_pt_weights(alpha, n)
        ref = f.grid.h**alpha / math.gamma(alpha + 2.0) * direct_sum(b, w, f.values)
        got = rl_integral(alpha, f).values
        rtol = 1e-10 if n <= 256 else 1e-8
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))

    def test_output_before_first_load_is_exactly_zero(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 4096)
        stress = Signal(g, np.where(g.points >= 0.5, 1.0, 0.0))
        out = ml_kernel_convolve(p, stress).values
        first = int(np.flatnonzero(stress.values)[0])
        assert np.all(out[:first] == 0.0)
        assert np.all(out[first:] >= 0.0)
        assert np.all(rl_integral(0.5, stress).values[:first] == 0.0)

    def test_tiny_then_large_stays_nonnegative(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 4096)
        out = ml_kernel_convolve(p, Signal(g, np.exp(-200.0 * (1.0 - g.points))))
        assert np.all(out.values >= 0.0)

    def test_one_coarse_step_is_positive(self):
        # one step of length 5 tau: W_0 = F(h)/h, F = I^2 k
        p = VoigtParams(eta=1.0, e_mod=5.0, alpha=0.5)
        out = linear_strain(p, Signal(Grid(1.0, 1), [0.0, 1.0])).values
        h = 1.0
        expected = h**p.alpha * ml_eval(MLParams(p.alpha, p.alpha + 2), -((h / p.tau) ** p.alpha))
        assert out[1] == pytest.approx(expected / p.eta**p.alpha, rel=1e-15)
        assert out[1] > 0.0

    def test_weights_positive_at_long_times(self):
        # alpha 0.425, (t_end/tau)^a about 11: late B_j are small
        # differences of the kernel's integrals
        p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.425)
        g = Grid(302.0 * p.tau, 4096)
        b, w = builder_weights(p.alpha, p.tau, g.h, g.n)
        assert np.all(b > 0.0) and np.all(w > 0.0)
        # data 1 at t = 0 only: the strain is B / eta^a, and a negative B_j
        # would show as a clipped 0
        impulse = np.zeros(g.n + 1)
        impulse[0] = 1.0
        assert np.all(linear_strain(p, Signal(g, impulse)).values[1:] > 0.0)

    def test_weights_apply_to_a_step_is_the_step_response(self):
        # the weights' sums telescope to I^1 k(t_j), so their FFT apply to a
        # unit step meets it to rounding (5.3e-15 of its largest value over
        # 3000 draws), also late in the long-time range, where the algebraic
        # tail of alpha < 1 leaves weights of either sign (at n = 4096 and
        # alpha = 0.999, none up to (t/tau)^a = 1e4, 104 B_j <= 0 at 1e5)
        def apply_error(alpha, x_end, n):
            h = x_end ** (1.0 / alpha) / n  # tau = 1
            got = _pt_apply(_kernel_weights(alpha, 1.0, h, n), np.ones(n + 1))[1:]
            step = _step_response(alpha, 1.0, h, n)
            return np.max(np.abs(got - step)) / np.max(step)

        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.choice([64, 1024, 4096]))
            assert apply_error(rng.uniform(0.05, 1.0), 10 ** rng.uniform(-3, 5.99), n) <= 1e-14
        assert apply_error(0.999, 1e5, 4096) <= 1e-14
        b, _ = _kernel_weights(0.999, 1.0, 1e5 ** (1.0 / 0.999) / 4096, 4096)
        assert np.any(b <= 0.0)

    def test_spectrum_cached_per_kernel(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 64)
        first = _kernel_weights(p.alpha, p.tau, g.h, g.n)
        ml_kernel_convolve(p, Signal(g, g.points))  # a ramp: constant data take no weights
        assert _kernel_weights(p.alpha, p.tau, g.h, g.n) is first
        assert not first[1].flags.writeable


def fft_apply(params, f):
    """ml_kernel_convolve of f through the weights and the FFT, whatever
    the data: the path every non-constant datum takes."""
    g = f.grid
    out = _pt_apply(_kernel_weights(params.alpha, params.tau, g.h, g.n), f.values)
    return out / params.eta**params.alpha


class TestConstantData:
    # the weights' sums telescope to I^1 k(t_j), so constant data c give
    # c I^1 k(t_j) / eta^a (h^a-scaled for rl_integral) with no FFT

    @pytest.mark.parametrize("c", [1.0, -2.5, 3e-7, -1e300])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_is_the_scaled_step_response(self, c, alpha):
        p = VoigtParams(eta=1.5, e_mod=3.0, alpha=alpha)
        g = Grid(7.0 * p.tau, 300)
        f = Signal(g, np.full(g.n + 1, c))
        out = ml_kernel_convolve(p, f).values
        step = _kernel_integral(alpha, p.tau, 1, np.arange(1, g.n + 1) * g.h)
        assert out[0] == 0.0
        assert np.array_equal(out[1:], c * step / p.eta**alpha)
        rl = rl_integral(alpha, f).values
        unit_step = _kernel_integral(alpha, math.inf, 1, np.arange(1.0, g.n + 1))
        assert rl[0] == 0.0
        assert np.array_equal(rl[1:], g.h**alpha * (c * unit_step))

    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("zeros", [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0]])
    def test_zero_data_give_positive_zero(self, n, zeros):
        values = np.resize(np.array(zeros), n + 1)
        f = Signal(Grid(1.0, n), values)
        positive_zeros = np.zeros(n + 1).tobytes()
        assert ml_kernel_convolve(VoigtParams(1.0, 2.0, 0.5), f).values.tobytes() == positive_zeros
        assert rl_integral(0.5, f).values.tobytes() == positive_zeros

    @pytest.mark.parametrize("where", [0, 128, 256])
    @pytest.mark.parametrize("kind", ["nudged", "zero"])
    def test_one_other_sample_takes_the_fft(self, where, kind):
        # data constant but for one sample (first, middle or last) are not
        # constant: their apply is the FFT one, bit for bit
        p = VoigtParams(eta=1.5, e_mod=3.0, alpha=0.6)
        values = np.full(257, 2.0)
        values[where] = np.nextafter(2.0, 3.0) if kind == "nudged" else 0.0
        f = Signal(Grid(3.0, 256), values)
        assert np.array_equal(ml_kernel_convolve(p, f).values, fft_apply(p, f))
        rl_weights = _kernel_weights(0.6, math.inf, 1.0, 256)
        expected = f.grid.h**0.6 * _pt_apply(rl_weights, f.values)
        assert np.array_equal(rl_integral(0.6, f).values, expected)

    def test_builds_no_weights(self):
        # a fresh key: only the step response is evaluated
        p = VoigtParams(eta=1.25, e_mod=3.5, alpha=0.4375)
        g = Grid(2.0, 333)
        weights_before = _kernel_weights.cache_info().misses
        step_before = _step_response.cache_info().misses
        linear_strain(p, Signal(g, np.ones(g.n + 1)))
        assert _kernel_weights.cache_info().misses == weights_before
        assert _step_response.cache_info().misses == step_before + 1

    def test_weights_reuse_the_step_response(self):
        p = VoigtParams(eta=1.25, e_mod=3.5, alpha=0.5625)
        g = Grid(2.0, 111)
        ml_kernel_convolve(p, Signal(g, g.points))
        misses = _step_response.cache_info().misses
        linear_strain(p, Signal(g, np.ones(g.n + 1)))
        assert _step_response.cache_info().misses == misses
        assert not _step_response(p.alpha, p.tau, g.h, g.n).flags.writeable

    def test_strain_near_the_float_max(self):
        # the strain peaks at 4.7e307: finite, though the FFT of the data
        # (their sum, 5e308, at frequency 0) overflows
        p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)
        out = ml_kernel_convolve(p, Signal(Grid(1.0, 4), np.full(5, 1e308))).values
        assert np.all(np.isfinite(out)) and 4.6e307 < out[-1] < 4.8e307


class TestOverflowRetry:
    # finite data whose sums overflow float64 where the output does not:
    # every apply runs on the data scaled by a power of two, so its FFT cannot

    @pytest.mark.parametrize(
        "n,expr,stress",
        [
            (4, "1e308*(1-t/2)", lambda t: 1e308 * (1 - t / 2)),
            (64, "1e308*t", lambda t: 1e308 * t),
        ],
        ids=["falling", "ramp"],
    )
    def test_cli_rows_are_the_scaled_direct_sums(self, capsys, n, expr, stress):
        # the rule's sums on data scaled by 2^-1000 peak at 2^1021.5 and
        # 2^1021.7 (after 1/eta^a): finite, though the FFT's sum overflows
        argv = ["strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2", "--n", str(n)]
        assert run([*argv, "--stress-expr", expr]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        t, got = (np.array(column, dtype=float) for column in zip(*rows))
        p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)
        big_b, big_w = builder_weights(p.alpha, p.tau, t[1], n)
        ref = direct_sum(big_b, big_w, np.ldexp(stress(t), -1000)) / p.eta**p.alpha
        assert np.max(np.abs(np.ldexp(got, -1000) - ref)) <= 1e-14 * np.max(ref)

    def test_rl_retry_is_the_scaled_apply(self):
        # h^a < 1 brings the unit-grid sums, which overflow, back into
        # range; a power of two scales every step of the FFT exactly
        f = Signal(Grid(4e-4, 4), [0.0, 1e308, 1e308, 1e308, 1e308])
        scaled = Signal(f.grid, np.ldexp(f.values, -1000))
        out = rl_integral(0.5, f).values
        assert np.array_equal(out, np.ldexp(rl_integral(0.5, scaled).values, 1000))
        assert 2e306 < out[-1] < 3e306

    def test_factor_after_the_step_response(self):
        # constant data: c I^1 k(t) overflows at the plateau tau^a = 10,
        # and 1/eta^a = 0.1 brings the strain back to about 1e308
        p = VoigtParams(eta=100.0, e_mod=1.0, alpha=0.5)
        f = Signal(Grid(1e4, 4), np.full(5, 1e308))
        out = ml_kernel_convolve(p, f).values
        unit = ml_kernel_convolve(p, Signal(f.grid, np.ones(5))).values
        assert np.allclose(out, 1e308 * unit, rtol=1e-15, atol=0.0)

    def test_in_range_data_convolve_once(self, monkeypatch):
        calls = []
        convolve = fracops._convolve

        def spy(*args):
            calls.append(args)
            return convolve(*args)

        monkeypatch.setattr(fracops, "_convolve", spy)
        g = Grid(1.0, 64)
        ml_kernel_convolve(VoigtParams(1.0, 2.0, 0.5), Signal(g, 1e300 * g.points))
        rl_integral(0.5, Signal(g, g.points))
        assert len(calls) == 2
        # data whose unscaled FFT would overflow take the one apply too
        ml_kernel_convolve(VoigtParams(1.0, 2.0, 0.5), Signal(g, 1e308 * g.points))
        assert len(calls) == 3

    def test_false_overflow_does_not_warn(self):
        # no errstate here: pytest raises numpy's RuntimeWarnings, so an FFT
        # overflow warned inside the apply would fail the test
        g = Grid(1.0, 64)
        out = ml_kernel_convolve(VoigtParams(1.0, 2.0, 0.5), Signal(g, 1e308 * g.points)).values
        assert np.isfinite(out).all() and 3e307 < out[-1] < 4e307

    @pytest.mark.parametrize(
        "op,t_end",
        [
            (lambda f: ml_kernel_convolve(VoigtParams(1e-20, 2e-20, 0.5), f), 1.0),
            (lambda f: rl_integral(0.5, f), 1e30),
        ],
        ids=["strain", "integral"],
    )
    def test_subnormal_data_keep_their_digits(self, op, t_end):
        # a subnormal ramp, 1e-315 at its end, whose output is normal (the
        # strain's 1/eta^a = 1e10, the integral's h^a = 1.25e14): its apply
        # equals, bit for bit, the apply of the data scaled by 2^1000 into
        # the normal range, scaled back
        g = Grid(t_end, 64)
        f = Signal(g, 1e-315 * (g.points / t_end))
        scaled = np.ldexp(op(Signal(g, np.ldexp(f.values, 1000))).values, -1000)
        assert np.array_equal(op(f).values, scaled)
        assert 1e-306 < scaled[-1] < 1e-299
