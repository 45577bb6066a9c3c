"""Grids, signals, and the discrete fractional operators."""

import math

import numpy as np
import pytest

from fracvoigt.errors import DomainError
from fracvoigt.fracops import (
    Grid,
    Signal,
    _kernel_integral,
    _kernel_weights,
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


def builder_weights(alpha, tau, h, n):
    """B and W of _kernel_weights, rebuilt from the formulas of the fracops
    docstring; the builder's cached B and spectrum rfft(W, 2n) must equal
    them bit for bit, so W is the builder's own."""
    t = np.arange(n + 1) * h
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


# (alpha, t_end/tau): a small order, the contour branch, the confluent branch
# (alpha = 1) and the asymptotic branch ((t_end/tau)^a = 20)
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

    def test_spectrum_cached_per_kernel(self):
        p = VoigtParams(1.0, 2.0, 0.5)
        g = Grid(1.0, 64)
        first = _kernel_weights(p.alpha, p.tau, g.h, g.n)
        ml_kernel_convolve(p, unit_signal(64))
        assert _kernel_weights(p.alpha, p.tau, g.h, g.n) is first
        assert not first[1].flags.writeable
