"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Criterion 1 compares against the frozen extended-precision
reference table (tests/data/ml_reference.csv, regenerated by
`python tests/oracles.py`); a live-oracle spot check guards the table.
"""

import csv
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fracvoigt.cli import run
from fracvoigt.expr import evaluate, parse, to_source
from fracvoigt.fracops import Grid, Signal, rl_integral
from fracvoigt.nonlinear import ConstitutiveLaw, residual, solve_nonlinear
from fracvoigt.special import MLParams, ml_deriv_sign_probe, ml_eval
from fracvoigt.voigt import (
    SolverConfig,
    VoigtParams,
    creep_function,
    creep_function_alt,
    linear_strain,
    picard_linear,
)

from expr_cases import PRECEDENCE_CASES, random_expression
from oracles import ml_ref, rk4_solve

DATA = Path(__file__).parent / "data" / "ml_reference.csv"


def report(k: int, message: str) -> None:
    print(f"[acceptance] criterion {k:02d} PASS: {message}")


def test_criterion_01_ml_against_extended_precision_oracle():
    rows = []
    with open(DATA) as fh:
        for row in csv.DictReader(fh):
            rows.append(
                (float(row["alpha"]), float(row["beta"]), float(row["z"]), float(row["value"]))
            )
    # 16 (alpha, beta) pairs on [-50, 5] and on [-100, -50), then
    # alpha in {0.1, 0.9, 0.99} on [-100, 0] (tests/oracles.py)
    assert len(rows) == 16 * 500 + 16 * 250 + 12 * 250

    params = {}
    t0 = time.perf_counter()
    worst = 0.0
    for a, b, z, ref in rows:
        p = params.setdefault((a, b), MLParams(a, b))
        got = ml_eval(p, z)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-10, f"worst abs-or-rel error {worst:.3e} exceeds 1e-10"
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s, budget is 5s"

    # live-oracle spot check so the frozen table cannot drift silently
    rng = random.Random(99)
    for a, b, z, ref in rng.sample(rows, 10):
        assert abs(ml_ref(a, b, z) - ref) <= 1e-12 * max(1.0, abs(ref))
    report(1, f"{len(rows)} points, worst abs-or-rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_exponential_reduction():
    p = VoigtParams(eta=1.0, e_mod=2.0, alpha=1.0)  # tau = 0.5
    tau = p.tau
    exact_sups = {}
    square_errs = {}
    for n in (256, 512):
        g = Grid(1.0, n)
        t = g.points
        decay = 1.0 - np.exp(-t / tau)
        # the rule is exact on piecewise-linear data: a step and a ramp
        step = linear_strain(p, Signal(g, np.ones(n + 1)))
        ramp = linear_strain(p, Signal(g, t.copy()))
        exact_sups[n] = max(
            float(np.max(np.abs(step.values - tau * decay))),
            float(np.max(np.abs(ramp.values - (tau * t - tau**2 * decay)))),
        )
        square = linear_strain(p, Signal(g, t**2))
        exact_square = tau * t**2 - 2.0 * tau**2 * t + 2.0 * tau**3 * decay
        square_errs[n] = np.abs(square.values - exact_square)[[n // 4, n // 2, 3 * n // 4, n]]
    assert max(exact_sups.values()) <= 1e-13, f"step/ramp sup {max(exact_sups.values()):.3e}"
    ratios = square_errs[256] / square_errs[512]
    assert np.all(ratios >= 3.0), f"t^2 refinement ratios {ratios} below 3"
    report(2, f"step/ramp sup {max(exact_sups.values()):.2e}, "
              f"t^2 ratio n=256/512 min {ratios.min():.2f}")


def test_criterion_03_creep_identity():
    worst = 0.0
    for alpha in np.arange(0.1, 1.05, 0.1):
        p = VoigtParams(eta=1.0, e_mod=2.0, alpha=round(float(alpha), 10))
        for t in np.linspace(0.0, 5.0, 50):
            d = abs(creep_function(p, float(t)) - creep_function_alt(p, float(t)))
            worst = max(worst, d)
    assert worst <= 1e-10, f"creep forms disagree by {worst:.3e}"
    report(3, f"10 orders x 50 times, worst |k - k_alt| = {worst:.2e}")


def test_criterion_04_classical_creep_reduction():
    worst = 0.0
    for eta, e_mod in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
        p = VoigtParams(eta=eta, e_mod=e_mod, alpha=1.0)
        for t in np.linspace(0.0, 5.0, 100):
            expected = (1.0 / e_mod) * (1.0 - math.exp(-float(t) / p.tau))
            worst = max(worst, abs(creep_function(p, float(t)) - expected))
    assert worst <= 1e-8, f"classical creep reduction off by {worst:.3e}"
    report(4, f"3 material pairs x 100 times, worst {worst:.2e}")


def test_criterion_05_picard_matches_closed_form():
    # tau^-alpha = 2^0.8 = 1.74 <= 2 on [0, 1]
    p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.8)
    cfg = SolverConfig(tol=1e-8, max_iter=60)
    sups = {}
    for n in (256, 512):
        g = Grid(1.0, n)
        s = Signal(g, np.ones(n + 1))
        res = picard_linear(p, s, cfg)
        assert res.converged and res.iterations <= 60
        sups[n] = float(np.max(np.abs(res.solution.values - linear_strain(p, s).values)))
    assert sups[256] <= 5e-3, f"n=256 sup {sups[256]:.3e}"
    assert sups[256] / sups[512] >= 2.0, f"ratio {sups[256]/sups[512]:.2f} < 2"
    report(5, f"sup n=256 {sups[256]:.2e}, shrink ratio {sups[256]/sups[512]:.2f}")


def test_criterion_06_partial_sum_structure():
    p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)
    g = Grid(1.0, 128)
    stress = Signal(g, np.cos(2.0 * g.points) + 1.5)
    a, ea, ta = p.alpha, p.eta**p.alpha, p.tau**p.alpha

    i1 = rl_integral(a, stress)
    i2 = rl_integral(a, i1)
    i3 = rl_integral(a, i2)
    expected = {
        1: i1.values / ea - i2.values / (ea * ta),
        2: i1.values / ea - i2.values / (ea * ta) + i3.values / (ea * ta**2),
    }
    worst = 0.0
    for m in (1, 2):
        res = picard_linear(p, stress, SolverConfig(tol=1e-30, max_iter=m))
        worst = max(worst, float(np.max(np.abs(res.solution.values - expected[m]))))
    assert worst <= 1e-12, f"partial sums deviate by {worst:.3e}"
    report(6, f"iterates m=1,2 match nested quadratures to {worst:.2e}")


def test_criterion_07_nonlinear_worked_example():
    p = VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)
    law = ConstitutiveLaw.from_expression("1/(1+eps)")
    cfg = SolverConfig(tol=1e-8, max_iter=100)

    res256 = solve_nonlinear(p, law, Grid(1.0, 256), cfg)
    assert res256.converged and res256.iterations <= 100
    eps = res256.solution.values
    assert eps[0] == 0.0
    assert np.all(eps >= 0.0)
    assert np.all(np.diff(eps) >= -1e-12)
    bound = 1.0 / math.gamma(1.5)
    assert float(np.max(eps)) <= bound + 1e-6

    res1024 = solve_nonlinear(p, law, Grid(1.0, 1024), cfg)
    assert res1024.converged
    defect = residual(p, law, res1024.solution)
    assert defect <= 1e-6, f"fixed-point residual {defect:.3e}"

    diff = float(np.max(np.abs(res1024.solution.values[::4] - eps)))
    assert diff <= 2e-3, f"n=256 vs n=1024 differ by {diff:.3e}"
    report(
        7,
        f"{res256.iterations} iterations, sup eps {np.max(eps):.4f} <= {bound:.4f}, "
        f"residual(n=1024) {defect:.2e}, grid diff {diff:.2e}",
    )


def test_criterion_08_classical_nonlinear_oracle():
    p = VoigtParams(eta=1.0, e_mod=2.0, alpha=1.0)
    law = ConstitutiveLaw.from_expression("1/(1+eps)")
    g = Grid(1.0, 512)
    res = solve_nonlinear(p, law, g, SolverConfig(tol=1e-10, max_iter=200))
    assert res.converged
    ref = np.array(
        rk4_solve(lambda t, y: -2.0 * y + 1.0 / (1.0 + y), 0.0, g.points, substeps=20)
    )
    sup = float(np.max(np.abs(res.solution.values - ref)))
    assert sup <= 1e-3, f"classical limit off by {sup:.3e}"
    report(8, f"fixed point vs Runge-Kutta reference, sup {sup:.2e}")


def test_criterion_09_complete_monotonicity_suite():
    alphas = [0.2, 0.4, 0.6, 0.8, 1.0]
    offsets = [0.0, 0.25, 0.5, 1.0, 1.5]
    xs = np.linspace(0.0, 50.0, 1000)
    probe_xs = np.linspace(0.5, 49.5, 100)
    checked = 0
    for alpha in alphas:
        for off in offsets:
            p = MLParams(alpha, alpha + off)
            vals = np.array([ml_eval(p, -float(x)) for x in xs])
            assert np.all(vals >= 0.0), f"negative value for {p}"
            assert np.all(np.diff(vals) <= 1e-12), f"increase for {p}"
            for x in probe_xs:
                for n in range(4):
                    d = ml_deriv_sign_probe(p, float(x), n, 1e-3)
                    assert (-1.0) ** n * d >= -1e-6, (
                        f"sign pattern broken: {p}, x={x}, order {n}, value {d}"
                    )
            checked += 1
    report(9, f"{checked} parameter pairs: nonnegative, nonincreasing, sign pattern holds")


def test_criterion_10_quadrature_order():
    from fracvoigt.fracops import ml_kernel_convolve

    # data t^2, which the piecewise-linear interpolant does not reproduce;
    # its convolution is 2 t^(a+2) E[a,a+3](-(t/tau)^a) / eta^a, referenced
    # by the mpmath series at |z| <= 2
    ts = (0.25, 0.5, 0.75, 1.0)
    ratios = {}
    for alpha in (0.3, 0.5, 0.8):
        p = VoigtParams(eta=1.0, e_mod=2.0, alpha=alpha)
        exact = np.array([
            2.0 * t ** (alpha + 2) * ml_ref(alpha, alpha + 3, -((t / p.tau) ** alpha))
            for t in ts
        ]) / p.eta**alpha
        errs = []
        for n in (64, 128, 256, 512):
            g = Grid(1.0, n)
            out = ml_kernel_convolve(p, Signal(g, g.points**2))
            errs.append(np.abs(out.values[[n // 4, n // 2, 3 * n // 4, n]] - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert np.all(coarse / fine >= 3.0), f"alpha={alpha}: ratios {coarse / fine} < 3"
        ratios[alpha] = min(float(np.min(c / f)) for c, f in zip(errs, errs[1:]))
    report(10, "t^2 error falls 3x (or more) per doubling: " + ", ".join(
        f"alpha={a} min ratio {r:.2f}" for a, r in ratios.items()
    ))


def test_criterion_11_expression_parser():
    assert len(PRECEDENCE_CASES) >= 20
    for src, var, x, expected in PRECEDENCE_CASES:
        got = evaluate(parse(src, var), x)
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-15), src

    rng = random.Random(4242)
    for _ in range(100):
        tree = random_expression(rng)
        reparsed = parse(to_source(tree), "t")
        for x in (0.2, 0.9, 1.6):
            try:
                a = evaluate(tree, x)
            except Exception:
                continue
            b = evaluate(reparsed, x)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
    report(11, f"{len(PRECEDENCE_CASES)} precedence fixtures, 100 round trips")


def test_criterion_12_cli_end_to_end(tmp_path, capsys):
    # example 1: scalar Mittag-Leffler value
    assert run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.e, rel=1e-15)

    # example 2: creep-function table
    creep_csv = tmp_path / "creep.csv"
    assert run([
        "creep", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
        "--t-end", "1", "--n", "100", "-o", str(creep_csv),
    ]) == 0
    lines = creep_csv.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 101
    for ln in data:
        t, v = ln.split(",")
        float(t), float(v)

    # example 3: nonlinear solve of the worked problem
    solve_csv = tmp_path / "solve.csv"
    code = run([
        "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
        "--sigma-expr", "1/(1+eps)", "--n", "256", "-o", str(solve_csv),
    ])
    assert code == 0
    body = solve_csv.read_text()
    assert body.startswith("t,value\n")
    assert "# converged=true" in body

    # determinism: byte-identical reruns
    rerun = tmp_path / "solve2.csv"
    assert run([
        "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
        "--sigma-expr", "1/(1+eps)", "--n", "256", "-o", str(rerun),
    ]) == 0
    assert rerun.read_bytes() == solve_csv.read_bytes()

    proc = subprocess.run(
        [sys.executable, "-m", "fracvoigt", "ml", "--alpha", "1", "--beta", "1", "--z", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report(12, "three example invocations, schema-valid CSV, byte-identical reruns")
