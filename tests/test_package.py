"""Package surface and concurrency guarantees."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fracvoigt
from fracvoigt import Grid, MLParams, Signal, VoigtParams, linear_strain, ml_eval


def test_all_exports_resolve():
    for name in fracvoigt.__all__:
        assert getattr(fracvoigt, name) is not None


def test_special_exports_only_the_function():
    # the complete-monotonicity probe and the one-parameter forms serve the
    # tests alone (tests/oracles.py)
    assert fracvoigt.special.__all__ == ["MLParams", "ml_eval"]
    assert set(fracvoigt.special.__all__) <= set(fracvoigt.__all__)
    for name in ("ml_deriv_sign_probe", "ml_one", "creep_function_alt"):
        assert not hasattr(fracvoigt, name)


def test_parse_error_is_a_library_error():
    assert issubclass(fracvoigt.ParseError, fracvoigt.FracvoigtError)
    assert issubclass(fracvoigt.ParseError, ValueError)


def test_import_does_not_load_scipy():
    # the runtime needs only numpy; a fresh interpreter shows what the
    # import itself pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, fracvoigt; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_concurrent_ml_eval_consistent():
    p = MLParams(0.6, 0.9)
    zs = [float(z) for z in np.linspace(-60.0, 2.0, 200)]
    serial = [ml_eval(p, z) for z in zs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda z: ml_eval(p, z), zs))
    assert parallel == serial


def test_concurrent_strain_solves_consistent():
    params = VoigtParams(1.0, 2.0, 0.5)
    g = Grid(1.0, 128)

    def solve(seed: int):
        rng = np.random.default_rng(seed)
        stress = Signal(g, rng.standard_normal(129))
        return linear_strain(params, stress).values

    serial = [solve(k) for k in range(8)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(solve, range(8)))
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a, b)
