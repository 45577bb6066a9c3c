"""Command-line interface: dispatch, CSV schema, exit codes, determinism."""

import argparse
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracvoigt import cli
from fracvoigt.cli import run
from fracvoigt.fracops import Grid
from fracvoigt.nonlinear import ConstitutiveLaw
from fracvoigt.voigt import SolverConfig, VoigtParams
from oracles import ml_ref
from test_nonlinear import plain_solve


def read_csv_text(text):
    """Split CSV output into (rows, trailer_comments)."""
    lines = text.strip().splitlines()
    assert lines[0] == "t,value"
    rows, trailer = [], []
    for ln in lines[1:]:
        if ln.startswith("#"):
            trailer.append(ln)
        else:
            t, v = ln.split(",")
            rows.append((float(t), float(v)))
    return rows, trailer


class TestMl:
    def test_prints_e(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.e, rel=1e-15)

    def test_beta_default(self, capsys):
        assert run(["ml", "--alpha", "1", "--z", "-1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1 / math.e, rel=1e-15)

    def test_bad_alpha_exits_2(self, capsys):
        assert run(["ml", "--alpha", "3", "--beta", "1", "--z", "1"]) == 2
        assert "--alpha" in capsys.readouterr().err
        # MLParams and ml_eval reject these; the message names the flag
        for flag, value in [("--alpha", "nan"), ("--beta", "inf"), ("--beta", "nan"),
                            ("--z", "inf"), ("--z", "nan")]:
            args = {"--alpha": "0.5", "--beta": "1", "--z": "1", flag: value}
            assert run(["ml", *(x for kv in args.items() for x in kv)]) == 2
            assert f"error: {flag} must" in capsys.readouterr().err

    def test_alpha_past_one_exits_2(self, capsys):
        assert run(["ml", "--alpha", "1.5", "--z", "1"]) == 2
        assert "error: --alpha must lie in (0, 1], got 1.5" in capsys.readouterr().err

    def test_out_of_domain_z_exits_2(self, capsys):
        assert run(["ml", "--alpha", "0.5", "--z", "-2000000"]) == 2
        assert capsys.readouterr().err == (
            "error: z=-2000000.0 outside the supported domain [-1e+06, 30]\n"
        )

    def test_zero_argument_at_large_beta(self, capsys):
        # 1/Gamma(200) underflows to 0; math.gamma(200) alone would overflow
        assert run(["ml", "--alpha", "0.5", "--beta", "200", "--z", "0"]) == 0
        assert float(capsys.readouterr().out) == 0.0


class TestCreep:
    def test_row_count_and_schema(self, capsys):
        assert run([
            "creep", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--t-end", "1", "--n", "100",
        ]) == 0
        rows, trailer = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 101
        assert trailer == []
        assert rows[0] == (0.0, 0.0)
        vals = [v for _, v in rows]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_output_file(self, tmp_path):
        out = tmp_path / "creep.csv"
        assert run([
            "creep", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--t-end", "1", "--n", "10", "-o", str(out),
        ]) == 0
        rows, _ = read_csv_text(out.read_text())
        assert len(rows) == 11

    def test_unwritable_output_exits_3(self, capsys):
        assert run([
            "creep", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "-o", "/nonexistent-dir/creep.csv",
        ]) == 3

    def test_early_rows_are_relatively_accurate(self, capsys):
        # (t/tau)^a runs from 2.6e-26 to 1e-25 (tau = 1, plateau 1), where
        # 1 - E_a(-x) would be rounding noise
        assert run([
            "creep", "--alpha", "0.999", "--eta", "1", "--e-mod", "1",
            "--t-end", "1e-25", "--n", "4",
        ]) == 0
        rows, _ = read_csv_text(capsys.readouterr().out)
        assert rows[0] == (0.0, 0.0) and len(rows) == 5
        for t, value in rows[1:]:
            x = t**0.999
            ref = x * ml_ref(0.999, 1.999, -x)
            assert abs(value - ref) <= 1e-14 * ref, t

    @pytest.mark.parametrize("eta,e_mod,tau", [("1e300", "1e-300", "inf"), ("1e-300", "1e300", "0.0")])
    def test_retardation_time_out_of_range_exits_2(self, capsys, eta, e_mod, tau):
        assert run(["creep", "--alpha", "0.5", "--eta", eta, "--e-mod", e_mod, "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: retardation time eta / e_mod must be positive and finite, got {tau}\n"
        )


class TestStrain:
    def test_builtin_ramp(self, capsys):
        assert run([
            "strain", "--alpha", "1", "--eta", "1", "--e-mod", "2",
            "--n", "128", "--stress-builtin", "ramp",
        ]) == 0
        rows, _ = read_csv_text(capsys.readouterr().out)
        t = np.array([r[0] for r in rows])
        v = np.array([r[1] for r in rows])
        exact = 0.5 * t - 0.25 * (1 - np.exp(-t / 0.5))
        assert np.max(np.abs(v - exact)) < 5e-4

    @pytest.mark.parametrize("name,src", [("zero", "0"), ("unit-step", "1"), ("ramp", "t")])
    def test_builtin_equals_its_expression(self, capsys, name, src):
        base = [
            "strain", "--alpha", "0.7", "--eta", "1", "--e-mod", "2",
            "--t-end", "3", "--n", "64",
        ]
        assert run(base + ["--stress-builtin", name]) == 0
        builtin = capsys.readouterr()
        assert run(base + ["--stress-expr", src]) == 0
        assert capsys.readouterr() == builtin

    def test_stress_expr(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "32", "--stress-expr", "t^2",
        ]) == 0
        rows, _ = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 33

    def test_nonzero_initial_stress_warns(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "16", "--stress-builtin", "unit-step",
        ]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "t=0" in captured.err

    def test_zero_initial_stress_no_warning(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "16", "--stress-builtin", "ramp",
        ]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_bad_expression_exits_2(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--stress-expr", "2x",
        ]) == 2

    def test_undefined_stress_expr_exits_2(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "16", "--stress-expr", "log(t)",
        ]) == 2
        assert "error: log of nonpositive value in 'log(t)'" in capsys.readouterr().err

    def test_missing_stress_source_exits_2(self, capsys):
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
        ]) == 2

    def test_csv_round_trip_bit_identical(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        assert run([
            "strain", "--alpha", "0.6", "--eta", "1", "--e-mod", "1",
            "--n", "64", "--stress-expr", "sin(t)", "-o", str(first),
        ]) == 0
        # feed the produced strain back in as a stress history
        second = tmp_path / "b.csv"
        assert run([
            "strain", "--alpha", "0.6", "--eta", "1", "--e-mod", "1",
            "--stress-csv", str(first), "-o", str(second),
        ]) == 0
        rows_in, _ = read_csv_text(first.read_text())
        # reread and rewrite the input: parsing then printing must be exact
        reread = tmp_path / "c.csv"
        with open(reread, "w") as fh:
            fh.write("t,value\n")
            for t, v in rows_in:
                fh.write(f"{t!r},{v!r}\n")
        assert reread.read_text() == first.read_text()

    def test_csv_grid_conflict_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n0.0,0.0\n0.5,1.0\n1.0,2.0\n")
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--stress-csv", str(path), "--n", "64",
        ]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # no numpy warning on the way
    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,stress\n0,0\n")
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--stress-csv", str(path),
        ]) == 2
        for body in ["0,0\ninf,1\n", "0,0\nnan,1\n", "0,0\n1,inf\n", "0,nan\n1,1\n",
                     "0,0\n-1,1\n", "0,0\n0,1\n"]:
            path.write_text("t,value\n" + body)
            capsys.readouterr()
            assert run([
                "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
                "--stress-csv", str(path),
            ]) == 2
            assert capsys.readouterr().err.startswith(f"error: --stress-csv {path}: ")


class TestFlagValidation:
    BASE = ["--alpha", "0.5", "--eta", "1", "--e-mod", "2"]

    @pytest.mark.parametrize(
        "override,flag",
        [
            (["--alpha", "1.5"], "--alpha"),
            (["--alpha", "0"], "--alpha"),
            (["--eta", "-1"], "--eta"),
            (["--e-mod", "0"], "--e-mod"),
            (["--t-end", "-2"], "--t-end"),
            (["--n", "0"], "--n"),
            (["--eta", "inf"], "--eta"),
            (["--eta", "nan"], "--eta"),
            (["--e-mod", "inf"], "--e-mod"),
            (["--e-mod", "nan"], "--e-mod"),
            (["--t-end", "inf"], "--t-end"),
            (["--t-end", "nan"], "--t-end"),
            (["--alpha", "nan"], "--alpha"),
        ],
    )
    def test_creep_flag_errors_name_the_flag(self, capsys, override, flag):
        args = ["creep"] + self.BASE
        if override[0] in args:
            i = args.index(override[0])
            args[i : i + 2] = override
        else:
            args += override
        assert run(args) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,flag",
        [
            (["--tol", "0"], "--tol"),
            (["--max-iter", "0"], "--max-iter"),
            (["--tol", "inf"], "--tol"),
            (["--tol", "nan"], "--tol"),
        ],
    )
    def test_solver_flag_errors(self, capsys, override, flag):
        args = ["picard"] + self.BASE + ["--stress-builtin", "ramp"] + override
        assert run(args) == 2
        assert flag in capsys.readouterr().err

    def test_grid_size_cap(self, monkeypatch, capsys):
        # Grid builds its points lazily, so a capped-size grid costs nothing
        args = argparse.Namespace(t_end=None, n=cli.MAX_N)
        assert cli._grid(args).n == cli.MAX_N
        assert "points" not in vars(cli._grid(args))
        args.n = 100_000_000_000
        with pytest.raises(cli.UsageError, match="^--n must be at most"):
            cli._grid(args)
        # end to end against a small cap: exit 2, naming --n
        monkeypatch.setattr(cli, "MAX_N", 8)
        assert run(["creep"] + self.BASE + ["--n", "9"]) == 2
        assert capsys.readouterr().err == "error: --n must be at most 8, got 9\n"
        assert run(["creep"] + self.BASE + ["--n", "8"]) == 0

    def test_iteration_cap(self, monkeypatch, capsys):
        # only the check runs: no solve at a large --max-iter
        args = argparse.Namespace(tol=1e-8, max_iter=cli.MAX_ITER)
        assert cli._solver_config(args).max_iter == cli.MAX_ITER
        args.max_iter = 1_000_000_000
        with pytest.raises(cli.UsageError, match="^--max-iter must be at most 10000, got"):
            cli._solver_config(args)
        # end to end against a small cap, for both solvers: exit 2, naming --max-iter
        monkeypatch.setattr(cli, "MAX_ITER", 2)
        picard = ["picard"] + self.BASE + ["--stress-builtin", "ramp", "--n", "16"]
        solve = ["solve"] + self.BASE + ["--sigma-expr", "1/(1+eps)", "--n", "16"]
        for cmd in (picard, solve):
            assert run(cmd + ["--max-iter", "3"]) == 2
            assert capsys.readouterr().err == "error: --max-iter must be at most 2, got 3\n"
            assert run(cmd + ["--max-iter", "2"]) in (0, 1)
            capsys.readouterr()

    def test_non_numeric_flag_exits_2(self, capsys):
        assert run(["creep", "--alpha", "abc", "--eta", "1", "--e-mod", "2"]) == 2


class TestPicard:
    def test_from_csv_stress(self, tmp_path, capsys):
        src = tmp_path / "stress.csv"
        assert run([
            "creep", "--alpha", "0.5", "--eta", "1", "--e-mod", "1",
            "--n", "32", "-o", str(src),
        ]) == 0
        assert run([
            "picard", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--stress-csv", str(src),
        ]) == 0
        rows, trailer = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 33
        assert any("converged=true" in ln for ln in trailer)

    def test_trailer_metadata(self, capsys):
        assert run([
            "picard", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "64", "--stress-builtin", "ramp",
        ]) == 0
        rows, trailer = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 65
        joined = "\n".join(trailer)
        assert "iterations=" in joined
        assert "final_diff=" in joined
        assert "converged=true" in joined

    def test_nonconvergence_exit_1_with_output(self, capsys):
        code = run([
            "picard", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "64", "--stress-builtin", "ramp",
            "--tol", "1e-15", "--max-iter", "2",
        ])
        assert code == 1
        rows, trailer = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 65  # output still written
        assert any("converged=false" in ln for ln in trailer)

    def test_stop_scales_with_the_solution(self, capsys):
        # a strain near 1e307: an absolute stop would need the iterates to
        # agree to ~1e-315 relative and would run to the cap
        bodies = []
        for stress in ("1e307*t", "t"):
            assert run([
                "picard", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
                "--n", "16", "--stress-expr", stress,
            ]) == 0
            rows, trailer = read_csv_text(capsys.readouterr().out)
            assert "# converged=true" in trailer
            bodies.append(np.array([v for _, v in rows]))
        big, unit = bodies
        assert np.max(np.abs(big / 1e307 - unit)) <= 1e-8 * np.max(unit)


class TestSolve:
    def test_worked_example(self, capsys):
        assert run([
            "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--sigma-expr", "1/(1+eps)", "--n", "256",
        ]) == 0
        rows, trailer = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 257
        vals = np.array([v for _, v in rows])
        assert np.all(vals >= 0.0)
        assert np.max(vals) <= 1.0 / math.gamma(1.5) + 1e-6
        joined = "\n".join(trailer)
        assert "converged=true" in joined
        assert "residual=" in joined

    def test_mixing_keeps_the_strain_nonnegative(self, capsys):
        # the law meets the existence hypotheses, with a singularity just
        # below eps = 0; mixing past it would settle on a negative fixed
        # point of the continued law
        assert run([
            "solve", "--alpha", "0.5", "--eta", "0.5", "--e-mod", "1", "--t-end", "0.5",
            "--n", "1024", "--sigma-expr", "1/(0.01+eps)",
        ]) == 0
        rows, trailer = read_csv_text(capsys.readouterr().out)
        vals = np.array([v for _, v in rows])
        assert "# converged=true" in trailer
        assert np.all(vals >= 0.0)
        ref = plain_solve(
            VoigtParams(0.5, 1.0, 0.5), ConstitutiveLaw.from_expression("1/(0.01+eps)"),
            Grid(0.5, 1024), SolverConfig(tol=1e-12, max_iter=200),
        )
        assert ref.converged
        assert np.max(np.abs(vals - ref.solution.values)) <= 1e-8

    def test_law_undefined_at_zero_exits_2(self, capsys):
        assert run([
            "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2", "--n", "16",
            "--sigma-expr", "log(eps-1)",
        ]) == 2
        assert capsys.readouterr() == (
            "", "error: constitutive law (expression:log(eps-1)) undefined at eps=0.0: "
            "log of nonpositive value in 'log(eps-1.0)'\n",
        )

    def test_damping_flag(self, capsys):
        assert run([
            "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--sigma-expr", "1/(1+eps)", "--n", "32", "--damping", "0.7",
        ]) == 0

    def test_bad_damping_exits_2(self, capsys):
        assert run([
            "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--sigma-expr", "1/(1+eps)", "--damping", "1.5",
        ]) == 2
        assert "--damping" in capsys.readouterr().err


class TestCheck:
    def test_worked_example_report(self, capsys):
        assert run(["check", "--sigma-expr", "1/(1+eps)"]) == 0
        out = capsys.readouterr().out
        assert "decreasing: yes" in out
        assert "convex: yes" in out
        assert "consistent with the existence hypotheses" in out
        assert "not a proof" in out

    def test_identity_law_fails_hypotheses(self, capsys):
        assert run(["check", "--sigma-expr", "eps"]) == 0
        out = capsys.readouterr().out
        assert "decreasing: no" in out
        assert "hypotheses not satisfied" in out

    def test_literal_past_float_range_exits_2(self, capsys):
        assert run(["check", "--sigma-expr", "1e999"]) == 2
        assert capsys.readouterr().err == (
            "error: number '1e999' is too large for a float (at offset 0)\n"
        )


MODEL = ["--alpha", "0.5", "--eta", "1", "--e-mod", "2"]


class TestOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["ml", "--alpha", "0.5", "--z", "-1"],
            ["creep", *MODEL, "--n", "16"],
            ["strain", *MODEL, "--n", "16", "--stress-builtin", "unit-step"],
            ["picard", *MODEL, "--n", "16", "--stress-builtin", "ramp"],
            ["solve", *MODEL, "--n", "16", "--sigma-expr", "1/(1+eps)"],
            ["check", "--sigma-expr", "1/(1+eps)"],
        ],
        ids=lambda args: args[0],
    )
    def test_file_gets_the_stdout_bytes(self, tmp_path, capsys, args):
        assert run(args) == 0
        stdout = capsys.readouterr()
        out = tmp_path / "out"
        assert run(args + ["-o", str(out)]) == 0
        assert out.read_bytes() == stdout.out.encode()
        assert capsys.readouterr() == ("", stdout.err)

    def test_unwritable_output_drops_the_convergence_warning(self, capsys):
        assert run([
            "solve", *MODEL, "--n", "16", "--sigma-expr", "1/(1+eps)", "--max-iter", "1",
            "-o", "/nonexistent-dir/solve.csv",
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "args,message",
        [
            # a ramp to 1e308 over t_end/tau = 100: the strain's scaled
            # direct sums peak at 2^1026.3, a genuine overflow
            (["strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "0.01", "--t-end", "1e4",
              "--n", "64", "--stress-expr", "1e308*(t/1e4)"],
             "strain overflows float64"),
            # (t_end / tau)^0.5 = 1e150: the model-range rule reports first
            (["picard", "--alpha", "0.5", "--eta", "1e-300", "--e-mod", "1", "--n", "16",
              "--stress-expr", "1e300*t"],
             "t / tau = 1e+300 is past 10^12, its largest supported value at alpha = 0.5 "
             "(tau = eta / e_mod)"),
            # in range, but each sweep multiplies the iterate by about (h / tau)^0.5 = 122
            (["picard", *MODEL, "--t-end", "30000", "--n", "4", "--stress-builtin", "ramp"],
             "picard iterates overflow float64"),
        ],
        ids=["strain-fft-overflow", "picard-divide-overflow", "picard-iterates-overflow"],
    )
    def test_overflow_reports_only_the_error(self, capsys, args, message):
        # numpy warns on the way; the operator that overflowed reports
        assert run(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestModelRange:
    @pytest.mark.parametrize(
        "args",
        [
            ["creep"],
            ["strain", "--stress-builtin", "ramp"],
            ["picard", "--stress-builtin", "ramp"],
            ["solve", "--sigma-expr", "1/(1+eps)"],
        ],
        ids=lambda args: args[0],
    )
    def test_out_of_range_model_gets_one_message(self, capsys, args):
        # tau = 1e-310 is positive and finite, but t / tau overflows; the
        # message leads with t / tau, not a flag, since --t-end, --eta,
        # --e-mod or the --stress-csv grid can each bring it into range
        flags = ["--alpha", "0.5", "--eta", "1e-160", "--e-mod", "1e150", "--n", "4"]
        assert run([args[0], *flags, *args[1:]]) == 2
        assert capsys.readouterr() == ("", (
            "error: t / tau = inf is past 10^12, its largest supported value at alpha = 0.5 "
            "(tau = eta / e_mod)\n"
        ))

    @pytest.mark.parametrize(
        "args",
        [["creep"], ["strain", "--stress-builtin", "unit-step"], ["solve", "--sigma-expr", "1/(1+eps)"]],
        ids=lambda args: args[0],
    )
    def test_long_time_window_runs(self, capsys, args):
        # (t_end / tau)^0.5 = 245: z reaches -245 in the long-time range
        assert run([args[0], *MODEL, "--t-end", "30000", "--n", "4", *args[1:]]) == 0
        rows, _ = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 5 and rows[-1][0] == 30000.0


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--sigma-expr", "1/(1+eps)", "--n", "64",
        ]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_creep_body_identical_in_fresh_process(self, tmp_path):
        # t/tau reaches 60, so the table runs the contour rule out to
        # z = -60^0.7; a fresh interpreter starts with an empty node cache
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "creep", "--alpha", "0.7", "--eta", "1", "--e-mod", "2",
            "--t-end", "30", "--n", "300",
        ]
        assert run(args + ["-o", str(a)]) == 0
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-m", "fracvoigt", *args, "-o", str(b)],
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize(
        "args",
        [
            ["strain", "--alpha", "0.6", "--eta", "1", "--e-mod", "2", "--n", "300",
             "--stress-expr", "sin(3*t)^2"],
            ["picard", "--alpha", "0.6", "--eta", "1", "--e-mod", "2", "--n", "300",
             "--stress-builtin", "ramp"],
            ["solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2", "--n", "300",
             "--sigma-expr", "1/(1+eps)"],
        ],
    )
    def test_fft_bodies_identical_in_fresh_process(self, tmp_path, args):
        # the second in-process run reuses the cached weight spectrum; the
        # fresh interpreter builds it again
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-m", "fracvoigt", *args, "-o", str(c)],
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestLogging:
    def test_log_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("FRACVOIGT_LOG", "debug")
        assert run(["ml", "--alpha", "1", "--z", "0"]) == 0
        assert float(capsys.readouterr().out) == 1.0


class TestTrailerCommentsInStressCsv:
    def test_solver_output_feeds_back_as_stress(self, tmp_path, capsys):
        # picard output carries trailer comments; they must be ignored on read
        src = tmp_path / "picard.csv"
        assert run([
            "picard", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--n", "32", "--stress-builtin", "ramp", "-o", str(src),
        ]) == 0
        assert run([
            "strain", "--alpha", "0.5", "--eta", "1", "--e-mod", "2",
            "--stress-csv", str(src),
        ]) == 0
        rows, _ = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 33


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracvoigt", "ml", "--alpha", "1", "--beta", "1", "--z", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == 1.0

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracvoigt", "ml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, code", [(["ml", "--alpha", "1", "--z", "0"], 0), (["ml"], 2)])
    def test_main_returns_the_exit_code_and_freezes_the_heap(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["fracvoigt", *argv])
        try:
            assert cli.main() == code
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()  # later tests collect as usual
        capsys.readouterr()
