"""Command-line frontend.

Subcommands: ml (function values), creep (creep-function curves), strain
(linear response to a stress history), picard (successive-approximation
solve of the linear model), solve (nonlinear fixed-point solve), check
(numerical screening of the nonlinear existence hypotheses).

Curves are written as CSV with header ``t,value``, one row per grid point
at full round-trip precision, followed by ``#``-prefixed trailer comments
carrying solver metadata.  Exit codes: 0 success, 1 solver did not converge
(output is still written, flagged in the trailer), 2 usage error, 3 I/O
error.  Set FRACVOIGT_LOG=debug|info|warning for logging verbosity.

Flag values are checked by the library types they build; run() names the
flag whose field leads a DomainError (``--eta must be positive``).  The CLI
itself checks only the --stress-csv format and the MAX_N and MAX_ITER
caps on --n and --max-iter.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from typing import IO, Iterator, Sequence

import numpy as np

from . import expr
from .errors import AccuracyError, DomainError, EvaluationError
from .expr import ParseError
from .fracops import Grid, Signal
from .nonlinear import ConstitutiveLaw, check_hypotheses, residual, solve_nonlinear
from .special import MLParams, ml_eval
from .voigt import (
    PicardResult,
    SolverConfig,
    VoigtParams,
    creep_function,
    linear_strain,
    picard_linear,
)

logger = logging.getLogger("fracvoigt.cli")

STRESS_BUILTINS = ("zero", "unit-step", "ramp")

# Largest --n: a run holds about 150 bytes per grid point at its peak (113
# traced, 150 of RSS at n = 262144 for creep, strain, picard and solve), so
# the cap bounds one run near 0.6 GB.
MAX_N = 1 << 22
# Largest --max-iter: 250 times the most sweeps any seeded law needs (38),
# so a run that cannot converge stops in seconds, not hours.
MAX_ITER = 10000


class UsageError(Exception):
    """Bad flag combination or value; exits with code 2."""


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1]")
    p.add_argument("--eta", type=float, required=True, help="viscosity coefficient > 0")
    p.add_argument("--e-mod", type=float, required=True, help="elastic modulus > 0")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", type=float, default=None, help="end of the time window (default 1.0)")
    p.add_argument(
        "--n", type=int, default=None, help=f"number of grid intervals, 1 to {MAX_N} (default 256)"
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-8, help="sup-norm stopping tolerance")
    p.add_argument(
        "--max-iter", type=int, default=200, help=f"iteration cap, at most {MAX_ITER}"
    )


def _add_stress_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--stress-expr", help="stress history sigma(t) as an expression in t")
    g.add_argument("--stress-csv", help="stress history sampled as CSV (t,value)")
    g.add_argument(
        "--stress-builtin",
        choices=STRESS_BUILTINS,
        help="named stress history",
    )


_EXPR_HELP = (
    "expression syntax: numbers, one free variable (t for stress histories, "
    "eps for laws), + - * / ^ with ^ right-associative and binding tighter "
    "than unary minus (-2^2 is -4), parentheses, and the functions "
    "exp log sqrt sin cos abs pow; no implicit multiplication. "
    "CSV output: header t,value, one row per grid point at full precision, "
    "then #-prefixed trailer comments with solver metadata. Exit codes: "
    "0 ok, 1 solver did not converge, 2 usage error, 3 i/o error."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvoigt",
        description="Linear and nonlinear fractional Voigt creep models.",
        epilog=_EXPR_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ml = sub.add_parser("ml", help="evaluate the two-parameter Mittag-Leffler function")
    p_ml.add_argument("--alpha", type=float, required=True, help="first parameter, in (0, 2]")
    p_ml.add_argument("--beta", type=float, default=1.0, help="second parameter, > 0 (default 1)")
    p_ml.add_argument("--z", type=float, required=True, help="real argument")
    p_ml.add_argument("-o", "--output", help="write the value to a file instead of stdout")

    p_creep = sub.add_parser("creep", help="tabulate the creep function")
    _add_model_flags(p_creep)
    _add_grid_flags(p_creep)
    p_creep.add_argument("-o", "--output", help="output CSV path (default stdout)")

    p_strain = sub.add_parser("strain", help="strain response to a stress history")
    _add_model_flags(p_strain)
    _add_grid_flags(p_strain)
    _add_stress_flags(p_strain)
    p_strain.add_argument("-o", "--output", help="output CSV path (default stdout)")

    p_pic = sub.add_parser("picard", help="linear solve by successive approximation")
    _add_model_flags(p_pic)
    _add_grid_flags(p_pic)
    _add_solver_flags(p_pic)
    _add_stress_flags(p_pic)
    p_pic.add_argument("-o", "--output", help="output CSV path (default stdout)")

    p_solve = sub.add_parser("solve", help="nonlinear fixed-point solve")
    _add_model_flags(p_solve)
    _add_grid_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--damping", type=float, default=1.0, help="iteration damping in (0, 1]")
    p_solve.add_argument(
        "--sigma-expr", required=True, help="stress-strain law sigma(eps) as an expression in eps"
    )
    p_solve.add_argument("-o", "--output", help="output CSV path (default stdout)")

    p_check = sub.add_parser("check", help="screen a law against the existence hypotheses")
    p_check.add_argument(
        "--sigma-expr", required=True, help="stress-strain law sigma(eps) as an expression in eps"
    )
    p_check.add_argument("-o", "--output", help="write the report to a file instead of stdout")

    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _model_params(args: argparse.Namespace) -> VoigtParams:
    return VoigtParams(eta=args.eta, e_mod=args.e_mod, alpha=args.alpha)


def _grid(args: argparse.Namespace) -> Grid:
    n = 256 if args.n is None else args.n
    _require(n <= MAX_N, f"--n must be at most {MAX_N}, got {n}")
    return Grid(t_end=1.0 if args.t_end is None else args.t_end, n=n)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    max_iter = args.max_iter
    _require(max_iter <= MAX_ITER, f"--max-iter must be at most {MAX_ITER}, got {max_iter}")
    return SolverConfig(tol=args.tol, max_iter=max_iter)


def _read_stress_csv(path: str) -> Signal:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    _require(bool(rows) and rows[0].replace(" ", "") == "t,value",
             f"--stress-csv {path}: expected header 't,value'")
    t_vals, f_vals = [], []
    for ln in rows[1:]:
        parts = ln.split(",")
        _require(len(parts) == 2, f"--stress-csv {path}: malformed row {ln!r}")
        try:
            t_vals.append(float(parts[0]))
            f_vals.append(float(parts[1]))
        except ValueError:
            raise UsageError(f"--stress-csv {path}: non-numeric row {ln!r}") from None
    _require(len(t_vals) >= 2, f"--stress-csv {path}: need at least two rows")
    t, f = np.array(t_vals), np.array(f_vals)
    _require(bool(np.isfinite(t).all() and np.isfinite(f).all()),
             f"--stress-csv {path}: entries must be finite")
    _require(abs(t[0]) == 0.0, f"--stress-csv {path}: grid must start at t=0")
    h = t[-1] / (len(t) - 1)
    uniform = np.allclose(np.diff(t), h, rtol=1e-9, atol=1e-12 * max(1.0, t[-1]))
    _require(
        bool(uniform) and h > 0.0, f"--stress-csv {path}: grid must be uniform and increasing"
    )
    return Signal(Grid(t_end=float(t[-1]), n=len(t) - 1), f)


def _stress_signal(args: argparse.Namespace, grid: Grid | None) -> Signal:
    if args.stress_csv is not None:
        sig = _read_stress_csv(args.stress_csv)
        if args.t_end is not None and not math.isclose(args.t_end, sig.grid.t_end):
            raise UsageError("--t-end conflicts with the grid of --stress-csv")
        if args.n is not None and args.n != sig.grid.n:
            raise UsageError("--n conflicts with the grid of --stress-csv")
        return sig
    assert grid is not None
    if args.stress_expr is not None:
        tree = expr.parse(args.stress_expr, "t")
        return Signal(grid, expr.evaluate(tree, grid.points))
    if args.stress_builtin == "zero":
        return Signal.zeros(grid)
    if args.stress_builtin == "unit-step":
        return Signal(grid, np.ones(grid.n + 1))
    return Signal(grid, grid.points.copy())  # ramp


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The -o file, opened for writing and closed on exit, or stdout."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_csv(out: IO[str], grid: Grid, values: np.ndarray, trailer: list[str]) -> None:
    out.write("t,value\n")
    for t, v in zip(grid.points, values):
        out.write(f"{float(t)!r},{float(v)!r}\n")
    for line in trailer:
        out.write(f"# {line}\n")


def _warn_nonzero_initial_stress(stress: Signal) -> None:
    s0 = float(stress.values[0])
    if s0 != 0.0:
        print(
            f"warning: stress at t=0 is {s0!r}; the creep model assumes a "
            "history starting from rest (zero initial stress)",
            file=sys.stderr,
        )


def _cmd_ml(args: argparse.Namespace) -> int:
    value = ml_eval(MLParams(args.alpha, args.beta), args.z)
    with _output(args.output) as out:
        out.write(f"{value!r}\n")
    return 0


def _cmd_creep(args: argparse.Namespace) -> int:
    params = _model_params(args)
    grid = _grid(args)
    values = creep_function(params, grid.points)
    with _output(args.output) as out:
        _write_csv(out, grid, values, [])
    return 0


def _cmd_strain(args: argparse.Namespace) -> int:
    params = _model_params(args)
    grid = None if args.stress_csv is not None else _grid(args)
    stress = _stress_signal(args, grid)
    _warn_nonzero_initial_stress(stress)
    strain = linear_strain(params, stress)
    with _output(args.output) as out:
        _write_csv(out, strain.grid, strain.values, [])
    return 0


def _write_solution(
    args: argparse.Namespace, result: PicardResult, what: str,
    extra: Sequence[str] = (), notes: Sequence[str] = (),
) -> int:
    """Write a solver result with its trailer; warn and return 1 when the
    iteration did not converge."""
    trailer = [
        f"iterations={result.iterations}",
        f"final_diff={result.final_diff!r}",
        *extra,
        f"converged={'true' if result.converged else 'false'}",
        *notes,
    ]
    with _output(args.output) as out:
        _write_csv(out, result.solution.grid, result.solution.values, trailer)
    if result.converged:
        return 0
    print(
        f"warning: {what} did not converge in {result.iterations} iterations "
        f"(final diff {result.final_diff:.3e})",
        file=sys.stderr,
    )
    return 1


def _cmd_picard(args: argparse.Namespace) -> int:
    params = _model_params(args)
    cfg = _solver_config(args)
    grid = None if args.stress_csv is not None else _grid(args)
    stress = _stress_signal(args, grid)
    _warn_nonzero_initial_stress(stress)
    return _write_solution(args, picard_linear(params, stress, cfg), "picard")


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _model_params(args)
    cfg = _solver_config(args)
    grid = _grid(args)
    law = ConstitutiveLaw.from_expression(args.sigma_expr)
    result = solve_nonlinear(params, law, grid, cfg, damping=args.damping)
    res = residual(params, law, result.solution)
    return _write_solution(
        args, result, "fixed-point iteration",
        extra=[f"residual={res!r}"],
        notes=[
            "note: fixed-point convergence is empirical; existence of a solution "
            "is not certified by this computation"
        ],
    )


def _cmd_check(args: argparse.Namespace) -> int:
    law = ConstitutiveLaw.from_expression(args.sigma_expr)
    report = check_hypotheses(law)
    lines = [
        f"decreasing: {'yes' if report.is_decreasing else 'no'}",
        f"convex: {'yes' if report.is_convex else 'no'}",
        f"sigma(0): {report.sigma_at_zero!r}",
        f"E0 estimate: {report.e0_estimate!r}",
        f"Einf estimate: {report.e_inf_estimate!r}",
        f"verdict: {'consistent with the existence hypotheses' if report.verdict else 'hypotheses not satisfied'}",
        "note: threshold-based numerical probe, not a proof",
    ]
    with _output(args.output) as out:
        out.write("\n".join(lines) + "\n")
    return 0


_DISPATCH = {
    "ml": _cmd_ml,
    "creep": _cmd_creep,
    "strain": _cmd_strain,
    "picard": _cmd_picard,
    "solve": _cmd_solve,
    "check": _cmd_check,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    level = os.environ.get("FRACVOIGT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    logger.info("dispatching %s", args.command)
    try:
        return _DISPATCH[args.command](args)
    except (UsageError, DomainError, ParseError, EvaluationError, AccuracyError) as exc:
        message = str(exc)
        field, _, rest = message.partition(" ")
        if isinstance(exc, DomainError) and field in vars(args):
            message = f"--{field.replace('_', '-')} {rest}"  # a library check of a flag
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

