"""Command-line frontend.

Subcommands: ml (function values), creep (creep-function curves), strain
(linear response to a stress history), picard (successive-approximation
solve of the linear model), solve (nonlinear fixed-point solve), check
(numerical screening of the nonlinear existence hypotheses).

One table, _COMMANDS, states each subcommand once: its help line, its flag
groups in help order, the help of its -o flag and its handler.  A handler
returns its output lines (CSV rows from a generator, never held as text)
and a non-convergence warning or None.  run() alone writes: it opens -o,
only once the computation succeeded, or takes stdout, writes the lines and
then prints the warning.

The CSV format and the exit codes are those of the help's epilog
(_EXPR_HELP); exit code 1 comes exactly with a printed non-convergence
warning, and the output is still written, flagged in the trailer.  Set
FRACVOIGT_LOG=debug|info|warning for logging verbosity.

Flag values are checked by the library types they build; run() names the
flag whose field leads a DomainError (``--eta must be positive``).  The
model-range error leads with ``t / tau``, no flag: --t-end, --eta, --e-mod
or a --stress-csv grid can each bring it into range.  The CLI itself
checks only the --stress-csv format and the MAX_N and MAX_ITER caps on
--n and --max-iter.  numpy's floating-point warnings are off while a
subcommand runs: the library's finiteness checks report instead.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import expr
from .errors import DomainError, FracvoigtError
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

# named stress histories, each an expression in t
STRESS_BUILTINS = {"zero": "0", "unit-step": "1", "ramp": "t"}

# Largest --n: it bounds the peak memory of one run near 0.6 GB.
MAX_N = 1 << 22
# Largest --max-iter: far above the sweeps a converging law needs, so a run
# that cannot converge stops in seconds, not hours.
MAX_ITER = 10000


class UsageError(Exception):
    """Bad flag combination or value; exits with code 2."""


def _add_ml_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True, help="first parameter, in (0, 1]")
    p.add_argument("--beta", type=float, default=1.0, help="second parameter, > 0 (default 1)")
    p.add_argument("--z", type=float, required=True, help="real argument")


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
    p.add_argument(
        "--tol", type=float, default=SolverConfig.tol, help="tolerance relative to max(1, sup|image|)"
    )
    p.add_argument(
        "--max-iter", type=int, default=SolverConfig.max_iter,
        help=f"iteration cap, at most {MAX_ITER}",
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


def _add_damping_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--damping", type=float, default=1.0, help="iteration damping in (0, 1]")


def _add_law_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sigma-expr", required=True, help="stress-strain law sigma(eps) as an expression in eps"
    )


_EXPR_HELP = (
    "expression syntax: numbers, one free variable (t for stress histories, "
    "eps for laws), + - * / ^ with ^ right-associative and binding tighter "
    "than unary minus (-2^2 is -4), parentheses, and the functions "
    f"{' '.join(expr.FUNCTIONS)}; no implicit multiplication. "
    "CSV output: header t,value, one row per grid point at full precision, "
    "then #-prefixed trailer comments with solver metadata. Exit codes: "
    "0 ok, 1 solver did not converge, 2 usage error, 3 i/o error."
)


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


def _stress_signal(args: argparse.Namespace) -> Signal:
    """The stress history of --stress-csv, or of --stress-expr or
    --stress-builtin on the --t-end/--n grid; warns on stderr when it does
    not start from zero."""
    if args.stress_csv is not None:
        stress = _read_stress_csv(args.stress_csv)
        if args.t_end is not None and not math.isclose(args.t_end, stress.grid.t_end):
            raise UsageError("--t-end conflicts with the grid of --stress-csv")
        if args.n is not None and args.n != stress.grid.n:
            raise UsageError("--n conflicts with the grid of --stress-csv")
    else:
        grid = _grid(args)
        src = args.stress_expr
        if src is None:
            src = STRESS_BUILTINS[args.stress_builtin]
        stress = Signal(grid, expr.evaluate(expr.parse(src, "t"), grid.points))
    s0 = float(stress.values[0])
    if s0 != 0.0:
        print(
            f"warning: stress at t=0 is {s0!r}; the creep model assumes a "
            "history starting from rest (zero initial stress)",
            file=sys.stderr,
        )
    return stress


# What a handler returns: its output lines and a non-convergence warning or None.
_Output = tuple[Iterable[str], "str | None"]


def _csv_lines(grid: Grid, values: np.ndarray, trailer: Sequence[str] = ()) -> Iterator[str]:
    yield "t,value\n"
    for t, v in zip(grid.points, values):
        yield f"{float(t)!r},{float(v)!r}\n"
    for line in trailer:
        yield f"# {line}\n"


def _cmd_ml(args: argparse.Namespace) -> _Output:
    return [f"{ml_eval(MLParams(args.alpha, args.beta), args.z)!r}\n"], None


def _cmd_creep(args: argparse.Namespace) -> _Output:
    params = _model_params(args)
    grid = _grid(args)
    return _csv_lines(grid, creep_function(params, grid.points)), None


def _cmd_strain(args: argparse.Namespace) -> _Output:
    strain = linear_strain(_model_params(args), _stress_signal(args))
    return _csv_lines(strain.grid, strain.values), None


def _solution(
    result: PicardResult, what: str, extra: Sequence[str] = (), notes: Sequence[str] = ()
) -> _Output:
    """A solver result with its trailer, and the warning when the iteration
    did not converge."""
    trailer = [
        f"iterations={result.iterations}",
        f"final_diff={result.final_diff!r}",
        *extra,
        f"converged={'true' if result.converged else 'false'}",
        *notes,
    ]
    warning = None if result.converged else (
        f"{what} did not converge in {result.iterations} iterations "
        f"(final diff {result.final_diff:.3e})"
    )
    return _csv_lines(result.solution.grid, result.solution.values, trailer), warning


def _cmd_picard(args: argparse.Namespace) -> _Output:
    params = _model_params(args)
    cfg = _solver_config(args)
    return _solution(picard_linear(params, _stress_signal(args), cfg), "picard")


def _cmd_solve(args: argparse.Namespace) -> _Output:
    params = _model_params(args)
    cfg = _solver_config(args)
    grid = _grid(args)
    law = ConstitutiveLaw.from_expression(args.sigma_expr)
    result = solve_nonlinear(params, law, grid, cfg, damping=args.damping)
    res = residual(params, law, result.solution)
    return _solution(
        result, "fixed-point iteration",
        extra=[f"residual={res!r}"],
        notes=[
            "note: fixed-point convergence is empirical; existence of a solution "
            "is not certified by this computation"
        ],
    )


def _cmd_check(args: argparse.Namespace) -> _Output:
    law = ConstitutiveLaw.from_expression(args.sigma_expr)
    report = check_hypotheses(law)
    lines = [
        f"decreasing: {'yes' if report.is_decreasing else 'no'}",
        f"convex: {'yes' if report.is_convex else 'no'}",
        f"sigma(0): {report.sigma_at_zero!r}",
        f"E0 estimate: {report.e0_estimate!r}",
        f"Einf estimate: {report.e_inf_estimate!r}",
        f"verdict: {'consistent with the existence hypotheses' if report.verdict else 'hypotheses not satisfied'}",
        "note: numerical probe on sampled strains, not a proof",
    ]
    return [f"{line}\n" for line in lines], None


_CSV_OUTPUT = "output CSV path (default stdout)"
_MODEL_GRID = (_add_model_flags, _add_grid_flags)

# subcommand -> (help line, flag groups in help order, help of -o, handler)
_COMMANDS = {
    "ml": ("evaluate the two-parameter Mittag-Leffler function", (_add_ml_flags,),
           "write the value to a file instead of stdout", _cmd_ml),
    "creep": ("tabulate the creep function", _MODEL_GRID, _CSV_OUTPUT, _cmd_creep),
    "strain": ("strain response to a stress history", (*_MODEL_GRID, _add_stress_flags),
               _CSV_OUTPUT, _cmd_strain),
    "picard": ("linear solve by successive approximation",
               (*_MODEL_GRID, _add_solver_flags, _add_stress_flags), _CSV_OUTPUT, _cmd_picard),
    "solve": ("nonlinear fixed-point solve",
              (*_MODEL_GRID, _add_solver_flags, _add_damping_flag, _add_law_flag),
              _CSV_OUTPUT, _cmd_solve),
    "check": ("screen a law against the existence hypotheses", (_add_law_flag,),
              "write the report to a file instead of stdout", _cmd_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvoigt",
        description="Linear and nonlinear fractional Voigt creep models.",
        epilog=_EXPR_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flag_groups, output_help, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for add_flags in flag_groups:
            add_flags(p)
        p.add_argument("-o", "--output", help=output_help)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the subcommand, write its output to -o or stdout,
    and return the process exit code."""
    level = os.environ.get("FRACVOIGT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    logger.info("dispatching %s", args.command)
    _, _, _, handler = _COMMANDS[args.command]
    try:
        with np.errstate(all="ignore"):  # covers the writes: CSV rows are made as written
            lines, warning = handler(args)
            if args.output is None:
                sys.stdout.writelines(lines)
            else:
                with open(args.output, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(lines)
    except (UsageError, FracvoigtError) as exc:
        message = str(exc)
        field, _, rest = message.partition(" ")
        if isinstance(exc, DomainError) and field in vars(args):
            message = f"--{field.replace('_', '-')} {rest}"  # a library check of a flag
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if warning is None:
        return 0
    print(f"warning: {warning}", file=sys.stderr)
    return 1


def main() -> int:
    """Entry point of the fracvoigt command and of python -m fracvoigt:
    run() on the process's argv.  The process exits next, so main() then
    freezes the collector's heap: the collections that interpreter
    shutdown makes would each walk every object the imports left, and a
    frozen object is never walked again."""
    code = run()
    gc.freeze()
    return code
