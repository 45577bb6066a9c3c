"""One benchmark process: set up a workload, then serve its requests one at
a time (closed loop, one client) for a fixed number of seconds.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [--inproc]
        [--fail-every K] [--tiny]

MODE is ``setup`` (exit once set up), ``measure`` or ``trace``.  The worker
prints ``ready`` when set-up is done, right before the first timed request,
and in the other modes one JSON line with its results at the end.  run.py
starts it with the thread caps and ``PYTHONPATH`` already in the
environment.

Inputs come from the seed alone.  The parameters that set a request's cost
follow a low-discrepancy (Kronecker) sequence with a seeded offset, so any
run, however many requests it reaches, serves nearly the same mix of cheap
and costly requests; the others are drawn at random per request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Largest strain-vs-creep gap measured over alpha in [0.3, 1), t_end/tau in
# [0.5, 60] at n = 1024 was 6.9e-3 of the plateau (the unpeeled product
# rule near alpha = 0.6, t_end/tau = 60); the check allows about 3x that.
# The gap shrinks with t_end/tau, so the workload's lower end 0.25 is covered.
AGREE_TOL = 2e-2
# fixed-point residual allowed after converging to tol = 1e-8
RESIDUAL_MAX = 1e-7


def _kronecker(offsets: list[float], i: int) -> list[float]:
    """Point i of the R_d low-discrepancy sequence in [0, 1)^d, shifted by
    the seeded offsets (Roberts' generalised golden ratio steps)."""
    d = len(offsets)
    g = 2.0
    for _ in range(30):  # g = root of g^(d+1) = g + 1
        g = (1.0 + g) ** (1.0 / (d + 1))
    return [(off + (i + 1) / g ** (k + 1)) % 1.0 for k, off in enumerate(offsets)]


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class Workload:
    """Request stream of one workload.  ``make(i)`` builds request i from
    the seed (outside the timed region), ``serve`` runs it, ``check``
    returns None for a correct result or a message."""

    dims = 1  # parameters drawn from the low-discrepancy sequence
    errors: tuple = ()  # library errors that count as a failed request

    def __init__(self, seed: int, tiny: bool, fail_every: int) -> None:
        self.seed = seed
        self.fail_every = fail_every
        rng = random.Random(f"{type(self).__name__}:{seed}")
        self.offsets = [rng.random() for _ in range(self.dims)]

    def make(self, i: int) -> dict:
        rng = random.Random(f"{type(self).__name__}:{self.seed}:{i}")
        req = self.draw(i, _kronecker(self.offsets, i), rng)
        req["forced"] = bool(self.fail_every) and (i + 1) % self.fail_every == 0
        return req

    def failed(self, out) -> bool:
        """True when a result came back but the solve did not succeed."""
        return False

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class Calibrate(Workload):
    """Model-fitting sweep: fresh (alpha, eta, e_mod) per request, strain
    under a unit step plus the creep table on the same grid.

    A forced request is drawn in the long-time regime,
    (t_end/tau)^alpha in [120, 400], which raises AccuracyError today."""

    dims = 2

    def __init__(self, seed, tiny, fail_every):
        super().__init__(seed, tiny, fail_every)
        import numpy as np

        from fracvoigt import FracvoigtError, fracops, voigt

        self.errors = (FracvoigtError,)
        self.np, self.fracops, self.voigt = np, fracops, voigt
        self.n = 64 if tiny else 1024

    def draw(self, i, u, rng):
        alpha = 0.3 + 0.7 * u[0]
        return {
            "alpha": alpha,
            "ratio": _log_scale(u[1], 0.25, 60.0),
            "eta": _log_scale(rng.random(), 0.5, 5.0),
            "e_mod": _log_scale(rng.random(), 0.5, 5.0),
            "long_ratio": rng.uniform(120.0, 400.0) ** (1.0 / alpha),
        }

    def warm_up(self) -> None:
        self.serve({"alpha": 0.7, "ratio": 2.0, "eta": 1.0, "e_mod": 1.0, "forced": False})

    def serve(self, req):
        v, np = self.voigt, self.np
        params = v.VoigtParams(eta=req["eta"], e_mod=req["e_mod"], alpha=req["alpha"])
        ratio = req["long_ratio"] if req["forced"] else req["ratio"]
        grid = self.fracops.Grid(ratio * params.tau, self.n)
        strain = v.linear_strain(params, self.fracops.Signal(grid, np.ones(self.n + 1)))
        creep = np.array([v.creep_function(params, float(t)) for t in grid.points])
        return params, strain.values, creep

    def check(self, req, out):
        params, strain, creep = out
        np = self.np
        plateau = (params.tau / params.eta) ** params.alpha
        if creep[0] != 0.0 or strain[0] != 0.0:
            return "strain or creep nonzero at t=0"
        if np.any(np.diff(creep) < -1e-12 * plateau):
            return "creep not monotone"
        if creep[-1] > plateau * (1.0 + 1e-12):
            return f"creep {creep[-1]!r} above its plateau {plateau!r}"
        gap = float(np.max(np.abs(strain - creep)))
        if not gap <= AGREE_TOL * plateau:
            return f"strain and creep differ by {gap:.3e} (plateau {plateau:.3e})"
        return None


LAWS = ("{c!r}/(1+eps)", "{c!r}*exp(-eps)", "{c!r}/sqrt(1+eps)")


class LongSolve(Workload):
    """Nonlinear fixed-point solve plus residual on the worked-example
    material (eta=1, E=2, alpha=0.5), as ``fracvoigt solve`` runs them.

    A forced request caps the iterations at 1, so it cannot converge."""

    def __init__(self, seed, tiny, fail_every):
        super().__init__(seed, tiny, fail_every)
        import numpy as np

        from fracvoigt import FracvoigtError, fracops, nonlinear, voigt

        self.errors = (FracvoigtError,)
        self.np, self.nonlinear, self.voigt = np, nonlinear, voigt
        self.params = voigt.VoigtParams(eta=1.0, e_mod=2.0, alpha=0.5)
        self.grid = fracops.Grid(1.0, 128 if tiny else 4096)

    def draw(self, i, u, rng):
        return {"law": LAWS[i % len(LAWS)].format(c=0.5 + 2.0 * u[0])}

    def warm_up(self) -> None:
        self.serve({"law": "1/(1+eps)", "forced": False})  # builds the kernel profile

    def serve(self, req):
        nl = self.nonlinear
        law = nl.ConstitutiveLaw.from_expression(req["law"])
        cfg = self.voigt.SolverConfig(tol=1e-8, max_iter=1 if req["forced"] else 200)
        result = nl.solve_nonlinear(self.params, law, self.grid, cfg)
        return result, nl.residual(self.params, law, result.solution)

    def check(self, req, out):
        result, res = out
        sol = result.solution.values
        if sol[0] != 0.0 or self.np.any(sol < 0.0):
            return "solution negative or nonzero at t=0"
        if result.converged and not res <= RESIDUAL_MAX:
            return f"residual {res:.3e} above {RESIDUAL_MAX:g}"
        return None

    def failed(self, out) -> bool:
        return not out[0].converged


class CliBatch(Workload):
    """Sequential ``python -m fracvoigt`` invocations, each writing with -o.

    The six subcommands take turns in a seeded order; every seventh request
    repeats one of the six before it, and its body must match the first run
    byte for byte.  A forced request is a ``solve`` capped at one iteration
    (exit code 1).  With ``inproc`` the argv goes to ``cli.run`` in this
    process instead, as the traced run needs."""

    kinds = ("ml", "creep", "strain", "picard", "solve", "check")

    def __init__(self, seed, tiny, fail_every, inproc=False):
        super().__init__(seed, tiny, fail_every)
        self.kind_order = random.Random(f"CliBatch:{seed}:order").sample(self.kinds, len(self.kinds))
        self.n = 16 if tiny else 256
        self.inproc = inproc
        self.out_dir = OUT_DIR / f"cli-{os.getpid()}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.bodies: dict[tuple, str] = {}
        self.output_bytes = 0
        self.count = 0
        if inproc:
            from fracvoigt import cli

            self.cli = cli

    def draw(self, i, u, rng):
        if i % 7 == 6:  # repeat one of the six requests before it
            return self.make(i - 1 - rng.randrange(6))
        kind = self.kind_order[(i - i // 7) % len(self.kinds)]
        n = str(self.n)
        model = ["--alpha", repr(rng.uniform(0.4, 1.0)), "--eta", "1", "--e-mod", repr(rng.uniform(0.5, 4.0))]
        law = rng.choice(LAWS).format(c=rng.uniform(0.5, 2.5))
        argv = {
            "ml": lambda: ["ml", "--alpha", repr(rng.uniform(0.3, 1.0)), "--beta",
                           repr(rng.uniform(0.5, 1.5)), "--z", repr(rng.uniform(-30.0, 1.0))],
            "creep": lambda: ["creep", *model, "--t-end", repr(rng.uniform(0.5, 4.0)), "--n", n],
            "strain": lambda: ["strain", *model, "--t-end", repr(rng.uniform(0.5, 4.0)), "--n", n,
                               "--stress-expr", f"{rng.uniform(0.5, 2.0)!r}*sin({rng.uniform(0.5, 3.0)!r}*t)^2"],
            "picard": lambda: ["picard", *model, "--t-end", repr(rng.uniform(0.5, 2.0)), "--n", n,
                               "--stress-builtin", rng.choice(("ramp", "unit-step"))],
            "solve": lambda: ["solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2", "--n", n,
                              "--sigma-expr", law],
            "check": lambda: ["check", "--sigma-expr", law],
        }[kind]()
        return {"kind": kind, "argv": argv}

    def warm_up(self) -> None:
        self.serve({"kind": "ml", "argv": ["ml", "--alpha", "0.5", "--z", "-1"], "forced": False})

    def serve(self, req):
        argv = list(req["argv"])
        if req["forced"]:
            argv = ["solve", "--alpha", "0.5", "--eta", "1", "--e-mod", "2", "--n", str(self.n),
                    "--sigma-expr", "1/(1+eps)", "--max-iter", "1"]
        self.count += 1
        path = self.out_dir / f"r{self.count}.out"
        argv += ["-o", str(path)]
        if self.inproc:
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.run(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "fracvoigt", *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=60,
            ).returncode
        text = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
        self.output_bytes += len(text.encode())
        return code, text

    def failed(self, out) -> bool:
        return out[0] != 0

    def check(self, req, out):
        code, text = out
        if code not in (0, 1):
            return f"exit code {code}"
        lines = text.splitlines()
        kind = req["kind"] if not req["forced"] else "solve"
        if kind == "ml":
            if len(lines) != 1 or not math.isfinite(float(lines[0])):
                return f"ml output {text!r}"
        elif kind == "check":
            if len(lines) != 7 or lines[5] != "verdict: consistent with the existence hypotheses":
                return f"check output {text!r}"
        else:
            body = [ln for ln in lines if not ln.startswith("#")]
            trailer = {ln[2:].split("=")[0]: ln[2:].split("=", 1)[-1] for ln in lines if ln.startswith("# ")}
            if body[:1] != ["t,value"] or len(body) != self.n + 2:
                return f"{kind}: bad header or {len(body) - 1} rows"
            values = [float(ln.split(",")[1]) for ln in body[1:]]
            if not all(math.isfinite(x) for x in values) or values[0] != 0.0:
                return f"{kind}: values not finite or nonzero at t=0"
            if kind in ("picard", "solve"):
                if trailer.get("converged") != ("true" if code == 0 else "false"):
                    return f"{kind}: trailer {trailer} disagrees with exit code {code}"
                if kind == "solve" and code == 0 and not float(trailer["residual"]) <= RESIDUAL_MAX:
                    return f"solve: residual {trailer['residual']}"
            elif trailer:
                return f"{kind}: unexpected trailer {trailer}"
        if code == 0:
            key = tuple(req["argv"])
            body = "\n".join(ln for ln in lines if not ln.startswith("#"))
            digest = hashlib.sha256(body.encode()).hexdigest()
            if self.bodies.setdefault(key, digest) != digest:
                return f"{kind}: body differs from an earlier run of the same argv"
        return None

    def peak_rss_kb(self) -> int:
        if self.inproc:
            return super().peak_rss_kb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {"calibrate": Calibrate, "long-solve": LongSolve, "cli-batch": CliBatch}
TINY_REQUESTS = 4


def serve_for(workload: Workload, seconds: float, max_requests: int | None, tracer=None) -> dict:
    """Closed loop: serve requests one after another until ``seconds`` have
    passed.  A request fails when the library raises one of its errors,
    the solver does not converge, the process exits non-zero, or the check
    fails; only the last makes the run incorrect."""
    latencies: list[float] = []
    ok: list[bool] = []
    wrong: list[str] = []
    forced = 0
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and (max_requests is None or i < max_requests):
        req = workload.make(i)
        forced += req["forced"]
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = workload.serve(req)
            err = None
        except workload.errors as exc:
            out, err = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.request = -1
        try:
            msg = None if out is None else workload.check(req, out)
        except (ValueError, KeyError, IndexError) as exc:
            msg = f"unparsable output: {exc!r}"
        if msg is not None:
            wrong.append(f"request {i}: {msg}")
        ok.append(err is None and msg is None and not workload.failed(out))
        i += 1
    elapsed = time.perf_counter() - start
    return {
        "latencies": latencies,
        "ok": ok,
        "elapsed": elapsed,
        "forced": forced,
        "wrong": wrong,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tiny = "--tiny" in argv
    fail_every = int(argv[argv.index("--fail-every") + 1]) if "--fail-every" in argv else 0
    kwargs = {"inproc": True} if "--inproc" in argv else {}
    with contextlib.ExitStack() as stack:
        tracer = None
        if mode == "trace":
            import spans

            tracer = stack.enter_context(spans.tracing())
        workload = WORKLOADS[name](seed, tiny, fail_every, **kwargs)
        stack.callback(workload.close)
        workload.warm_up()
        print("ready", flush=True)
        if mode == "setup":
            return 0
        run = serve_for(workload, seconds, TINY_REQUESTS if tiny else None, tracer)
        run["peak_rss_kb"] = workload.peak_rss_kb()
        if isinstance(workload, CliBatch):
            run["output_bytes"] = workload.output_bytes
        if tracer is not None:
            run["layers"] = tracer.layer_metrics()
            stamp = {"workload": name, "seed": seed, "seconds": seconds, "requests": len(run["ok"])}
            tracer.write(OUT_DIR / f"spans-{name}", stamp)
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
