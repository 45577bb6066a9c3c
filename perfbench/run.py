"""fracvoigt benchmark: one command, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload calibrate|long-solve|cli-batch
        --seed N --seconds S --trace 0|1 [--fail-every K] [--tiny]

Run from the root of a checkout; the library is imported from ``src/``.
Every measured process is a fresh interpreter (perfbench/worker.py) with
BLAS/OpenMP pools capped at one thread.  One client sends one request at a
time (closed loop).

``--trace 0`` runs the workload for S seconds and prints the end-to-end
metrics.  ``setup_s`` is the median over several fresh processes of the
time from process start to the first timed request.  ``--trace 1`` runs it
untraced and traced for S/2 seconds each, in separate processes on the same
requests, and prints the per-layer metrics (per request) from the spans,
plus interpreter and import probes.

A holdout check is the same command with another ``--seed``.
``--fail-every K`` makes every K-th request a hard case: a long-time draw on calibrate, which raises
AccuracyError today, and a solve capped at one iteration elsewhere.
``--tiny`` runs four requests on small grids (the self-check uses it).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits 1 if a check
failed and 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("calibrate", "long-solve", "cli-batch")
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
SPEC_FILE = ROOT / "BENCHMARK.json"  # metric names and units
SETUP_REPEATS = 3  # fresh processes whose set-up time is sampled per run
PROBE_REPEATS = 3


class BenchError(Exception):
    """A worker crashed or timed out; the run prints no result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACVOIGT_")}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, seed: int, seconds: float, mode: str, env, inproc=False):
    """Start a worker and wait for its ``ready`` line.  Returns the process
    and its set-up time: process start to the first timed request."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(seed), repr(seconds), mode]
    if inproc:
        cmd.append("--inproc")
    if args.fail_every:
        cmd += ["--fail-every", str(args.fail_every)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {mode} did not get ready (exit {proc.returncode})")
    return proc, setup


def wait_worker(proc, timeout: float) -> str:
    """Wait for a started worker; kill it if it overruns.  Returns stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_worker(args, seed, seconds, mode, env, inproc=False):
    proc, setup = start_worker(args, seed, seconds, mode, env, inproc)
    run = json.loads(wait_worker(proc, seconds + 60).strip().splitlines()[-1])
    run["setup_s"] = setup
    return run


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def counts(run: dict) -> dict:
    n = len(run["ok"])
    failed = n - sum(run["ok"])
    return {
        "run": run,
        "attempted": n,
        "failed": failed,
        "failed_ratio": failed / n,
        "forced_share": run["forced"] / n,
    }


def end_to_end(run: dict, setups: list[float]) -> dict:
    c = counts(run)
    n, failed = c["attempted"], c["failed"]
    # a failed request sorts as +inf: it misses any latency limit
    lat = [t if ok else math.inf for t, ok in zip(run["latencies"], run["ok"])]
    return {
        **c,
        "metrics": {
            "latency_p50_s": nearest_rank(lat, 0.5),
            "latency_p90_s": nearest_rank(lat, 0.9),
            "throughput_rps": (n - failed) / run["elapsed"],
            "success_ratio": 1.0 - failed / n,
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        },
        "samples_beyond_p90": n - math.ceil(0.9 * n),
    }


def measure(args, seed: int, env) -> dict:
    setups = []
    for _ in range((2 if args.tiny else SETUP_REPEATS) - 1):
        proc, s = start_worker(args, seed, args.seconds, "setup", env)
        wait_worker(proc, 60)
        setups.append(s)
    run = run_worker(args, seed, args.seconds, "measure", env)
    return end_to_end(run, setups + [run["setup_s"]])


def timed_process(cmd, env) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"{cmd} exited with {done.returncode}")
    return elapsed, done.stderr


def import_probes(env) -> dict[str, float]:
    """Interpreter start, ``import fracvoigt`` beyond it, and scipy's share
    of that import from ``-X importtime`` (sum of scipy modules' self time)."""
    py = sys.executable
    bare = statistics.median(timed_process([py, "-c", "pass"], env)[0] for _ in range(PROBE_REPEATS))
    full = statistics.median(
        timed_process([py, "-c", "import fracvoigt"], env)[0] for _ in range(PROBE_REPEATS)
    )
    scipy_us = []
    for _ in range(PROBE_REPEATS):
        _, log = timed_process([py, "-X", "importtime", "-c", "import fracvoigt"], env)
        rows = re.findall(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", log)
        scipy_us.append(sum(int(us) for us, mod in rows if mod.split(".")[0] == "scipy"))
    return {
        "cli.interpreter_s": bare,
        "cli.import_s": full - bare,
        "cli.import.scipy_s": statistics.median(scipy_us) / 1e6,
    }


def trace_run(args, seed: int, env) -> dict:
    half = args.seconds / 2
    inproc = args.workload == "cli-batch"
    base = run_worker(args, seed, half, "measure", env, inproc=inproc)
    traced = run_worker(args, seed, half, "trace", env, inproc=inproc)
    n = len(traced["ok"])
    layers = dict(traced["layers"])
    layers.update(import_probes(env))
    layers["cli.output_bytes"] = traced.get("output_bytes", 0) / n
    base_rps = len(base["ok"]) / base["elapsed"]
    traced_rps = n / traced["elapsed"]
    layers["trace.overhead_ratio"] = base_rps / traced_rps
    traced["wrong"] = base["wrong"] + traced["wrong"]
    return {**counts(traced), "metrics": layers}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark's checkout is usually not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def stamp(args, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "commit": git_commit(),
        "clients": 1,
        "loop": "closed",
    }


def report(result: dict, info: dict, spec: list[dict]) -> dict:
    """Print the human-readable lines and the stamp; return the JSON with
    the metrics ``spec`` names, in its order and with its units."""
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"{info['workload']} seed={info['seed']} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{info['workload']} seed={info['seed']} attempted = {result['attempted']}, "
        f"failed = {result['failed']}, failed_ratio = {result['failed_ratio']:.4g}, "
        f"forced_share = {result['forced_share']:.4g}"
    )
    for msg in result["run"]["wrong"]:
        print(f"CHECK FAILED: {info['workload']} seed={info['seed']} {msg}", file=sys.stderr)
    keys = ("attempted", "failed", "failed_ratio", "forced_share", "samples_beyond_p90")
    info = dict(info, **{k: result[k] for k in keys if k in result})
    print("stamp " + json.dumps(info, sort_keys=True))
    return {
        "correct": not result["run"]["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fail-every", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.fail_every < 0:
        ap.error("--seconds must be positive and --fail-every nonnegative")
    if not (SRC / "fracvoigt" / "__init__.py").is_file():
        print(f"error: no fracvoigt package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so the first run does not pay for it in set-up time
    compileall.compile_dir(str(SRC), quiet=1)
    env = child_env()
    try:
        result = (trace_run if args.trace else measure)(args, args.seed, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    out = report(result, stamp(args, args.seed), spec)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
