"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload for four requests on small grids, untraced and traced,
with every third request forced to fail (so one of the four), and checks
that:

- each run prints every metric BENCHMARK.json names for its mode, with
  its unit, and a stamp with the versions, thread caps, commit and seed;
- ``failed`` counts the forced request and ``success_ratio`` and the
  printed ``failed_ratio`` agree with ``failed / attempted``;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.

Prints each problem found and exits 1 if there is any.  Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAMP_KEYS = {"python", "numpy", "scipy", "nproc", "thread_caps", "commit", "seed"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    tag = f"{workload} --trace {trace}"
    done = bench("--workload", workload, "--seed", "7", "--seconds", "60", "--trace", str(trace),
                 "--tiny", "--fail-every", "3")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}, "
                        f"units {[(n, got[n], units[n]) for n in set(got) & set(units) if got[n] != units[n]]}")
    if not result["correct"]:
        problems.append(f"{tag}: a check failed: {done.stderr.strip()[-500:]}")
    attempted, failed = result["attempted"], result["failed"]
    # the forced long-time draw on calibrate fails only while the library
    # raises AccuracyError in that regime; the capped solves always fail
    allowed = {0, 1} if workload == "calibrate" else {1}
    if attempted != 4 or failed not in allowed:
        problems.append(f"{tag}: attempted {attempted}, failed {failed}; expected 4 and {sorted(allowed)}")
    stamps = [json.loads(ln[6:]) for ln in lines if ln.startswith("stamp ")]
    if not stamps or not STAMP_KEYS <= set(stamps[0]):
        problems.append(f"{tag}: stamp missing or lacks {sorted(STAMP_KEYS - set(stamps[0] if stamps else {}))}")
    elif abs(stamps[0]["failed_ratio"] - failed / attempted) > 1e-12:
        problems.append(f"{tag}: failed_ratio {stamps[0]['failed_ratio']} != {failed}/{attempted}")
    if not trace:
        success = result["metrics"]["success_ratio"]["value"]
        if abs(success - (1 - failed / attempted)) > 1e-12:
            problems.append(f"{tag}: success_ratio {success} != 1 - {failed}/{attempted}")


def check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", "calibrate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, problems)
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
