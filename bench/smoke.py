"""Smoke test of the benchmark itself.

Usage, from the root of a source checkout:  python3 bench/smoke.py

For each workload, at reduced size (run.py --smoke): a clean run must report
no failure and exit 0, and a run against a deliberately corrupted reference
value must report error_rate > 0 and exit non-zero. Finally, run.py started
in a directory holding only the benchmark must exit non-zero without a result.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import instances

ROOT = Path.cwd()
RUN = Path(instances.BENCH_DIR.name) / "run.py"  # relative, so it runs the copy in cwd


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    failures = []
    for wl in instances.WORKLOADS:
        code, result = run(wl, "--smoke")
        if code != 0 or result is None or result["failed"] != 0 or not result["correct"]:
            failures.append(f"{wl}: clean run exited {code} with {result}")
        code, result = run(wl, "--smoke", "--corrupt-reference")
        if code == 0 or result is None or result["failed"] / result["attempted"] <= 0:
            failures.append(f"{wl}: corrupted reference not caught (exit {code}, {result})")
        print(f"{wl}: checked", file=sys.stderr)

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(instances.BENCH_DIR, bare / instances.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("sweep-large", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        failures.append(f"run without a package exited {code} with {result}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
