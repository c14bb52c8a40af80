"""Record a BENCH_<label>.json: every metric of every workload over several
seeds, with machine information, medians and quartiles.

Usage, from the root of a source checkout:

    python3 bench/record.py --label baseline [--no-trace]

Runs `bench/run.py --trace 0` once per (seed, workload) for the seeds in
instances.RECORD_SEEDS, seed-major so that slow drift of the machine spreads
over every workload, then one traced run per workload on the first seed and
one traced solve-random run on instances.HELD_OUT_SEED (to compare its layer
mix). Writes bench/results/BENCH_<label>.json, with each run's raw wall times
and machine-speed scales, and prints each end-to-end metric's spread,
(q3 - q1) / median, next to a third of its bound. Exits 1 if any run failed
or any spread reached that third.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instances

RESULTS = instances.BENCH_DIR / "results"


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(instances.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    lines = proc.stdout.strip().splitlines()
    result["raw"] = json.loads(lines[-2].removeprefix("raw ")) if len(lines) > 1 else None
    result["exit_code"] = proc.returncode
    result["wall_s"] = round(wall, 2)
    result["layer_mix_pct"] = {
        m[1]: float(m[2]) for m in re.finditer(r"layer mix: (.+?) ([\d.]+)% ", proc.stderr)
    }
    print(f"{workload} seed={seed} trace={trace}: exit {proc.returncode}, {wall:.1f} s", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--no-trace", action="store_true", dest="no_trace")
    args = p.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = list(instances.RECORD_SEEDS)
    workloads = instances.WORKLOADS
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    record = {
        "label": args.label,
        "commit": commit or None,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_start": os.getloadavg(),
            "EQUICUT_WORKERS": os.environ.get("EQUICUT_WORKERS"),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "traced": {},
    }
    runs = {wl: [] for wl in workloads}
    for seed in seeds:
        for wl in workloads:
            runs[wl].append(bench_run(wl, seed, spec["run_seconds"], 0))
    ok = True
    for wl in workloads:
        ok &= all(r["exit_code"] == 0 and r["correct"] for r in runs[wl])
        record["end_to_end"][wl] = {
            "attempted": sum(r["attempted"] for r in runs[wl]),
            "failed": sum(r["failed"] for r in runs[wl]),
            "metrics": {},
            "runs": [{"seed": seed, "exit_code": r["exit_code"], "wall_s": r["wall_s"], "raw": r["raw"]}
                     for seed, r in zip(seeds, runs[wl])],
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summary([r["metrics"][name]["value"] for r in runs[wl]])
            s["unit"] = metric["unit"]
            record["end_to_end"][wl]["metrics"][name] = s
            steady = s["spread"] < metric["bound"] / 3
            ok &= steady
            print(f"{wl:13s} {name:10s} median {s['median']:10.4f} {metric['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound/3 {metric['bound'] / 3:.3f}){'' if steady else '  UNSTEADY'}")
    if not args.no_trace:
        for wl in workloads:
            record["traced"][f"{wl} seed={seeds[0]}"] = bench_run(wl, seeds[0], spec["run_seconds"], 1)
        record["traced"][f"solve-random seed={instances.HELD_OUT_SEED} (held out)"] = bench_run(
            "solve-random", instances.HELD_OUT_SEED, spec["run_seconds"], 1)
    record["machine"]["loadavg_end"] = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
