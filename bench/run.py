"""End-to-end benchmark of the equicut package.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {paper-gate,sweep-large,solve-random}
                         --seed N --seconds S --trace {0,1}

Every timed pass runs in a fresh interpreter, because every CLI user pays a
cold start; one client runs passes back to back (a closed loop) until the
next pass would end after S seconds. The package is imported from ./src only.
Every timed metric is scaled for the host's measured speed: this script, which
never imports the package, times a fixed loop (instances.calibration_chunk)
after each operation of a pass, around each set-up and before, during and
after each gate run (see bench/README.md). The raw wall times and scales
are printed on the line starting "raw " just before the JSON line.

--trace 0 prints the end-to-end metrics. --trace 1 makes one traced pass of
every workload, the layer probes and one untraced pass of the named workload
(for the tracing overhead), and prints the per-layer metrics; the spans are
written to .bench_work/traces/. Each result is checked against the references
in bench/ref/ and the plain-edge-list checks in instances.py. The last line of
standard output is one JSON object; the exit code is 1 if any operation
failed and 2 if the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instances

SETUP_REPS = 21
SETUP_CALIBRATION_CHUNKS = 3
GATE_CALIBRATION_CHUNKS = 20
GATE_SAMPLE_EVERY_S = 0.5
CHILD_TIMEOUT_S = 150
WORKER = instances.BENCH_DIR / "worker.py"


def chunks(count: int) -> list[float]:
    return [instances.calibration_chunk() for _ in range(count)]


def speed_scale(chunk_times: list[float]) -> float:
    """Factor that turns a wall time measured next to these chunks into one
    on the reference machine."""
    return instances.CALIBRATION_REF_S / statistics.median(chunk_times)


def signal_group(pgid: int, sig: int) -> bool:
    """Send sig to a process group; False if the group is already gone."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


class Bench:
    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "EQUICUT_WORKERS"}
        self.env["PYTHONPATH"] = str(self.src)
        self.env["TMPDIR"] = str(self.work)
        self.per_class = 2 if args.smoke else 16
        self.pass_sets = 1 if args.smoke else instances.PASS_SETS
        self.grid = instances.sweep_grid(4 if args.smoke else None)
        self.attempted = 0
        self.raw: dict = {}  # raw wall times and scales behind the metrics
        self.failed = 0
        self.problems: list[str] = []
        self.solve_sets = [instances.solve_instances(args.seed, self.per_class, k)
                           for k in range(self.pass_sets)]
        self.solve_items = {item["id"]: item for items in self.solve_sets for item in items}
        self.refs = {wl: instances.load_ref(wl) for wl in instances.WORKLOADS}
        if args.corrupt_reference:
            self._corrupt_refs()

    # -- children -----------------------------------------------------------

    def child(self, job: dict) -> tuple[dict, float, list[float]]:
        """Run one worker job in a fresh interpreter. Returns its output, its
        wall time less the calibration chunks, and the chunk times: whenever
        the worker asks over its pipe, this process times one chunk while the
        worker waits."""
        tag = f"{job['kind']}-{job.get('workload', 'probes')}-{job.get('rep', '')}"
        job_path, out_path = self.work / f"{tag}.job.json", self.work / f"{tag}.out.json"
        log_path = self.work / f"{tag}.log"
        request_r, request_w = os.pipe()
        done_r, done_w = os.pipe()
        job = {"src": str(self.src), "work": str(self.work), "seed": self.args.seed,
               "per_class": self.per_class, "pass_sets": self.pass_sets, "grid": self.grid,
               "cal_fds": [request_w, done_r], **job}
        job_path.write_text(json.dumps(job))
        cal: list[float] = []
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        with log_path.open("w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(WORKER), str(job_path), str(out_path)],
                                    env=self.env, cwd=self.root, stdout=log, stderr=log,
                                    pass_fds=(request_w, done_r))
            os.close(request_w)
            os.close(done_r)
            try:
                # A process the worker forks may hold the pipe open after the
                # worker exits, so end-of-file is not the only way out.
                while time.perf_counter() < deadline:
                    if select.select([request_r], [], [], 0.5)[0]:
                        if not os.read(request_r, 1):
                            break
                        cal.append(instances.calibration_chunk())
                        os.write(done_w, b".")
                    elif proc.poll() is not None:
                        break
                code = proc.wait(timeout=max(deadline - time.perf_counter(), 1))
                wall = time.perf_counter() - start - sum(cal)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                os.close(request_r)
                os.close(done_w)
        if code != 0:
            raise RuntimeError(f"worker {tag} exited {code}: {log_path.read_text()[-2000:]}")
        return json.loads(out_path.read_text()), wall, cal

    def setup_once(self, rep: str) -> tuple[float, float]:
        """One set-up in a fresh interpreter, between calibration chunks: its
        raw wall time and machine-speed scale."""
        cal = chunks(SETUP_CALIBRATION_CHUNKS)
        _, wall, _ = self.child({"kind": "setup", "workload": self.args.workload, "rep": rep})
        cal += chunks(SETUP_CALIBRATION_CHUNKS)
        return wall, speed_scale(cal)

    def gate_cli_pass(self) -> tuple[dict, float, list[float]]:
        """`equicut verify --suite paper`, through the CLI entry point."""
        report = self.work / "gate.json"
        report.unlink(missing_ok=True)
        suite = ["--suite", "formulas", "--n-max", "12"] if self.args.smoke else ["--suite", "paper"]
        cmd = [sys.executable, "-m", "equicut.cli", "verify", *suite,
               "--seed", str(instances.GATE_SEED), "--out-dir", str(self.work / "out"), "--json", str(report)]
        # The gate is one CLI process, which cannot ask for chunks between its
        # checks. Chunks run just before and just after it, and every
        # GATE_SAMPLE_EVERY_S while it runs, with its process group stopped
        # so the two do not compete; the stopped time is not counted.
        cal = chunks(GATE_CALIBRATION_CHUNKS)
        paused = 0.0
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        with (self.work / "gate.log").open("w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=log, stderr=log,
                                    start_new_session=True)
            try:
                while time.perf_counter() < deadline:
                    try:
                        proc.wait(timeout=GATE_SAMPLE_EVERY_S)
                        break
                    except subprocess.TimeoutExpired:
                        pass
                    stop = time.perf_counter()
                    if signal_group(proc.pid, signal.SIGSTOP):
                        cal.append(instances.calibration_chunk())
                        signal_group(proc.pid, signal.SIGCONT)
                    paused += time.perf_counter() - stop
                proc.wait(timeout=max(deadline - time.perf_counter(), 1))
                wall = time.perf_counter() - start - paused
            finally:
                if proc.poll() is None:
                    signal_group(proc.pid, signal.SIGKILL)
                    proc.wait()
        cal += chunks(GATE_CALIBRATION_CHUNKS)
        checks = json.loads(report.read_text())["checks"] if report.exists() else []
        return {
            "ops": [{"id": "verify --suite paper", "ms": wall * 1e3}],
            "checks": [{"criterion": c["criterion"], "passed": c["passed"]} for c in checks],
            "exit_code": proc.returncode,
        }, wall, cal

    def run_pass(self, workload: str, trace: bool, index: int = 0,
                 via_cli: bool = True) -> tuple[dict, float, list[float]]:
        """One pass: its output, raw wall time and calibration chunk times. An
        untraced paper-gate pass goes through the CLI unless via_cli is off;
        every other pass runs in a worker."""
        if workload == "paper-gate" and not trace and via_cli:
            result, wall, cal = self.gate_cli_pass()
        else:
            job = {"kind": "pass", "workload": workload, "trace": trace,
                   "rep": f"{workload}-{'traced' if trace else 'pass'}{index}", "pass_index": index % self.pass_sets}
            result, wall, cal = self.child(job)
        self.check(workload, result, index % self.pass_sets)
        return result, wall, cal

    # -- correctness ----------------------------------------------------------

    def _corrupt_refs(self) -> None:
        """Test hook for the smoke test: alter one reference value per workload."""
        self.refs["paper-gate"]["criteria"][4] += "-corrupted"
        header, first, *rest = self.refs["sweep-large"].splitlines()
        fields = first.split(",")
        fields[5] = str(int(fields[5]) + 1)
        self.refs["sweep-large"] = "\n".join([header, ",".join(fields), *rest]) + "\n"
        self.refs["solve-random"]["instances"][self.solve_sets[0][0]["id"]]["value"] += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, workload: str, result: dict, pass_index: int) -> None:
        ops = result["ops"]
        if workload == "paper-gate":
            # Failures are counted per check, so the gate counts nine operations.
            criteria = self.refs["paper-gate"]["criteria"]
            expected = criteria[4:5] if self.args.smoke else criteria
            passed = {c["criterion"] for c in result["checks"] if c["passed"]}
            self.attempted += len(expected)
            for name in expected:
                if name not in passed:
                    self.fail(f"gate check {name}: not passed")
            if result.get("exit_code", 0) != 0 and passed.issuperset(expected):
                self.fail(f"gate exited {result['exit_code']} with every check passed")
        elif workload == "sweep-large":
            self.check_sweep(ops, result["extra"]["csv"])
        else:
            self.check_solves(ops, self.solve_sets[pass_index])

    def check_sweep(self, ops: list[dict], csv_text: str) -> None:
        ref_lines = instances.mask_elapsed(self.refs["sweep-large"]).splitlines()
        got_lines = instances.mask_elapsed(csv_text).splitlines()
        ref_rows = {tuple(line.split(",")[1:3]): line for line in ref_lines[1:]}
        got_rows = {tuple(line.split(",")[1:3]): line for line in got_lines[1:]}
        header_ok = got_lines[0] == ref_lines[0]
        for op in ops:
            self.attempted += 1
            n, d, out = op["n"], op["d"], op["out"]
            key = (str(n), str(d))
            ref = ref_rows[key].split(",")
            problems = instances.result_problems(
                n, instances.cycle_power_edges(n, d), out["exact"], out["certificate"], out["lower_bound"])
            if not header_ok or got_rows.get(key) != ref_rows[key]:
                problems.append(f"CSV row {got_rows.get(key)!r} differs from reference {ref_rows[key]!r}")
            if str(out["exact"]) != ref[5] or out["match"] != ref[7]:
                problems.append(f"exact {out['exact']} / {out['match']}, reference {ref[5]} / {ref[7]}")
            if problems:
                self.fail(f"sweep row {op['id']}: " + "; ".join(problems))

    def check_solves(self, ops: list[dict], expected: list[dict]) -> None:
        refs = self.refs["solve-random"]["instances"]
        seen = set()
        for op in ops:
            self.attempted += 1
            seen.add(op["id"])
            item, ref, out = self.solve_items[op["id"]], refs[op["id"]], op["out"]
            if "value" not in out:
                self.fail(f"solve {op['id']}: exit code {out.get('exit_code')}")
                continue
            problems = instances.result_problems(
                item["n"], item["edges"], out["value"], out["certificate"], out["lower_bound"])
            if instances.edges_digest(item["edges"]) != ref["digest"]:
                problems.append("generated graph differs from the recorded one")
            if out["value"] != ref["value"] or out["certificate"] != ref["certificate"]:
                problems.append(f"value {out['value']} differs from reference {ref['value']} or certificate differs")
            if problems:
                self.fail(f"solve {op['id']}: " + "; ".join(problems))
        for missing in {item["id"] for item in expected} - seen:
            self.attempted += 1
            self.fail(f"solve {missing}: not run")

    # -- modes ------------------------------------------------------------------

    def end_to_end(self) -> dict:
        wl, seconds = self.args.workload, self.args.seconds
        setups = [self.setup_once(f"setup{i}") for i in range(SETUP_REPS)]
        walls, scales, scaled, op_ms, ops = [], [], [], {}, 0
        start = time.perf_counter()
        while True:
            result, wall, cal = self.run_pass(wl, False, len(walls))
            scale = speed_scale(cal)
            walls.append(wall)
            scales.append(scale)
            scaled.append(wall * scale)
            for op in result["ops"]:
                op_ms.setdefault(op["id"], []).append(op["ms"] * scale)
            ops += len(result["ops"])
            if self.args.smoke or time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        self.raw = {"setup_s": [w for w, _ in setups], "setup_scale": [c for _, c in setups],
                    "pass_s": walls, "pass_scale": scales}
        print(f"# {len(walls)} passes, {ops} operations ({len(op_ms)} distinct)", file=sys.stderr)
        # Each distinct operation's latency is its median over the run's passes.
        q = quartiles([statistics.median(v) for v in op_ms.values()] or [math.nan])
        return {
            "setup_s": (statistics.median(w * c for w, c in setups), "s"),
            "pass_s": (statistics.median(scaled), "s"),
            "ops_per_s": (ops / sum(scaled), "1/s"),
            "op_ms_p50": (q[1], "ms"),
            "op_ms_p75": (q[2], "ms"),
        }

    def traced(self) -> dict:
        wl = self.args.workload
        spans: list[dict] = []
        setup_out, _, _ = self.child({"kind": "setup", "workload": "solve-random", "trace": True, "rep": "setup"})
        spans += setup_out["spans"]
        for other in [wl] + [w for w in instances.WORKLOADS if w != wl]:
            out, wall, cal = self.run_pass(other, True)
            spans += out["spans"]
            if other == wl:
                # The same in-process path, untraced, right after the traced
                # pass; the traced pass's probes are outside its timing.
                probes_s = sum(s["end"] - s["start"] for s in out["spans"]
                               if s["rep"].endswith("-probe") and s["parent"] is None)
                _, untraced_wall, untraced_cal = self.run_pass(wl, False, via_cli=False)
                self.raw = {"traced_pass_s": wall - probes_s, "traced_scale": speed_scale(cal),
                            "untraced_pass_s": untraced_wall, "untraced_scale": speed_scale(untraced_cal)}
        probes, _, _ = self.child({"kind": "probes", "trace": True, "rep": "probes"})
        spans += probes["spans"]

        trace_dir = self.root / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"trace-{wl}-seed{self.args.seed}.json").write_text(json.dumps(spans))
        metrics, mix = layer_metrics(spans, self.solve_items)
        r = self.raw
        metrics["trace.overhead_ms"] = (
            (r["traced_pass_s"] * r["traced_scale"] - r["untraced_pass_s"] * r["untraced_scale"]) * 1e3, "ms")
        for name, share in mix.items():
            print(f"# solve-random layer mix: {name} {share:.1f}% of the traced pass", file=sys.stderr)
        return metrics


def layer_metrics(spans: list[dict], solve_items: dict) -> tuple[dict, dict]:
    """Per-layer metrics from one traced run's spans, plus the solve-random layer mix."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["dur"] for s in by_name[name])

    def ms_p50(spans_):
        return statistics.median(s["dur"] for s in spans_) * 1e3

    lb_by_op = {s["op"]: s["dur"] for s in by_name["solver.lower_bound"] if "op" in s}
    ls_search = sum(s["dur"] - lb_by_op[s["op"]] for s in by_name["solver.local_search"])
    ls_restarts = sum(s["restarts"] for s in by_name["solver.local_search"])
    ex_search = sum(s["dur"] - lb_by_op[s["op"]] for s in by_name["solver.exhaustive"])
    ex_subsets = sum(subset_count(solve_items[s["op"]]) for s in by_name["solver.exhaustive"])
    swaps = [s["swaps"] / s["dur"] for s in by_name["bitset.revolving_door"]]
    pool = {w: statistics.median(s["dur"] for s in by_name[f"pool.exhaustive_p{w}"]) for w in (1, 4)}

    m = {f"verify.{c}_s": (total(f"verify.{c}"), "s")
         for c in ("table", "check1", "check5", "check6", "check7", "check8", "check9")}
    m["bitset.swaps_per_s"] = (statistics.median(swaps), "1/s")
    m["solver.exhaustive.subsets_per_s"] = (ex_subsets / ex_search, "1/s")
    m["solver.bnb.busy_s"] = (total("solver.bnb"), "s")
    m["solver.bnb.ms_p50"] = (ms_p50(by_name["solver.bnb"]), "ms")
    m["solver.lower_bound.sweep_ms_p50"] = (
        ms_p50([s for s in by_name["solver.lower_bound"] if "d" in s]), "ms")
    m["solver.lower_bound.solve_ms_p50"] = (
        ms_p50([s for s in by_name["solver.lower_bound"] if "op" in s]), "ms")
    for family in ("cpow", "rand"):
        for n in (50, 150, 300):
            m[f"solver.lower_bound.{family}{n}_ms"] = (total(f"solver.lower_bound.{family}{n}") * 1e3, "ms")
    m["solver.local_search.restarts_per_s"] = (ls_restarts / ls_search, "1/s")
    m["pool.startup_ms"] = ((pool[4] - pool[1]) * 1e3, "ms")
    m["sweep.row_ms_max"] = (max(s["dur"] for s in by_name["sweep.row"]) * 1e3, "ms")
    m["sweep.write_ms"] = (total("sweep.write") * 1e3, "ms")
    m["graphs.load_ms_p50"] = (ms_p50(by_name["graphs.load"]), "ms")
    m["graphs.build_s"] = (total("graphs.build"), "s")

    solve_pass = total("cli.solve")
    mix = {
        "local search": 100 * ls_search / solve_pass,
        "lower bound": 100 * sum(lb_by_op.values()) / solve_pass,
    }
    return m, mix


def subset_count(item: dict) -> int:
    """Subsets rna_exhaustive walks: vertex 0 is pinned for even n or rotation symmetry."""
    n, k = item["n"], item["n"] // 2
    edges = set(item["edges"])
    rotated = {tuple(sorted(((u + 1) % n, (v + 1) % n))) for u, v in edges}
    pinned = n % 2 == 0 or rotated == edges
    return math.comb(n - 1, k - 1) if pinned else math.comb(n, k)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, one pass (for smoke.py)")
    p.add_argument("--corrupt-reference", action="store_true", dest="corrupt_reference",
                   help="alter one reference value per workload (for smoke.py)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "equicut" / "cli.py").is_file():
        print(f"error: no equicut package under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args, root)
    (bench.work / "out").mkdir(parents=True)
    try:
        metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    error_rate = bench.failed / max(bench.attempted, 1)
    print(f"error_rate {error_rate:.4f} ({bench.failed} of {bench.attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("raw " + json.dumps(bench.raw))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
