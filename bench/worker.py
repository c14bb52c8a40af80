"""One benchmark step in a fresh interpreter: a set-up, a workload pass or the
isolated layer probes.

Usage: python3 bench/worker.py JOB.json OUT.json

run.py writes JOB.json and reads OUT.json. The package is imported from the
`src` directory the job names and from nowhere else. Untraced passes time each
operation; traced passes also record a span around every call from here into
a package layer and, right after each operation, run its layer probes outside
the pass's timing, so an operation and its probes see the same host speed.
After each operation of a pass the worker blocks while run.py times one
machine-speed chunk in its own interpreter, which never imports the package
(see Calibration).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import instances  # noqa: E402


class Tracer:
    """In-memory spans: id, name, start, end, parent span and repetition id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.rep = ""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "rep": self.rep,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def probes(self):
        """Marks the spans recorded inside as layer probes, which run.py
        leaves out of the traced pass's wall time."""
        rep = self.rep
        self.rep += "-probe"
        try:
            yield
        finally:
            self.rep = rep


class Untraced:
    """Times operations like Tracer but keeps no record."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"start": time.perf_counter(), "end": None}
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()


class Calibration:
    """Asks run.py, over the two pipe descriptors the job names, to time one
    machine-speed chunk, and waits until it has. The chunk runs in run.py's
    interpreter, so a trace hook or other interpreter state the package
    leaves in this one cannot slow it."""

    def __init__(self, fds: list[int] | None):
        self.fds = fds

    def __call__(self) -> None:
        if self.fds:
            request, done = self.fds
            os.write(request, b"c")
            os.read(done, 1)


def _import_package(src: str):
    sys.path.insert(0, src)
    import equicut
    import equicut.cli

    if not Path(equicut.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"equicut imported from {equicut.__file__}, not from {src}")
    return equicut


def setup(job: dict, tr) -> None:
    with tr.span("setup"):
        eq = _import_package(job["src"])
        if job["workload"] != "solve-random":
            return
        graph_dir = Path(job["work"]) / "graphs"
        graph_dir.mkdir(parents=True, exist_ok=True)
        items = {item["id"]: item for k in range(job["pass_sets"])
                 for item in instances.solve_instances(job["seed"], job["per_class"], k)}.values()
        for item in items:
            payload = {"n": item["n"], "edges": [list(e) for e in item["edges"]]}
            (graph_dir / f"{item['id']}.json").write_text(json.dumps(payload) + "\n")
        with tr.span("graphs.build"):
            for item in items:
                eq.graph_from_edges(item["n"], item["edges"])


def gate_pass(job: dict, tr, cal: Calibration) -> list[dict]:
    """The paper suite, check by check, in the order run_paper_suite uses."""
    from equicut import verify

    seed, out_dir = instances.GATE_SEED, job["work"] + "/out"

    def step(name, check, *args):
        with tr.span(f"verify.{name}"):
            out = check(*args)
        cal()
        return out

    results = [step("check1", verify.check_known_values)]
    table = step("table", verify.solve_cycle_power_table, 22)
    results += [
        step("check2", verify.check_square_powers, table),
        step("check3", verify.check_cube_powers, table),
        step("check4", verify.check_sandwich, table),
        step("check5", verify.check_formula_identities, 60),
        step("check6", verify.check_solver_agreement, seed),
        step("check7", verify.check_parity_machinery, 1000, seed),
        step("check8", verify.check_conjecture_sweep, out_dir, seed),
        step("check9", verify.check_worker_determinism),
    ]
    return [{"criterion": r.criterion, "passed": r.passed} for r in results]


def sweep_pass(job: dict, tr, cal: Calibration) -> tuple[list[dict], dict]:
    from equicut import run_sweep, write_sweep_outputs

    ops, rows = [], []
    for n, d in job["grid"]:
        with tr.span("sweep.row", n=n, d=d) as s:
            (row,) = run_sweep((n, n), (d, d), method="auto", workers=1)
        cal()
        if job.get("trace"):
            with tr.probes():
                sweep_probes(tr, n, d)
        rows.append(row)
        out = {
            "exact": row.exact,
            "match": row.conjecture_match,
            "lower_bound": row.lower_bound,
            "certificate": list(row.certificate),
        }
        ops.append({"id": f"n={n} d={d}", "n": n, "d": d, "ms": (s["end"] - s["start"]) * 1e3, "out": out})
    csv_path = Path(job["work"]) / "out" / "sweep.csv"
    with tr.span("sweep.write"):
        write_sweep_outputs(rows, csv_path)
    return ops, {"csv": csv_path.read_text()}


def sweep_probes(tr, n: int, d: int) -> None:
    from equicut import SolverConfig, block_cut_value, make_cycle_power, rna_branch_and_bound, rna_lower_bound

    g = make_cycle_power(n, d)
    with tr.span("solver.lower_bound", n=n, d=d):
        rna_lower_bound(g)
    with tr.span("solver.bnb", n=n, d=d):
        rna_branch_and_bound(g, SolverConfig(initial_upper_bound=block_cut_value(n, d)))


def solve_pass(job: dict, tr, cal: Calibration) -> list[dict]:
    from equicut import cli

    graph_dir = Path(job["work"]) / "graphs"
    ops = []
    for item in instances.solve_instances(job["seed"], job["per_class"], job["pass_index"]):
        argv = ["solve", "--graph", str(graph_dir / f"{item['id']}.json"), *item["args"]]
        buf = io.StringIO()
        with tr.span("cli.solve", op=item["id"]) as s, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        cal()
        if job.get("trace"):
            with tr.probes():
                solve_probes(tr, item, graph_dir)
        out = json.loads(buf.getvalue()) if code == 0 else {"exit_code": code}
        ops.append({"id": item["id"], "ms": (s["end"] - s["start"]) * 1e3, "out": out})
    return ops


def solve_probes(tr, item: dict, graph_dir: Path) -> None:
    from equicut import SolverConfig, load_graph, rna_exhaustive, rna_local_search, rna_lower_bound

    with tr.span("graphs.load", op=item["id"]):
        g = load_graph(graph_dir / f"{item['id']}.json")
    with tr.span("solver.lower_bound", op=item["id"], cls=item["class"]):
        rna_lower_bound(g)
    if item["class"] == "local-search":
        with tr.span("solver.local_search", op=item["id"], restarts=10):
            rna_local_search(g, SolverConfig(restarts=10, rng_seed=item["graph_seed"]))
    elif item["class"] == "exhaustive":
        with tr.span("solver.exhaustive", op=item["id"], n=g.n):
            rna_exhaustive(g)


def isolated_probes(job: dict, tr) -> None:
    """Layers only reachable inside another layer, each called alone."""
    import random

    from equicut import SolverConfig, edge_connectivity, graph_from_edges, make_cycle_power, rna_exhaustive
    from equicut.bitset import revolving_door_swaps

    for _ in range(3):
        with tr.span("bitset.revolving_door", swaps=0) as s:
            s["swaps"] = sum(1 for _ in revolving_door_swaps(21, 10))
    for n in (50, 150, 300):
        with tr.span(f"solver.lower_bound.cpow{n}"):
            edge_connectivity(make_cycle_power(n, 4))
        g = graph_from_edges(n, instances.random_connected_edges(random.Random(n), n, 0.08))
        with tr.span(f"solver.lower_bound.rand{n}"):
            edge_connectivity(g)
    tiny = make_cycle_power(10, 2)
    for _ in range(5):
        for workers in (1, 4):
            with tr.span(f"pool.exhaustive_p{workers}"):
                rna_exhaustive(tiny, SolverConfig(parallelism=workers))


def main(job_path: str, out_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    tr = Tracer() if job.get("trace") else Untraced()
    tr.rep = job.get("rep", "")
    result: dict = {"ops": [], "extra": {}}
    if job["kind"] == "setup":
        setup(job, tr)
    elif job["kind"] == "probes":
        _import_package(job["src"])
        isolated_probes(job, tr)
    else:
        _import_package(job["src"])
        wl = job["workload"]
        cal = Calibration(job.get("cal_fds"))
        if wl == "paper-gate":
            result["checks"] = gate_pass(job, tr, cal)
        elif wl == "sweep-large":
            result["ops"], result["extra"] = sweep_pass(job, tr, cal)
        else:
            result["ops"] = solve_pass(job, tr, cal)
    result["spans"] = getattr(tr, "spans", [])
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
