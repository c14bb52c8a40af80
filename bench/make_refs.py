"""Record the reference outputs the benchmark checks every result against.

Usage, from the root of a source checkout:

    python3 bench/make_refs.py {paper-gate,sweep-large,solve-random}

Writes bench/ref/<workload>.json (or .csv). References are taken from the
package as it is when this runs, and exact values are cross-checked by the
other exact method wherever exhaustive enumeration is affordable
(n <= EXHAUSTIVE_CROSS_CHECK_N). Run it only to re-record on purpose: the
references are what later changes are held to.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import instances

EXHAUSTIVE_CROSS_CHECK_N = 26


def record_gate(eq, scratch: Path) -> None:
    results = eq.verify.run_paper_suite(seed=instances.GATE_SEED, out_dir=scratch)
    failed = [r.criterion for r in results if not r.passed]
    if failed:
        raise SystemExit(f"gate checks failed, nothing recorded: {failed}")
    ref = {"seed": instances.GATE_SEED, "criteria": [r.criterion for r in results]}
    (instances.REF_DIR / "paper-gate.json").write_text(json.dumps(ref, indent=1) + "\n")


def record_sweep(eq, scratch: Path) -> None:
    rows = eq.run_sweep(instances.SWEEP_N, instances.SWEEP_D, method="auto", workers=1)
    for row in rows:
        problems = instances.result_problems(
            row.n, instances.cycle_power_edges(row.n, row.d), row.exact, row.certificate, row.lower_bound)
        if problems or row.conjecture_match != "holds":
            raise SystemExit(f"n={row.n} d={row.d}: {row.conjecture_match} {problems}")
    csv_path = scratch / "sweep.csv"
    eq.write_sweep_outputs(rows, csv_path)
    (instances.REF_DIR / "sweep-large.csv").write_text(instances.mask_elapsed(csv_path.read_text()))


def record_solves(eq, graph_dir: Path) -> None:
    refs = {}
    for cls, (_, ns, _, _) in instances.SOLVE_CLASSES.items():
        for slot in range(len(ns)):
            for variant in range(instances.VARIANTS):
                item = instances.bank_instance(cls, slot, variant)
                refs[item["id"]] = _record_solve(eq, item, graph_dir)
                print(item["id"], refs[item["id"]]["value"], file=sys.stderr, flush=True)
    lines = ",\n".join(f" {json.dumps(key)}: {json.dumps(val)}" for key, val in refs.items())
    text = f'{{"variants": {instances.VARIANTS}, "instances": {{\n{lines}\n}}}}\n'
    (instances.REF_DIR / "solve-random.json").write_text(text)


def _record_solve(eq, item: dict, graph_dir: Path) -> dict:
    n, edges = item["n"], item["edges"]
    path = graph_dir / f"{item['id']}.json"
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}) + "\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = eq.cli.main(["solve", "--graph", str(path), *item["args"]])
    if code != 0:
        raise SystemExit(f"{item['id']}: solve exited {code}")
    out = json.loads(buf.getvalue())
    problems = instances.result_problems(n, edges, out["value"], out["certificate"], out["lower_bound"])
    g = eq.graph_from_edges(n, edges)
    cross = None
    if item["class"] == "exhaustive":
        cross = "branch-and-bound"
        other = eq.rna_branch_and_bound(g).value
    elif item["class"] == "branch-and-bound" and n <= EXHAUSTIVE_CROSS_CHECK_N:
        cross = "exhaustive"
        other = eq.rna_exhaustive(g, eq.SolverConfig(parallelism=2)).value
    if cross and other != out["value"]:
        problems.append(f"{cross} gives {other}, {item['class']} gives {out['value']}")
    if problems:
        raise SystemExit(f"{item['id']}: {problems}")
    return {
        "n": n,
        "digest": instances.edges_digest(edges),
        "method": out["method"],
        "value": out["value"],
        "certificate": out["certificate"],
        "lower_bound": out["lower_bound"],
        "cross_checked_by": cross,
    }


def main(workload: str) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import equicut
    import equicut.cli
    import equicut.verify

    record = {"paper-gate": record_gate, "sweep-large": record_sweep, "solve-random": record_solves}[workload]
    instances.REF_DIR.mkdir(exist_ok=True)
    (Path.cwd() / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path.cwd() / ".bench_work") as scratch:
        record(equicut, Path(scratch))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
