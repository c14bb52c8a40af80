"""Command-line front end.

Commands: gen, solve, label, sweep, verify. All flags are explicit long
names; EQUICUT_WORKERS sets the default worker count. Exit codes: 0 success,
2 invalid input, 3 method infeasible for the instance, 4 verification
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import EnumerationCapError, InvalidInputError
from .graphs import FAMILIES, GraphFamilySpec, load_graph, save_graph
from .parity import (
    Equicut,
    ParityLabeling,
    equicut_size,
    is_balanced,
    negative_edge_count,
    signature_from_labeling,
)
from .solver import METHODS, SolverConfig
from .sweep import run_sweep, write_sweep_outputs
from .verify import DEFAULT_SEED, run_formulas_suite, run_paper_suite, run_solvers_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_IO = 5


def _flag(name: str) -> str:
    """CLI spelling of a method name: branch_and_bound -> branch-and-bound."""
    return name.replace("_", "-")


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"worker count (--workers or EQUICUT_WORKERS) must be a positive integer, got {text!r}"
        )
    return workers


def _cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return cap


def _family_spec(args: argparse.Namespace) -> GraphFamilySpec:
    family = args.family.replace("-", "_")
    jumps = None
    if args.jumps is not None:
        try:
            jumps = tuple(int(x) for x in args.jumps.split(","))
        except ValueError:
            raise InvalidInputError(f"--jumps must be comma-separated integers, got {args.jumps!r}")
    return GraphFamilySpec(family=family, n=args.n, d=args.d, jumps=jumps)


def _require_parent_dir(path: str | None) -> None:
    """Fail (exit 5) before any work when an output file cannot be created."""
    if path is None:
        return
    if Path(path).is_dir():
        raise IsADirectoryError(f"output file {path!r} is a directory")
    if not Path(path).parent.is_dir():
        raise FileNotFoundError(f"no such directory for output file {path!r}")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        restarts=args.restarts,
        rng_seed=args.seed,
        parallelism=args.workers,
        initial_upper_bound=args.upper_bound,
        exhaustive_cap=args.cap,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    g = spec.build()
    if spec.family == "cycle_power" and spec.d >= spec.n // 2:
        print(
            f"note: d={spec.d} >= floor(n/2)={spec.n // 2}, emitting the complete graph",
            file=sys.stderr,
        )
    save_graph(g, args.out)
    print(f"wrote {spec.describe()} (m={g.m}) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if args.upper_bound is not None and args.method != "branch-and-bound":
        raise InvalidInputError("--upper-bound applies to --method branch-and-bound only")
    g = load_graph(args.graph)
    cfg = _solver_config(args)
    result = METHODS[args.method.replace("-", "_")](g, cfg)
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    try:
        data = json.loads(Path(args.labeling).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{args.labeling}: not valid JSON ({exc})")
    labeling = ParityLabeling.from_json_dict(data)
    sg = signature_from_labeling(g, labeling)
    cut = Equicut(g.n, labeling.even_vertices())
    out = sg.to_json_dict()
    out["f"] = list(labeling.f)
    out["negative_count"] = negative_edge_count(sg)
    out["equicut"] = list(cut.vertices)
    out["equicut_size"] = equicut_size(g, cut)
    out["balanced"] = is_balanced(sg)
    print(json.dumps(out))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _require_parent_dir(args.out)
    rows = run_sweep((args.n_min, args.n_max), (args.d_min, args.d_max), workers=args.workers)
    sidecars = write_sweep_outputs(rows, args.out)
    fails = sum(1 for r in rows if r.conjecture_match == "fails")
    print(f"{len(rows)} rows -> {args.out} (holds={len(rows) - fails} fails={fails})", file=sys.stderr)
    for sidecar in sidecars:
        print(f"counterexample certificate: {sidecar}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "paper" and args.n_max is not None:
        raise InvalidInputError("--n-max applies to the formulas and solvers suites only")
    if args.suite == "paper" and args.out_dir is not None:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    _require_parent_dir(args.json)
    # Without --n-max each suite keeps its own default range.
    n_max = {} if args.n_max is None else {"n_max": args.n_max}
    if args.suite == "paper":
        results = run_paper_suite(seed=args.seed, out_dir=args.out_dir)
    elif args.suite == "formulas":
        results = run_formulas_suite(**n_max)
    else:
        results = run_solvers_suite(seed=args.seed, **n_max)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.criterion}: {res.detail} ({res.elapsed_ms:.0f} ms)")
        for failure in res.failures:
            print(f"         {failure}")
    all_passed = all(r.passed for r in results)
    if args.json:
        report = {
            "suite": args.suite,
            "passed": all_passed,
            "checks": [r.to_json_dict() for r in results],
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _add_workers(p: argparse.ArgumentParser) -> None:
    # A string default goes through the type check too, so a bad
    # EQUICUT_WORKERS is rejected (exit 2) only when --workers is not given.
    p.add_argument("--workers", type=_worker_count, default=os.environ.get("EQUICUT_WORKERS", "1"),
                   help="worker processes (default: EQUICUT_WORKERS, else 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicut",
        description="Minimum equicut sizes, parity signed graphs and cycle-power sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", required=True,
                   choices=[_flag(f) for f in FAMILIES])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--jumps", default=None, help="comma-separated jump list, e.g. 1,4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="exhaustive", choices=[_flag(m) for m in METHODS])
    p.add_argument("--seed", type=int, default=SolverConfig.rng_seed,
                   help="RNG seed (local search restarts)")
    p.add_argument("--restarts", type=int, default=SolverConfig.restarts, help="local-search restarts")
    _add_workers(p)
    p.add_argument("--cap", type=_cap, default=SolverConfig.exhaustive_cap,
                   help="exhaustive enumeration cap on n")
    p.add_argument("--upper-bound", type=int, default=None, dest="upper_bound",
                   help="trusted initial upper bound (branch-and-bound only; exit 2 with other methods)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("label", help="apply a parity labeling to a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True, help='JSON file {"n": ..., "f": [...]}')
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("sweep", help="solve a cycle-power grid and write a CSV")
    p.add_argument("--n-min", type=int, required=True, dest="n_min")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--d-min", type=int, required=True, dest="d_min")
    p.add_argument("--d-max", type=int, required=True, dest="d_max")
    p.add_argument("--out", required=True)
    _add_workers(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=("paper", "formulas", "solvers"))
    p.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="range override for the formulas/solvers suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the random corpora; the paper and solvers suites read it, "
                        "the formulas suite ignores it")
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.add_argument("--out-dir", default=None, dest="out_dir",
                   help="directory for sweep artifacts, created if missing (paper suite)")
    p.set_defaults(func=cmd_verify)

    return parser


def _attach_jumps(argv: list[str]) -> list[str]:
    """argv with "--jumps V" written "--jumps=V" when V starts with "-" and a
    digit: argparse takes such a value (-1,4, unlike a plain -1) for an
    option and stops with "expected one argument", so the graph builder
    could not name the bad jump."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--jumps" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = "--jumps=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_jumps(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
