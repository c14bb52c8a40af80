"""Verification suites: every proven statement the package relies on, checked
by independent computation.

The `paper` suite is the full gate (nine checks); `formulas` covers the
closed-form boundary counts alone and `solvers` the exhaustive/branch-and-
bound agreement corpus. Each check is a body that returns (failures,
detail); the `_check` decorator times it and turns it into a CheckResult,
which passes when there are no failures, counts them in the detail and keeps
the first 20. The CLI and the test suite share these checks.

run_paper_suite runs checks 1 and 5-8 and the check-2 solve table, one job
per n, concurrently on the solver's shared pool, then checks 2-4 on the
merged table and check 9 last, on the same pool.
"""

from __future__ import annotations

import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import wraps
from pathlib import Path

from .errors import DisconnectedGraphError, InvalidInputError
from .formulas import (
    block_cut_sum_identity,
    block_cut_value,
    block_params,
    boundary_count_closed_form,
    boundary_count_direct,
    kang_upper_bound,
    known_rna,
)
from .graphs import MAX_VERTICES, Graph, GraphFamilySpec, graph_from_edges, make_circulant, make_cycle_power
from .parity import (
    Equicut,
    ParityLabeling,
    SignedGraph,
    equicut_size,
    is_balanced,
    is_parity_signed,
    negative_edge_count,
    signature_from_labeling,
    switch_vertices,
)
from .solver import (
    DEFAULT_ENUMERATION_CAP,
    SolveResult,
    SolverConfig,
    _parallel_map,
    rna_branch_and_bound,
    rna_exhaustive,
)
from .sweep import run_sweep, write_sweep_outputs

DEFAULT_SEED = 20260801
# Processes for the paper gate's jobs and check 9's pool runs, at most.
_GATE_WORKERS = 4


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    elapsed_ms: float
    failures: list[str]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "elapsed_ms": round(self.elapsed_ms, 1)}


def _check(criterion: str):
    """Decorator: time a check body returning (failures, detail) and build its CheckResult."""

    def decorate(body):
        @wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            failures, detail = body(*args, **kwargs)
            elapsed = (time.perf_counter() - start) * 1000.0
            if failures:
                detail = f"{detail}; {len(failures)} failure(s)"
            return CheckResult(criterion, not failures, detail, elapsed, failures[:20])

        return check

    return decorate


# ---------------------------------------------------------------------------
# random corpora


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random tree plus independent extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def random_circulant(rng: random.Random, n: int) -> Graph:
    """Random connected circulant on n vertices (jump sets resampled until connected)."""
    candidates = list(range(1, n // 2 + 1))
    while True:
        size = rng.randint(1, len(candidates))
        jumps = tuple(sorted(rng.sample(candidates, size)))
        try:
            return make_circulant(n, jumps)
        except DisconnectedGraphError:
            continue


# Size of the seeded part of the agreement corpus.
_CIRCULANTS = 50
_RANDOM_GRAPHS = 110
_RANDOM_N_MAX = 12


def solver_corpus(rng: random.Random, n_max: int = 14) -> list[tuple[str, Graph]]:
    """The agreement corpus: all cycle powers up to n_max, then seeded randoms."""
    corpus: list[tuple[str, Graph]] = []
    for n in range(3, n_max + 1):
        for d in range(1, n // 2 + 1):
            corpus.append((f"cycle_power n={n} d={d}", make_cycle_power(n, d)))
    for i in range(_CIRCULANTS):
        n = rng.randint(5, n_max)
        g = random_circulant(rng, n)
        corpus.append((f"circulant #{i} n={n}", g))
    for i in range(_RANDOM_GRAPHS):
        n = rng.randint(4, _RANDOM_N_MAX)
        g = random_connected_graph(rng, n)
        corpus.append((f"random #{i} n={n} m={g.m}", g))
    return corpus


# ---------------------------------------------------------------------------
# shared solve table for the cycle-power checks


def solve_cycle_power_table(n_max: int = 22) -> dict[tuple[int, int], SolveResult]:
    """Exact values of every cycle power with 5 <= n <= n_max, 2 <= d < floor(n/2)."""
    table: dict[tuple[int, int], SolveResult] = {}
    for n in range(5, n_max + 1):
        table.update(_cycle_power_row(n))
    return table


def _cycle_power_row(n: int) -> dict[tuple[int, int], SolveResult]:
    """The table entries for one n."""
    return {(n, d): rna_exhaustive(make_cycle_power(n, d)) for d in range(2, n // 2)}


# ---------------------------------------------------------------------------
# the nine checks


@_check("1-known-values")
def check_known_values():
    failures = []
    specs = [GraphFamilySpec("cycle", n) for n in range(4, 21)]
    specs += [GraphFamilySpec("complete", n) for n in range(2, 15)]
    for spec in specs:
        want = known_rna(spec)
        got = rna_exhaustive(spec.build()).value
        if got != want:
            failures.append(f"{spec.family} n={spec.n}: got {got}, want {want}")
    return failures, "cycles n=4..20 and complete graphs n=2..14"


def _power_values(table: dict[tuple[int, int], SolveResult], d: int, n_first: int):
    """Every C_n^d in the table with n_first <= n <= 22 has its proven value."""
    failures = []
    for n in range(n_first, 23):
        want = known_rna(GraphFamilySpec("cycle_power", n, d=d))
        got = table[(n, d)].value
        if got != want:
            failures.append(f"n={n} d={d}: got {got}, want {want}")
    ordinal = {2: "second", 3: "third"}[d]
    return failures, f"{ordinal} powers n={n_first}..22 all equal {want}"


@_check("2-square-powers")
def check_square_powers(table: dict[tuple[int, int], SolveResult]):
    return _power_values(table, 2, 6)


@_check("3-cube-powers")
def check_cube_powers(table: dict[tuple[int, int], SolveResult]):
    return _power_values(table, 3, 8)


@_check("4-sandwich-bounds")
def check_sandwich(table: dict[tuple[int, int], SolveResult]):
    failures = []
    for (n, d), result in sorted(table.items()):
        if not 2 * d <= result.value <= d * (d + 1):
            failures.append(
                f"n={n} d={d}: value {result.value} outside [{2 * d}, {d * (d + 1)}]"
            )
    return failures, f"2d <= value <= d(d+1) on {len(table)} instances"


@_check("5-formula-identities")
def check_formula_identities(n_max: int = 60):
    failures = []
    instances = 0
    for n in range(5, n_max + 1):
        for d in range(2, n // 2):
            instances += 1
            case, k, _ = block_params(n, d)
            near = k if case == "odd" else k - 1
            for j in range(near + 1):
                cf = boundary_count_closed_form(n, d, j)
                direct = boundary_count_direct(n, d, 0, j)
                if cf != direct:
                    failures.append(f"n={n} d={d} j={j}: closed {cf} vs direct {direct}")
            assembled, direct_cut = block_cut_sum_identity(n, d)
            want = block_cut_value(n, d)
            if not assembled == direct_cut == want:
                failures.append(
                    f"n={n} d={d}: assembled {assembled}, direct {direct_cut}, want {want}"
                )
            if want > kang_upper_bound(n, n * d):
                failures.append(f"n={n} d={d}: d(d+1) above the general (2m+n)/4 bound")
    return failures, f"boundary tables and block sums on {instances} (n, d) pairs, n <= {n_max}"


@_check("6-solver-agreement")
def check_solver_agreement(seed: int = DEFAULT_SEED, n_max: int = 14):
    failures = []
    corpus = solver_corpus(random.Random(seed), n_max)
    for name, g in corpus:
        ex = rna_exhaustive(g)
        bb = rna_branch_and_bound(g)
        if ex.value != bb.value:
            failures.append(f"{name}: exhaustive {ex.value} vs branch-and-bound {bb.value}")
        if equicut_size(g, bb.certificate) != bb.value:
            failures.append(f"{name}: branch-and-bound certificate does not match its value")
    return failures, f"both exact methods on {len(corpus)} instances"


@_check("7-parity-machinery")
def check_parity_machinery(pairs: int = 1000, seed: int = DEFAULT_SEED):
    failures = []
    rng = random.Random(seed)
    for i in range(pairs):
        n = rng.randint(3, 12)
        g = random_connected_graph(rng, n)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        labeling = ParityLabeling(labels)
        sg = signature_from_labeling(g, labeling)
        cut = Equicut(n, labeling.even_vertices())
        if negative_edge_count(sg) != equicut_size(g, cut):
            failures.append(f"pair {i}: negative count differs from the even-side cut size")
        if not is_balanced(sg):
            failures.append(f"pair {i}: induced signature not balanced")
        ok, witness = is_parity_signed(sg)
        if not ok:
            failures.append(f"pair {i}: induced signature not recognized")
        elif switch_vertices(SignedGraph(g), witness.vertices).neg != sg.neg:
            failures.append(f"pair {i}: witness does not reproduce the negative edges")
    return failures, f"{pairs} random (graph, labeling) pairs"


@_check("8-conjecture-sweep")
def check_conjecture_sweep(out_dir: str | Path | None = None, seed: int = DEFAULT_SEED):
    """The d=4 and d=5 sweep; without out_dir its files go to a temporary
    directory that is removed when the check ends. Every sweep row is
    branch and bound and uses no randomness, so nothing reads `seed`; it
    stays for callers that pass (out_dir, seed)."""
    failures = []
    rows = run_sweep((10, 18), (4, 5))  # the grid starts d = 5 at n = 12
    if out_dir is None:
        target = tempfile.TemporaryDirectory(prefix="equicut-sweep-")
    else:
        target = nullcontext(out_dir)
    with target as where:
        sidecars = write_sweep_outputs(rows, Path(where) / "conjecture_sweep.csv")
    holds = sum(1 for r in rows if r.conjecture_match == "holds")
    fails = [r for r in rows if r.conjecture_match == "fails"]
    if len(sidecars) != len(fails):
        failures.append(f"{len(fails)} fails rows but {len(sidecars)} sidecar files")
    outputs = "outputs discarded" if out_dir is None else f"outputs in {out_dir}"
    detail = (
        f"{len(rows)} rows (d=4 n=10..18, d=5 n=12..18): "
        f"{holds} holds, {len(fails)} fails; {outputs}"
    )
    # A fails row is a counterexample: keep its certificate even when the
    # sidecar files are discarded.
    for row in fails:
        detail += f"; n={row.n} d={row.d} cut {row.exact} at {list(row.certificate)}"
    return failures, detail


@_check("9-worker-determinism")
def check_worker_determinism():
    failures = []
    for n in range(6, 23):
        g = make_cycle_power(n, 2)
        a = rna_exhaustive(g, SolverConfig(parallelism=1))
        b = rna_exhaustive(g, SolverConfig(parallelism=_GATE_WORKERS))
        if a.value != b.value or a.certificate != b.certificate:
            failures.append(
                f"n={n}: workers=1 gave ({a.value}, {a.certificate.vertices}), "
                f"workers={_GATE_WORKERS} gave ({b.value}, {b.certificate.vertices})"
            )
    return failures, f"second-power runs with 1 and {_GATE_WORKERS} workers give identical results"


# ---------------------------------------------------------------------------
# suites


def _timed_call(fn, *args):
    """(fn(*args), seconds it took), for a gate job run wherever the pool puts it."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run_paper_suite(seed: int = DEFAULT_SEED, out_dir: str | Path | None = None) -> list[CheckResult]:
    """All nine checks; the square/cube/sandwich checks share one solve table.

    Checks 1 and 5-8 and the table rows, one per n, are independent jobs on
    at most _GATE_WORKERS processes. They are sent one at a time, longest
    first as measured alone on a 2-vCPU host (checks 5-7 at 120-170 ms
    each, then rows 22 down to 5 at 30 ms and less, then checks 8 and 1 at
    15 ms and less), so no process is left with a long job at the end. Each
    check times itself where it runs; check 2 is charged the summed row
    times.
    """
    longest = [
        (check_formula_identities, 60),
        (check_solver_agreement, seed),
        (check_parity_machinery, 1000, seed),
    ]
    rows = [(_cycle_power_row, n) for n in range(22, 4, -1)]
    shortest = [(check_conjecture_sweep, out_dir, seed), (check_known_values,)]
    outs = _parallel_map(_timed_call, longest + rows + shortest, _GATE_WORKERS)
    (formulas, _), (agreement, _), (parity, _) = outs[:3]
    (sweep, _), (known, _) = outs[-2:]
    table: dict[tuple[int, int], SolveResult] = {}
    table_s = 0.0
    for part, seconds in outs[3:-2]:
        table.update(part)
        table_s += seconds
    square = check_square_powers(table)
    square.elapsed_ms += table_s * 1000.0
    return [
        known,
        square,
        check_cube_powers(table),
        check_sandwich(table),
        formulas,
        agreement,
        parity,
        sweep,
        check_worker_determinism(),
    ]


def run_formulas_suite(n_max: int = 60) -> list[CheckResult]:
    # C_6^2 is the first instance; a smaller range would pass on none.
    if not 6 <= n_max <= MAX_VERTICES:
        raise InvalidInputError(f"the formulas suite needs 6 <= n_max <= {MAX_VERTICES}, got {n_max}")
    return [check_formula_identities(n_max)]


def run_solvers_suite(seed: int = DEFAULT_SEED, n_max: int = 14) -> list[CheckResult]:
    # The random circulants take n from 5..n_max, and exhaustive solves
    # every cycle power up to n_max.
    if not 5 <= n_max <= DEFAULT_ENUMERATION_CAP:
        raise InvalidInputError(f"the solvers suite needs 5 <= n_max <= {DEFAULT_ENUMERATION_CAP}, got {n_max}")
    return [check_solver_agreement(seed, n_max)]
