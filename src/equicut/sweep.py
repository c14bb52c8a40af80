"""Cycle-power sweep: solve a grid of (n, d) instances and record findings.

For 2 <= d < floor(n/2) the consecutive-block construction cuts d(d+1)
edges; for d in {2, 3} that is proven optimal, for d >= 4 it is conjectured.
Every row runs branch and bound with the construction as its trusted upper
bound, so each row records the exact value next to the construction value
and is classified holds / fails, never asserting the conjecture. A "fails"
row (exact below d(d+1)) would be a genuine discovery, so its CSV fields and
its certificate are preserved in a sidecar JSON.

run_sweep is the one entry: a single cell is run_sweep((n, n), (d, d)).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import InvalidInputError
from .formulas import block_cut_value, known_rna
from .graphs import GraphFamilySpec, check_vertex_count, make_cycle_power
from .solver import SolverConfig, _parallel_map, rna_branch_and_bound


@dataclass
class SweepRow:
    family: str
    n: int
    d: int
    lower_bound: int
    construction: int
    exact: int
    method: str
    conjecture_match: str
    elapsed_ms: int
    certificate: tuple[int, ...] = ()


# The CSV holds every field but the certificate, which only a sidecar keeps.
CSV_COLUMNS = [f.name for f in fields(SweepRow) if f.name != "certificate"]


def _spanning_known_bound(n: int, d: int) -> int:
    """Best proven value among the lower powers, which are spanning subgraphs
    (d >= 2); the proven values 2, 6, 12 of d = 1, 2, 3 increase with d."""
    return known_rna(GraphFamilySpec("cycle_power", n, d=min(d - 1, 3)))


def _sweep_row(n: int, d: int) -> SweepRow:
    """One grid cell."""
    construction = block_cut_value(n, d)  # rejects d outside 2 <= d < floor(n/2)
    g = make_cycle_power(n, d)
    result = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=construction))

    # Every equicut of g contains one of each spanning lower power.
    lower = max(result.lower_bound_used, _spanning_known_bound(n, d))
    exact = result.value
    if exact == construction:
        match = "holds"
    elif exact < construction:
        match = "fails"
    else:
        raise RuntimeError(
            f"exact value {exact} above the block construction {construction} "
            f"for n={n}, d={d}; the construction is a proven upper bound"
        )
    return SweepRow(
        family="cycle_power",
        n=n,
        d=d,
        lower_bound=lower,
        construction=construction,
        exact=exact,
        method=result.method,
        conjecture_match=match,
        elapsed_ms=round(result.elapsed * 1000),
        certificate=result.certificate.vertices,
    )


def run_sweep(
    n_range: tuple[int, int],
    d_range: tuple[int, int],
    *,
    workers: int = 1,
    method: str = "auto",
) -> list[SweepRow]:
    """Solve every (n, d) in the ranges with 2 <= d < floor(n/2), sorted by (n, d).

    Each row runs one worker; `workers` spreads the rows over processes.
    Every row is branch and bound, so `method` accepts only "auto"; it stays
    because bench/worker.py and bench/make_refs.py pass it.
    """
    if method != "auto":
        raise InvalidInputError(f"sweep method must be 'auto', got {method!r}")
    d_min = max(d_range[0], 2)
    # n = 2d + 2 is the least n with d < n // 2; an empty d range has no n.
    n_min = max(n_range[0], 2 * d_min + 2) if d_min <= d_range[1] else n_range[1] + 1
    if n_min <= n_range[1]:
        check_vertex_count(n_range[1])  # the largest n has a cell: reject the grid before any row runs
    grid = [(n, d) for n in range(n_min, n_range[1] + 1)
            for d in range(d_min, min(d_range[1], n // 2 - 1) + 1)]
    return _parallel_map(_sweep_row, grid, workers)


def write_sweep_outputs(rows: list[SweepRow], out_path: str | Path) -> list[Path]:
    """Write the CSV, plus one sidecar per `fails` row with its CSV fields
    and its certificate.

    Output is byte-identical across reruns except for the elapsed_ms column.
    """
    out_path = Path(out_path)
    with out_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in sorted(rows, key=lambda r: (r.n, r.d)):
            writer.writerow({c: getattr(row, c) for c in CSV_COLUMNS})
    sidecars = []
    for row in rows:
        if row.conjecture_match != "fails":
            continue
        sidecar = out_path.with_name(f"{out_path.stem}.counterexample-n{row.n}-d{row.d}.json")
        sidecar.write_text(json.dumps(asdict(row), indent=2) + "\n")
        sidecars.append(sidecar)
    return sidecars
