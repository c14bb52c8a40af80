import csv
import json
import signal
from contextlib import contextmanager

import pytest

from equicut import (
    InvalidInputError,
    SolverConfig,
    edge_connectivity,
    make_cycle_power,
    rna_exhaustive,
    run_sweep,
    solver,
    sweep,
    write_sweep_outputs,
)
from equicut.bitset import iter_bits
from equicut.sweep import CSV_COLUMNS, SweepRow

from oracles import branch_and_bound_scan


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestComputeRow:
    def test_exact_row_for_proven_power(self):
        (row,) = run_sweep((12, 12), (2, 2))
        assert row.exact == 6
        assert row.construction == 6
        assert row.conjecture_match == "holds"
        assert row.lower_bound <= row.exact <= row.construction
        assert row.method == "branch_and_bound"

    def test_spanning_bound_lifts_lower_bound(self):
        # for d = 4 the third power's proven 12 beats edge connectivity 8
        (row,) = run_sweep((13, 13), (4, 4))
        assert row.lower_bound == 12

    def test_branch_and_bound_row(self):
        (row,) = run_sweep((12, 12), (4, 4))
        assert row.exact == 20
        assert row.conjecture_match == "holds"


class TestLowerBoundOncePerRow:
    @pytest.fixture
    def flow_calls(self, monkeypatch):
        calls = []
        real = solver.edge_connectivity

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(solver, "edge_connectivity", counting)
        return calls

    def test_branch_and_bound_row(self, flow_calls):
        (row,) = run_sweep((12, 12), (4, 4))
        assert (row.method, row.lower_bound) == ("branch_and_bound", 12)
        assert flow_calls == [12]


class TestRunSweep:
    def test_grid_filter_and_order(self):
        rows = run_sweep((8, 12), (2, 5))
        keys = [(r.n, r.d) for r in rows]
        assert keys == sorted(keys)
        assert all(2 <= d < n // 2 for n, d in keys)
        assert (8, 2) in keys and (12, 4) in keys and (8, 4) not in keys

    def test_oversized_top_n_rejected_without_walking_the_grid(self, monkeypatch):
        def no_row(*args):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(sweep, "_sweep_row", no_row)
        with deadline(1.0), pytest.raises(InvalidInputError, match="vertex count 1000000000"):
            run_sweep((10, 10**9), (4, 5))

    def test_huge_d_max_walks_only_the_cells(self, monkeypatch):
        monkeypatch.setattr(sweep, "_sweep_row", lambda n, d: (n, d))
        with deadline(1.0):
            cells = run_sweep((10, 12), (4, 10**12))
        assert cells == [(10, 4), (11, 4), (12, 4), (12, 5)]

    @pytest.mark.parametrize("method", ["local_search", "exhaustive", "branch_and_bound"])
    def test_non_auto_method_rejected_before_any_row(self, monkeypatch, method):
        def no_row(*args):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(sweep, "_sweep_row", no_row)
        with pytest.raises(InvalidInputError, match="sweep method"):
            run_sweep((10, 12), (2, 3), method=method)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_rejected_before_any_row(self, monkeypatch, workers):
        def no_row(*args):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(sweep, "_sweep_row", no_row)
        with pytest.raises(InvalidInputError, match="worker count"):
            run_sweep((10, 10), (2, 2), workers=workers)
        # The check sits in the one map every worker count goes through.
        with pytest.raises(InvalidInputError, match="worker count"):
            solver._parallel_map(no_row, [], workers)

    def test_every_row_is_exact(self):
        # Every cell with 5 <= n <= 22: branch and bound from the d(d+1)
        # bound finds exhaustive's value and lexicographically smallest minimizer.
        rows = run_sweep((5, 22), (2, 10))
        assert len(rows) == 81
        for row in rows:
            want = rna_exhaustive(make_cycle_power(row.n, row.d))
            assert (row.method, row.conjecture_match) == ("branch_and_bound", "holds")
            assert (row.exact, row.certificate) == (want.value, want.certificate.vertices), (row.n, row.d)

    def test_worker_pool_gives_identical_rows(self):
        seq = run_sweep((9, 13), (2, 3), workers=1)
        par = run_sweep((9, 13), (2, 3), workers=4)
        assert [(r.n, r.d, r.exact, r.certificate) for r in seq] == [
            (r.n, r.d, r.exact, r.certificate) for r in par
        ]

    def test_branch_and_bound_certificates_match_the_table_free_search(self):
        # The CSV has no certificate column, so the rows themselves pin them.
        rows = run_sweep((31, 36), (4, 5))
        assert [(r.n, r.d) for r in rows] == [(n, d) for n in range(31, 37) for d in (4, 5)]
        for row in rows:
            g = make_cycle_power(row.n, row.d)
            cfg = SolverConfig(initial_upper_bound=row.d * (row.d + 1))
            value, mask, _, _ = branch_and_bound_scan(g, cfg, edge_connectivity(g), dominance=False)[0]
            assert (row.method, row.exact, row.certificate) == (
                "branch_and_bound", value, tuple(iter_bits(mask))
            ), (row.n, row.d)


class TestOutputs:
    def test_csv_columns_and_reproducibility(self, tmp_path):
        rows = run_sweep((10, 13), (2, 3))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_outputs(rows, out1)
        write_sweep_outputs(run_sweep((10, 13), (2, 3)), out2)
        records = read_rows(out1)
        assert list(records[0]) == CSV_COLUMNS
        strip = lambda rs: [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rs]
        assert strip(records) == strip(read_rows(out2))

    def test_fails_row_writes_certificate_sidecar(self, tmp_path):
        # the mechanism is exercised with a synthetic row: a genuine "fails"
        # would be a counterexample to the conjectured d(d+1) value
        row = SweepRow(
            family="cycle_power",
            n=15,
            d=4,
            lower_bound=12,
            construction=20,
            exact=18,
            method="branch_and_bound",
            conjecture_match="fails",
            elapsed_ms=1,
            certificate=(0, 1, 2, 3, 5, 8, 9),
        )
        sidecars = write_sweep_outputs([row], tmp_path / "sweep.csv")
        assert len(sidecars) == 1
        payload = json.loads(sidecars[0].read_text())
        assert list(payload) == CSV_COLUMNS + ["certificate"]
        assert payload["certificate"] == [0, 1, 2, 3, 5, 8, 9]
        assert payload["exact"] == 18

    def test_holds_rows_write_no_sidecar(self, tmp_path):
        rows = run_sweep((10, 11), (2, 2))
        assert write_sweep_outputs(rows, tmp_path / "s.csv") == []
