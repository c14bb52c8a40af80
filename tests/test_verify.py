import tempfile
from pathlib import Path
from types import SimpleNamespace

from equicut import solver, verify
from equicut.sweep import SweepRow


def test_conjecture_sweep_removes_its_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    written = []
    real = verify.write_sweep_outputs

    def recording(rows, out_path):
        written.append(Path(out_path))
        return real(rows, out_path)

    monkeypatch.setattr(verify, "write_sweep_outputs", recording)
    result = verify.check_conjecture_sweep()
    assert result.passed
    assert [p.parent.parent for p in written] == [tmp_path]
    assert list(tmp_path.glob("equicut-sweep-*")) == []
    assert str(tmp_path) not in result.detail


def test_counterexample_certificate_survives_discarded_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # synthetic: a real "fails" row would disprove the conjectured d(d+1)
    row = SweepRow("cycle_power", 15, 4, 12, 20, 18, "exhaustive", "fails", 1, (0, 1, 2, 3, 5, 8, 9))
    monkeypatch.setattr(verify, "run_sweep", lambda *args: [row])
    result = verify.check_conjecture_sweep()
    assert result.passed
    assert "n=15 d=4 cut 18 at [0, 1, 2, 3, 5, 8, 9]" in result.detail
    assert list(tmp_path.glob("equicut-sweep-*")) == []


def test_failed_check_counts_all_failures_and_keeps_twenty(monkeypatch):
    monkeypatch.setattr(verify, "rna_exhaustive", lambda g, *args: SimpleNamespace(value=0))
    result = verify.check_known_values()
    assert result.passed is False
    assert len(result.failures) == 20
    assert result.detail.endswith("; 30 failure(s)")  # 17 cycles and 13 complete graphs
    assert result.elapsed_ms > 0


def test_power_check_names_the_wrong_value():
    table = {(n, 3): SimpleNamespace(value=12) for n in range(8, 23)}
    table[(9, 3)] = SimpleNamespace(value=11)
    result = verify.check_cube_powers(table)
    assert not result.passed
    assert result.failures == ["n=9 d=3: got 11, want 12"]


def test_power_check_reads_its_want_from_known_rna(monkeypatch):
    real = verify.known_rna
    monkeypatch.setattr(verify, "known_rna", lambda spec: 13 if spec.d == 3 else real(spec))
    table = {(n, 3): SimpleNamespace(value=12) for n in range(8, 23)}
    result = verify.check_cube_powers(table)
    assert not result.passed
    assert result.failures[0] == "n=8 d=3: got 12, want 13"


def test_square_check_is_charged_the_table_time(monkeypatch):
    # In-process, with every other check stubbed: check 2 is charged the
    # solve times the table's entries carry.
    monkeypatch.setattr(solver, "_cpu_count", lambda: 1)
    table = {
        (n, d): SimpleNamespace(value=d * (d + 1), elapsed=0.01)
        for n in range(5, 23)
        for d in range(2, n // 2)
    }

    def passed(*args):
        return verify.CheckResult("stub", True, "", 0.0, [])

    monkeypatch.setattr(verify, "solve_cycle_power_table", lambda n_max: table)
    for name in ("check_known_values", "check_formula_identities", "check_solver_agreement",
                 "check_parity_machinery", "check_conjecture_sweep", "check_worker_determinism"):
        monkeypatch.setattr(verify, name, passed)
    results = verify.run_paper_suite()
    square = results[1]
    assert square.criterion == "2-square-powers" and square.passed
    assert square.elapsed_ms >= sum(r.elapsed for r in table.values()) * 1000  # 81 entries, 0.81 s
