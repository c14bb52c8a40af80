import tempfile
from pathlib import Path

from equicut import verify
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
