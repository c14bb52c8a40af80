"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
enforces the stated time budget. The checks themselves live in
equicut.verify so the CLI `verify --suite paper` runs the same gate.
"""

import pytest

from equicut import solver
from equicut.verify import run_paper_suite

# criterion id -> wall-clock budget in ms
BUDGETS_MS = {
    "1-known-values": 10_000,
    "2-square-powers": 60_000,
    "3-cube-powers": 120_000,
    "4-sandwich-bounds": 120_000,
    "5-formula-identities": 5_000,
    "6-solver-agreement": 120_000,
    "7-parity-machinery": 10_000,
    "8-conjecture-sweep": 600_000,
    "9-worker-determinism": 120_000,
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-sweep")


@pytest.fixture(scope="module")
def paper_results(out_dir):
    results = run_paper_suite(out_dir=out_dir)
    return {r.criterion: r for r in results}


@pytest.mark.parametrize("criterion", sorted(BUDGETS_MS))
def test_criterion(paper_results, criterion):
    result = paper_results[criterion]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {criterion}: {result.detail} ({result.elapsed_ms:.0f} ms)")
    assert result.passed, f"{criterion}: {result.detail}\n" + "\n".join(result.failures)
    budget = BUDGETS_MS[criterion]
    assert result.elapsed_ms < budget, (
        f"{criterion} took {result.elapsed_ms:.0f} ms, budget {budget} ms"
    )


def test_all_nine_criteria_present(paper_results):
    assert sorted(paper_results) == sorted(BUDGETS_MS)


def test_pool_and_one_process_give_the_same_gate(paper_results, out_dir, monkeypatch):
    # One usable CPU: every gate job and check 9 run in this process.
    monkeypatch.setattr(solver, "_cpu_count", lambda: 1)
    inline = run_paper_suite(out_dir=out_dir)
    assert [r.criterion for r in inline] == list(paper_results) == sorted(BUDGETS_MS)
    for r in inline:
        pooled = paper_results[r.criterion]
        assert (r.passed, r.detail, r.failures) == (pooled.passed, pooled.detail, pooled.failures)
