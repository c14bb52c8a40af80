import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from equicut.cli import main
from equicut.solver import METHODS, SolverConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_main(*argv):
    """(exit code, stdout, stderr) of one CLI call, argparse exits included;
    for hypothesis tests, which cannot take the function-scoped capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def gen(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, _ = run_cli(capsys, "gen", *argv, "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_cycle_power_file(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "12", "--d", "3")
        data = json.loads(path.read_text())
        assert data["n"] == 12
        assert len(data["edges"]) == 36

    def test_circulant(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "c.json", "--family", "circulant", "--n", "8", "--jumps", "1,4")
        assert len(json.loads(path.read_text())["edges"]) == 12

    def test_complete_collapse_notes(self, capsys, tmp_path):
        path = tmp_path / "k8.json"
        code, _, err = run_cli(
            capsys, "gen", "--family", "cycle-power", "--n", "8", "--d", "4", "--out", str(path)
        )
        assert code == 0
        assert "complete graph" in err
        assert len(json.loads(path.read_text())["edges"]) == 28

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "2", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "error" in err

    def test_oversized_graph_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, _, err = run_cli(
            capsys, "gen", "--family", "complete", "--n", "20000", "--out", str(out)
        )
        assert code == 2
        assert "vertex count 20000 outside 1..512" in err
        assert not out.exists()

    def test_range_error_comes_from_the_builder_before_any_note(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--family", "cycle-power", "--n", "2", "--d", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "cycle power needs n >= 3, got 2" in err
        assert "note:" not in err

    @pytest.mark.parametrize("jumps", [["--jumps", "-1,4"], ["--jumps=-1,4"], ["--jumps", "-1"]])
    def test_negative_jump_reaches_the_builder(self, capsys, tmp_path, jumps):
        out = tmp_path / "g.json"
        code, _, err = run_cli(
            capsys, "gen", "--family", "circulant", "--n", "8", *jumps, "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error: jumps must be strictly increasing positive, got (-1")
        assert not out.exists()

    def test_option_after_jumps_is_not_taken_for_its_value(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "circulant", "--n", "8", "--jumps", "--out", str(tmp_path / "g")])
        assert exc.value.code == 2
        assert "argument --jumps: expected one argument" in capsys.readouterr().err

    def test_reproducible_bytes(self, capsys, tmp_path):
        a = gen(capsys, tmp_path, "a.json", "--family", "circulant", "--n", "9", "--jumps", "1,3")
        b = gen(capsys, tmp_path, "b.json", "--family", "circulant", "--n", "9", "--jumps", "1,3")
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_5(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--family", "cycle", "--n", "6",
            "--out", str(tmp_path / "missing-dir" / "g.json"),
        )
        assert code == 5
        assert "i/o" in err

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(["cycle", "cycle-power", "circulant", "complete"]),
        n=st.one_of(st.integers(-3, 40), st.sampled_from([511, 512, 513])),
        d=st.one_of(st.none(), st.integers(-2, 25)),
        jumps=st.lists(st.integers(-2, 22), max_size=3),
    )
    @example(family="circulant", n=8, d=None, jumps=[1, 4])
    @example(family="circulant", n=8, d=None, jumps=[1, 5])
    @example(family="circulant", n=8, d=None, jumps=[2, 4])
    @example(family="cycle-power", n=3, d=0, jumps=[])
    @example(family="complete", n=1, d=None, jumps=[])
    def test_exit_code_for_any_family_parameters(self, family, n, d, jumps):
        argv = ["gen", "--family", family, "--n", str(n)]
        if d is not None:
            argv += ["--d", str(d)]
        if jumps:
            argv.append("--jumps=" + ",".join(map(str, jumps)))
        # The documented ranges, restated: every family needs 1 <= n <= 512,
        # a cycle-shaped one n >= 3, a cycle power d >= 1, and a circulant
        # strictly increasing jumps in 1..n/2 that generate Z_n.
        ok = 1 <= n <= 512
        if family == "cycle":
            ok = ok and n >= 3
        elif family == "cycle-power":
            ok = ok and n >= 3 and d is not None and d >= 1
        elif family == "circulant":
            ok = ok and n >= 3 and bool(jumps) and 0 < jumps[0]
            ok = ok and all(a < b for a, b in zip(jumps, jumps[1:])) and 2 * max(jumps) <= n
            ok = ok and math.gcd(n, *jumps) == 1
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "g.json"
            code, stdout, err = run_main(*argv, "--out", str(out))
            assert code == (0 if ok else 2), err
            assert stdout == ""
            assert out.exists() == ok
            if ok:
                assert json.loads(out.read_text())["n"] == n
            else:
                assert "error" in err


@pytest.fixture(scope="module")
def c10_square(tmp_path_factory):
    path = tmp_path_factory.mktemp("solve") / "c10-2.json"
    assert main(["gen", "--family", "cycle-power", "--n", "10", "--d", "2", "--out", str(path)]) == 0
    return path


class TestSolve:
    @pytest.mark.parametrize(
        "family,n,d,value",
        [("cycle-power", 10, 2, 6), ("cycle-power", 9, 3, 12), ("cycle-power", 11, 4, 20)],
    )
    def test_exact_values(self, capsys, tmp_path, family, n, d, value):
        path = gen(capsys, tmp_path, "g.json", "--family", family, "--n", str(n), "--d", str(d))
        code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--method", "exhaustive")
        assert code == 0
        result = json.loads(out)
        assert result["value"] == value
        assert result["exact"] is True

    def test_branch_and_bound_method(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "14", "--d", "2")
        code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--method", "branch-and-bound")
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_branch_and_bound_at_the_vertex_limit(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "512", "--d", "1")
        code, out, _ = run_cli(
            capsys, "solve", "--graph", str(path), "--method", "branch-and-bound",
            "--upper-bound", "2",
        )
        assert code == 0
        result = json.loads(out)
        assert (result["value"], result["exact"]) == (2, True)
        assert len(result["certificate"]) == 256

    def test_local_search_not_exact(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "12", "--d", "2")
        code, out, _ = run_cli(
            capsys, "solve", "--graph", str(path), "--method", "local-search", "--seed", "3"
        )
        assert code == 0
        result = json.loads(out)
        assert result["exact"] is False
        assert result["value"] >= 6

    @pytest.mark.parametrize("method", METHODS)
    def test_single_vertex(self, capsys, tmp_path, method):
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"n": 1, "edges": []}))
        code, out, _ = run_cli(
            capsys, "solve", "--graph", str(path), "--method", method.replace("_", "-")
        )
        assert code == 0
        result = json.loads(out)
        assert (result["value"], result["certificate"]) == (0, [])

    def test_disconnected_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        code, _, err = run_cli(capsys, "solve", "--graph", str(path))
        assert code == 2
        assert "connected" in err

    def test_cap_exceeded_exits_3(self, capsys, tmp_path):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle", "--n", "31")
        code, _, err = run_cli(capsys, "solve", "--graph", str(path), "--method", "exhaustive")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("cap", ["-3", "-1", "ten"])
    def test_bad_cap_exits_2(self, capsys, tmp_path, cap):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle", "--n", "12")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", str(path), "--method", "exhaustive", "--cap", cap])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err
        code, out, _ = run_cli(
            capsys, "solve", "--graph", str(path), "--method", "branch-and-bound", "--cap", "0"
        )
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_negative_upper_bound_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch):
        from equicut import solver

        def no_bound(*args):
            raise AssertionError("no lower bound may be computed")

        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "14", "--d", "2")
        monkeypatch.setattr(solver, "rna_lower_bound", no_bound)
        code, out, err = run_cli(
            capsys, "solve", "--graph", str(path), "--method", "branch-and-bound",
            "--upper-bound", "-1",
        )
        assert (code, out) == (2, "")
        assert "initial_upper_bound must be >= 0" in err

    @pytest.mark.parametrize("method", ["exhaustive", "local-search"])
    def test_upper_bound_with_other_methods_exits_2_before_any_work(
        self, capsys, tmp_path, monkeypatch, method
    ):
        # Only branch and bound reads a trusted upper bound.
        from equicut import solver

        def no_bound(*args):
            raise AssertionError("no lower bound may be computed")

        path = gen(capsys, tmp_path, "g.json", "--family", "cycle-power", "--n", "12", "--d", "2")
        monkeypatch.setattr(solver, "rna_lower_bound", no_bound)
        code, out, err = run_cli(
            capsys, "solve", "--graph", str(path), "--method", method, "--upper-bound", "1"
        )
        assert (code, out) == (2, "")
        assert "--upper-bound" in err

    def test_missing_file_exits_5(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--graph", str(tmp_path / "nope.json"))
        assert code == 5

    def test_workers_default_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUICUT_WORKERS", "2")
        from equicut.cli import build_parser

        args = build_parser().parse_args(["solve", "--graph", "x"])
        assert args.workers == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_workers_environment_exits_2(self, capsys, tmp_path, monkeypatch, value):
        path = gen(capsys, tmp_path, "g.json", "--family", "cycle", "--n", "6")
        monkeypatch.setenv("EQUICUT_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", str(path)])
        assert exc.value.code == 2
        assert "EQUICUT_WORKERS" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--workers", "1")
        assert code == 0
        assert json.loads(out)["value"] == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 3.9, "edges": [[0, 1], [1, 2], [0, 2]]},
            {"n": "3", "edges": [[0, 1], [1, 2], [0, 2]]},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2, 1]]},
            {"n": 3, "edges": [[0, 1], [1, 2.0], [0, 2]]},
            {"n": 3, "edges": [[0, 1], ["1", 2], [0, 2]]},
            {"n": 3, "edges": [[0, 1], [1, 2], [False, 2]]},
            {"n": 3, "edges": [[0, 1], [1, 2], {"0": 2}]},
        ],
    )
    def test_non_integer_graph_json_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "solve", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert "error" in err

    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(list(METHODS)),
        cap=st.integers(-3, 14),
        restarts=st.integers(-2, 4),
        upper_bound=st.one_of(st.none(), st.integers(-3, 9)),
    )
    @example(method="exhaustive", cap=9, restarts=1, upper_bound=None)
    @example(method="exhaustive", cap=10, restarts=1, upper_bound=None)
    @example(method="branch_and_bound", cap=0, restarts=1, upper_bound=5)
    @example(method="branch_and_bound", cap=0, restarts=1, upper_bound=6)
    def test_exit_code_for_any_cap_restarts_and_upper_bound(
        self, c10_square, method, cap, restarts, upper_bound
    ):
        from equicut import solver

        method = method.replace("_", "-")
        argv = ["solve", "--graph", str(c10_square), "--method", method, "--workers", "1",
                "--cap", str(cap), "--restarts", str(restarts)]
        if upper_bound is not None:
            argv += ["--upper-bound", str(upper_bound)]
        # C_10^2 has minimum equicut 6 and 10 vertices.
        flags_ok = cap >= 0 and restarts >= 1 and (
            upper_bound is None or (method == "branch-and-bound" and upper_bound >= 0)
        )
        if not flags_ok:
            want = 2
        elif method == "exhaustive" and cap < 10:
            want = 3
        elif upper_bound is not None and upper_bound < 6:
            want = 2  # the trusted bound is below the optimum
        else:
            want = 0
        bounds = []
        with pytest.MonkeyPatch.context() as mp:
            # 4 is the edge connectivity of C_10^2, so every solver runs as usual.
            mp.setattr(solver, "rna_lower_bound", lambda g: bounds.append(g) or 4)
            code, out, err = run_main(*argv)
        assert code == want, err
        if want == 0:
            value = json.loads(out)["value"]
            assert value == 6 or (method == "local-search" and value > 6)
        else:
            assert out == "" and "error" in err
        # A bad flag or the cap is refused before the lower bound is computed.
        assert bool(bounds) == (flags_ok and want != 3)


class TestLabel:
    def test_block_labeling_on_c6(self, capsys, tmp_path):
        graph = gen(capsys, tmp_path, "c6.json", "--family", "cycle", "--n", "6")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 6, "f": [1, 3, 5, 2, 4, 6]}))
        code, out, _ = run_cli(capsys, "label", "--graph", str(graph), "--labeling", str(lab))
        assert code == 0
        result = json.loads(out)
        assert result["negative_count"] == 2
        assert result["neg_edges"] == [[0, 5], [2, 3]]
        assert result["equicut_size"] == 2
        assert result["balanced"] is True

    def test_bad_labeling_exits_2(self, capsys, tmp_path):
        graph = gen(capsys, tmp_path, "c6.json", "--family", "cycle", "--n", "6")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"n": 6, "f": [1, 1, 2, 3, 4, 5]}))
        code, _, _ = run_cli(capsys, "label", "--graph", str(graph), "--labeling", str(lab))
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 4, "f": [1.9, 2, 3, 4]},
            {"f": [True, 2, 3, 4]},
            {"n": 4.0, "f": [1, 2, 3, 4]},
            {"n": "x", "f": [1, 2, 3, 4]},
            {"f": [[1], 2, 3, 4]},
        ],
    )
    def test_non_integer_labeling_json_exits_2(self, capsys, tmp_path, payload):
        graph = gen(capsys, tmp_path, "c4.json", "--family", "cycle", "--n", "4")
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "label", "--graph", str(graph), "--labeling", str(lab))
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2, 3, 4]",  # not an object
            '{"n": 4}',  # no "f"
            '{"f": "1234"}',  # "f" not a list
            '{"f": []}',
            '{"n": 5, "f": [1, 2, 3, 4]}',  # "n" disagrees with len(f)
            '{"f": [1, 2, 3, 4]',  # not valid JSON
        ],
    )
    def test_malformed_labeling_file_exits_2(self, capsys, tmp_path, text):
        graph = gen(capsys, tmp_path, "c4.json", "--family", "cycle", "--n", "4")
        lab = tmp_path / "lab.json"
        lab.write_text(text)
        code, out, err = run_cli(capsys, "label", "--graph", str(graph), "--labeling", str(lab))
        assert code == 2
        assert out == ""
        assert "error" in err


class TestSweep:
    def test_writes_expected_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys,
            "sweep", "--n-min", "8", "--n-max", "12", "--d-min", "2", "--d-max", "3",
            "--out", str(out),
        )
        assert code == 0
        with out.open(newline="") as fh:
            records = list(csv.DictReader(fh))
        assert all(r["exact"] in ("6", "12") for r in records)
        assert all(r["conjecture_match"] == "holds" for r in records)
        assert [(int(r["n"]), int(r["d"])) for r in records] == sorted(
            (int(r["n"]), int(r["d"])) for r in records
        )

    def test_rerun_identical_modulo_elapsed(self, capsys, tmp_path):
        args = ["sweep", "--n-min", "9", "--n-max", "12", "--d-min", "2", "--d-max", "4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0

        def strip(path):
            with path.open(newline="") as fh:
                return [{k: v for k, v in row.items() if k != "elapsed_ms"}
                        for row in csv.DictReader(fh)]

        assert strip(out1) == strip(out2)

    @pytest.mark.parametrize(
        "extra", [["--method", "local-search"], ["--seed", "3"], ["--restarts", "10"]]
    )
    def test_non_exact_and_seed_flags_are_rejected(self, capsys, tmp_path, monkeypatch, extra):
        # Every sweep row is branch and bound, which reads no seed or restarts.
        from equicut import cli

        def fake_sweep(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--n-min", "10", "--n-max", "11", "--d-min", "2", "--d-max", "2",
                *extra, "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("cap", ["-1", "-30", "ten"])
    def test_bad_cap_exits_2_before_any_row(self, capsys, tmp_path, monkeypatch, cap):
        # --cap is a solve flag; no sweep row enumerates.
        from equicut import cli

        def fake_sweep(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--n-min", "10", "--n-max", "11", "--d-min", "2", "--d-max", "2",
                "--cap", cap, "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_upper_bound_flag_is_rejected(self, capsys, tmp_path, monkeypatch):
        # The sweep always hands branch and bound the block construction as
        # its bound, so --upper-bound belongs to solve alone.
        from equicut import cli

        def fake_sweep(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--n-min", "12", "--n-max", "12", "--d-min", "3", "--d-max", "3",
                "--upper-bound", "1",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2
        assert "--upper-bound" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_grid_exits_2_before_any_solve(self, capsys, tmp_path, monkeypatch):
        from equicut import sweep

        def no_row(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(sweep, "_sweep_row", no_row)
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "511", "--n-max", "513", "--d-min", "2", "--d-max", "2",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "vertex count 513 outside 1..512" in err
        assert not (tmp_path / "s.csv").exists()

    @settings(max_examples=100, deadline=None)
    @given(
        n_bounds=st.tuples(st.integers(-3, 600), st.integers(-3, 600)),
        d_bounds=st.tuples(st.integers(-3, 40), st.integers(-3, 40)),
    )
    def test_exit_code_and_cells_for_any_integer_bounds(self, n_bounds, d_bounds):
        from equicut import sweep
        from equicut.graphs import MAX_VERTICES

        cells = []

        def record(n, d):
            cells.append((n, d))
            c = d * (d + 1)
            return sweep.SweepRow("cycle_power", n, d, 0, c, c, "branch_and_bound", "holds", 0)

        want = [
            (n, d)
            for n in range(n_bounds[0], n_bounds[1] + 1)
            for d in range(d_bounds[0], d_bounds[1] + 1)
            if 2 <= d < n // 2
        ]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "_sweep_row", record)
            out = Path(tmp) / "s.csv"
            code = main([
                "sweep", "--n-min", str(n_bounds[0]), "--n-max", str(n_bounds[1]),
                "--d-min", str(d_bounds[0]), "--d-max", str(d_bounds[1]),
                "--workers", "1", "--out", str(out),
            ])
            assert code in (0, 2)
            assert (code == 2) == any(n > MAX_VERTICES for n, _ in want)
            if code == 2:
                assert cells == [] and not out.exists()
            else:
                assert cells == want

    def test_missing_out_dir_exits_5_before_any_solve(self, capsys, tmp_path, monkeypatch):
        from equicut import cli

        def fake_sweep(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "8", "--n-max", "9", "--d-min", "2", "--d-max", "2",
            "--out", str(tmp_path / "missing" / "s.csv"),
        )
        assert code == 5
        assert "i/o" in err

    def test_out_path_that_is_a_directory_exits_5_before_any_solve(
        self, capsys, tmp_path, monkeypatch
    ):
        from equicut import cli

        def fake_sweep(*args, **kwargs):
            raise AssertionError("no row may be solved")

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "8", "--n-max", "9", "--d-min", "2", "--d-max", "2",
            "--out", str(tmp_path),
        )
        assert code == 5
        assert out == ""
        assert "is a directory" in err


class TestVerify:
    def test_formulas_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "formulas", "--n-max", "30", "--json", str(report)
        )
        assert code == 0
        assert "[PASS]" in out
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["checks"][0]["criterion"].startswith("5-")

    def test_json_report_check_keys(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "formulas", "--n-max", "8", "--json", str(report)
        )
        assert code == 0
        (check,) = json.loads(report.read_text())["checks"]
        assert list(check) == ["criterion", "passed", "detail", "elapsed_ms", "failures"]
        assert check["elapsed_ms"] == round(check["elapsed_ms"], 1)

    def test_solvers_suite_small_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "solvers", "--n-max", "8")
        assert code == 0
        assert "all checks passed" in out

    def test_failed_check_exits_4(self, capsys, monkeypatch):
        from equicut import cli
        from equicut.verify import CheckResult

        monkeypatch.setattr(
            cli,
            "run_formulas_suite",
            lambda: [CheckResult("5-formula-identities", False, "forced", 1.0, ["boom"])],
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "formulas")
        assert code == 4
        assert "[FAIL]" in out

    @pytest.mark.parametrize(
        "suite,n_max",
        [
            ("solvers", "4"),  # no n for the random circulants
            ("solvers", "0"),
            ("solvers", "31"),  # above the exhaustive cap its cycle powers need
            ("formulas", "0"),
            ("formulas", "4"),  # no instance in range
            ("formulas", "-3"),
            ("formulas", "513"),  # above MAX_VERTICES
            ("paper", "20"),  # the paper suite has a fixed range
        ],
    )
    def test_bad_n_max_exits_2_before_any_check(self, capsys, tmp_path, monkeypatch, suite, n_max):
        from equicut import cli, verify

        def no_check(*args, **kwargs):
            raise AssertionError("no check may run")

        monkeypatch.setattr(verify, "check_formula_identities", no_check)
        monkeypatch.setattr(verify, "check_solver_agreement", no_check)
        monkeypatch.setattr(cli, "run_paper_suite", no_check)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--n-max", n_max, "--out-dir", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert "error" in err and "n-max" in err.replace("_", "-")
        assert not out_dir.exists()

    @settings(max_examples=100, deadline=None)
    @given(suite=st.sampled_from(["paper", "formulas", "solvers"]), n_max=st.integers(-10, 600))
    @example(suite="formulas", n_max=5)
    @example(suite="formulas", n_max=6)
    @example(suite="formulas", n_max=512)
    @example(suite="formulas", n_max=513)
    @example(suite="solvers", n_max=4)
    @example(suite="solvers", n_max=5)
    @example(suite="solvers", n_max=30)
    @example(suite="solvers", n_max=31)
    def test_exit_code_for_any_n_max(self, suite, n_max):
        from equicut import cli, verify
        from equicut.verify import CheckResult

        calls = []

        def record(name):
            def check(*args, **kwargs):
                calls.append((name, args[-1] if args else None))
                return CheckResult(name, True, "recorded", 0.0, [])

            return check

        # formulas: C_6^2 first; solvers: its random circulants start at n = 5
        # and its cycle powers stay within the exhaustive cap of 30.
        ranges = {"paper": range(0), "formulas": range(6, 513), "solvers": range(5, 31)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "check_formula_identities", record("formulas"))
            mp.setattr(verify, "check_solver_agreement", record("solvers"))
            mp.setattr(cli, "run_paper_suite", record("paper"))
            code, out, err = run_main("verify", "--suite", suite, "--n-max", str(n_max))
        if n_max in ranges[suite]:
            assert code == 0
            assert calls == [(suite, n_max)]
        else:
            assert code == 2
            assert out == "" and "n-max" in err.replace("_", "-")
            assert calls == []

    def test_seed_and_out_dir_accepted_by_formulas_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "formulas", "--n-max", "6",
            "--seed", "1", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert "on 1 (n, d) pairs" in out

    def test_paper_out_dir_created_before_first_check(self, capsys, tmp_path, monkeypatch):
        from equicut import cli

        out_dir = tmp_path / "a" / "b"

        def fake_suite(seed, out_dir):
            assert Path(out_dir).is_dir()
            return []

        monkeypatch.setattr(cli, "run_paper_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--out-dir", str(out_dir))
        assert code == 0
        assert out_dir.is_dir()

    def test_uncreatable_out_dir_exits_5_before_any_check(self, capsys, tmp_path, monkeypatch):
        from equicut import cli

        blocker = tmp_path / "file"
        blocker.write_text("")

        def fake_suite(seed, out_dir):
            raise AssertionError("no check may run")

        monkeypatch.setattr(cli, "run_paper_suite", fake_suite)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "paper", "--out-dir", str(blocker / "sub")
        )
        assert code == 5
        assert out == ""
        assert "i/o" in err

    def test_missing_json_dir_exits_5_before_any_check(self, capsys, tmp_path, monkeypatch):
        from equicut import cli

        def fake_suite(n_max):
            raise AssertionError("no check may run")

        monkeypatch.setattr(cli, "run_formulas_suite", fake_suite)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "formulas", "--json", str(tmp_path / "missing" / "r.json")
        )
        assert code == 5
        assert out == ""
        assert "i/o" in err

    def test_json_path_that_is_a_directory_exits_5_before_any_check(
        self, capsys, tmp_path, monkeypatch
    ):
        from equicut import cli

        def fake_suite(n_max):
            raise AssertionError("no check may run")

        monkeypatch.setattr(cli, "run_formulas_suite", fake_suite)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "formulas", "--n-max", "10", "--json", str(tmp_path)
        )
        assert code == 5
        assert out == ""
        assert "is a directory" in err

    def test_json_report_may_go_in_the_new_out_dir(self, capsys, tmp_path, monkeypatch):
        from equicut import cli

        monkeypatch.setattr(cli, "run_paper_suite", lambda seed, out_dir: [])
        out_dir = tmp_path / "new"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "paper",
            "--out-dir", str(out_dir), "--json", str(out_dir / "r.json"),
        )
        assert code == 0
        assert json.loads((out_dir / "r.json").read_text())["passed"] is True


class TestDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--graph", "g.json"],
            ["sweep", "--n-min", "9", "--n-max", "9", "--d-min", "2", "--d-max", "2", "--out", "s.csv"],
        ],
    )
    def test_solver_flags_default_to_solver_config(self, monkeypatch, argv):
        from equicut.cli import _solver_config, build_parser

        monkeypatch.delenv("EQUICUT_WORKERS", raising=False)
        args = build_parser().parse_args(argv)
        cfg = SolverConfig()
        # Both commands share --workers; only solve takes --cap and builds a SolverConfig.
        assert args.workers == cfg.parallelism
        if args.command == "solve":
            assert _solver_config(args) == cfg
        else:
            assert not hasattr(args, "cap") and not hasattr(args, "method")

    def test_verify_defaults(self):
        from equicut.cli import build_parser
        from equicut.verify import DEFAULT_SEED

        args = build_parser().parse_args(["verify", "--suite", "solvers"])
        assert (args.seed, args.n_max) == (DEFAULT_SEED, None)
