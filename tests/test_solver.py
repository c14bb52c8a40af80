import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from equicut import (
    DisconnectedGraphError,
    EnumerationCapError,
    InvalidInputError,
    SolverConfig,
    edge_connectivity,
    equicut_size,
    graph_from_edges,
    make_circulant,
    make_complete,
    make_cycle,
    make_cycle_power,
    rna_branch_and_bound,
    rna_exhaustive,
    rna_local_search,
    rna_lower_bound,
)
from equicut import run_sweep, solver
from equicut.bitset import iter_bits, mask_from_vertices
from equicut.graphs import is_rotation_symmetric
from equicut.verify import random_circulant, random_connected_graph

from oracles import (
    edge_connectivity_naive,
    local_search_run_scan,
    min_equicut_naive,
    min_st_cut_naive,
)


@st.composite
def descents(draw):
    """(graph, seed) for one local-search descent: n = 1..70, sometimes with
    a hub joined to every other vertex, whose degree n - 1 spreads the
    levels wide and leaves most of them empty."""
    n = draw(st.integers(1, 70))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5]))
    edges = set(random_connected_graph(random.Random(draw(st.integers(0, 2**32))), n, p).edges())
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges |= {(min(hub, v), max(hub, v)) for v in range(n) if v != hub}
    return graph_from_edges(n, sorted(edges)), draw(st.integers(0, 2**16))


def small_corpus(seed, count=40, n_max=10):
    rng = random.Random(seed)
    graphs = [
        make_cycle(7),
        make_cycle_power(9, 2),
        make_cycle_power(10, 3),
        make_circulant(8, (1, 4)),
        make_complete(6),
    ]
    while len(graphs) < count:
        n = rng.randint(4, n_max)
        graphs.append(random_connected_graph(rng, n))
    return graphs


class TestExhaustive:
    @pytest.mark.parametrize(
        "graph,value",
        [
            (make_complete(5), 6),
            (make_cycle(8), 2),
            (make_cycle_power(12, 3), 12),
            (make_cycle_power(10, 4), 20),  # frozen from the brute-force oracle
        ],
    )
    def test_known_instances(self, graph, value):
        assert rna_exhaustive(graph).value == value

    def test_matches_naive_oracle(self):
        for g in small_corpus(101):
            want_val, want_set = min_equicut_naive(g.n, g.edges())
            result = rna_exhaustive(g)
            assert result.value == want_val
            assert result.certificate.vertices == want_set

    def test_certificate_is_lex_smallest_under_symmetry_too(self):
        graphs = (
            make_cycle_power(9, 2),
            make_cycle_power(11, 2),
            make_cycle_power(11, 3),
            make_circulant(10, (1, 5)),
        )
        for g in graphs:
            want_val, want_set = min_equicut_naive(g.n, g.edges())
            result = rna_exhaustive(g)
            assert (result.value, result.certificate.vertices) == (want_val, want_set)

    def test_cap_refusal(self, monkeypatch):
        # One limit, n <= 30: the largest size is solved, and every larger
        # one is refused before the lower bound is computed.
        assert solver.MAX_EXHAUSTIVE_N == 30
        result = rna_exhaustive(make_cycle(30))
        assert (result.value, result.certificate.vertices) == (2, tuple(range(15)))

        def no_bound(g):
            raise AssertionError("no lower bound may be computed")

        monkeypatch.setattr(solver, "rna_lower_bound", no_bound)
        for n in (31, 257, 512):
            with pytest.raises(EnumerationCapError, match="n <= 30.*branch_and_bound"):
                rna_exhaustive(make_cycle(n))

    def test_tiny_instances(self):
        assert rna_exhaustive(make_complete(2)).value == 1
        k1 = rna_exhaustive(make_complete(1))
        assert (k1.value, k1.certificate.vertices) == (0, ())

    def test_worker_count_does_not_change_result(self):
        for g in (make_cycle_power(12, 2), make_cycle_power(13, 4)):
            base = rna_exhaustive(g, SolverConfig(parallelism=1))
            for workers in (2, 4):
                other = rna_exhaustive(g, SolverConfig(parallelism=workers))
                assert (other.value, other.certificate) == (base.value, base.certificate)

    def test_worker_count_invisible_across_plane_splits(self):
        # Odd and not rotation-symmetric, so nothing is pinned: the blocks
        # with smallest member 0 and 1 hold more than _BLOCK_SUBSETS subsets
        # and split inside their tasks, and with two workers they run in a pool.
        g = random_connected_graph(random.Random(2121), 21)
        assert not is_rotation_symmetric(g)
        assert math.comb(20, 9) > solver._BLOCK_SUBSETS
        base = rna_exhaustive(g, SolverConfig(parallelism=1))
        split = rna_exhaustive(g, SolverConfig(parallelism=2))
        assert (split.value, split.certificate) == (base.value, base.certificate)
        assert equicut_size(g, base.certificate) == base.value

    @pytest.mark.parametrize("n", range(13))
    def test_planes_follow_combinations_order(self, n):
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            planes = solver._planes(n, k)
            assert len(planes) == n
            for v, plane in enumerate(planes):
                assert plane == sum(1 << j for j, sub in enumerate(subsets) if v in sub), (n, k, v)

    def test_narrow_blocks_split_and_merge_to_the_naive_minimizer(self, monkeypatch):
        # With blocks of at most 8 subsets nearly every block splits, many
        # times over; trees, K_n, cycles and circulants tie on many subsets,
        # so the merges decide the certificate.
        monkeypatch.setattr(solver, "_BLOCK_SUBSETS", 8)
        rng = random.Random(2323)
        graphs = small_corpus(2222)
        graphs += [random_connected_graph(rng, n, 0.0) for n in range(2, 13)]
        graphs += [make_complete(n) for n in range(1, 11)]
        graphs += [make_cycle(n) for n in range(3, 13)]
        graphs += [random_circulant(rng, rng.randint(5, 12)) for _ in range(10)]
        for g in graphs:
            result = rna_exhaustive(g)
            assert (result.value, result.certificate.vertices) == min_equicut_naive(g.n, g.edges())

    @pytest.mark.parametrize("block_subsets", [solver._BLOCK_SUBSETS, 8])
    def test_block_reads_the_first_minimizer_from_its_planes(self, monkeypatch, block_subsets):
        # Some vertices below lo are neither pinned nor in X; with blocks of
        # at most 8 subsets most blocks split before they are scored.
        monkeypatch.setattr(solver, "_BLOCK_SUBSETS", block_subsets)
        rng = random.Random(3434)
        for _ in range(150):
            n = rng.randint(1, 12)
            g = random_connected_graph(rng, n, rng.choice((0.0, 0.2, 0.5)))
            k = rng.randint(0, n)
            lo = rng.randint(0, n)
            pinned = mask_from_vertices(rng.sample(range(lo), rng.randint(max(0, k - n + lo), min(k, lo))))
            best = None
            for sub in combinations(range(lo, n), k - pinned.bit_count()):
                x = pinned | mask_from_vertices(sub)
                cut = sum((g.adj[u] & ~x).bit_count() for u in iter_bits(x))
                if best is None or cut < best[0]:
                    best = (cut, x)
            assert solver._min_equicut_block(g, pinned, lo, k) == best, (g.edges(), pinned, lo, k)

    def test_three_vertex_path(self):
        # Odd, not rotation-symmetric and k = 1: three one-subset blocks.
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert not solver._pin_zero(g)
        ex = rna_exhaustive(g)
        assert (ex.value, ex.certificate.vertices) == min_equicut_naive(g.n, g.edges())

    def test_every_small_circulant_matches_naive_oracle(self):
        # Rotation symmetry pins {0, 1}, plus the evens set as one extra
        # candidate (PROOF.md, Lemma P); some of these need that candidate.
        evens_answers = []
        solved = 0
        for n in range(4, 14):
            jumps = range(1, n // 2 + 1)
            for size in range(1, len(jumps) + 1):
                for js in combinations(jumps, size):
                    try:
                        g = make_circulant(n, js)
                    except DisconnectedGraphError:
                        continue
                    solved += 1
                    result = rna_exhaustive(g)
                    want = min_equicut_naive(g.n, g.edges())
                    assert (result.value, result.certificate.vertices) == want, (n, js)
                    if want[1] == tuple(range(0, 2 * (n // 2), 2)):
                        evens_answers.append((n, js))
        assert solved == 218
        assert len(evens_answers) == 36
        assert (7, (2,)) in evens_answers

    def test_odd_asymmetric_graph_keeps_vertex_zero_free(self):
        # Odd n, no rotation symmetry: with vertex 0 pinned to the floor(n/2)
        # side the best cut is 3, but the minimum equicut is 2.
        g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
        want_val, want_set = min_equicut_naive(g.n, g.edges())
        assert want_val == 2
        ex = rna_exhaustive(g)
        assert (ex.value, ex.certificate.vertices) == (want_val, want_set)
        # a trusted upper bound skips the local-search incumbent
        bb = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=6))
        assert bb.value == equicut_size(g, bb.certificate) == 2


class TestBranchAndBound:
    def test_agrees_with_exhaustive(self):
        for g in small_corpus(202, count=50):
            ex = rna_exhaustive(g)
            bb = rna_branch_and_bound(g)
            assert bb.value == ex.value
            assert equicut_size(g, bb.certificate) == bb.value
            assert bb.lower_bound_used <= bb.value <= bb.upper_bound_used

    def test_c14_square(self):
        assert rna_branch_and_bound(make_cycle_power(14, 2)).value == 6

    def test_c10_power4(self):
        assert rna_branch_and_bound(make_cycle_power(10, 4)).value == 20

    def test_with_construction_upper_bound(self):
        g = make_cycle_power(13, 4)
        result = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=20))
        assert result.value == 20
        assert equicut_size(g, result.certificate) == 20
        assert result.upper_bound_used == 20

    def test_upper_bound_below_optimum_is_rejected(self):
        g = make_cycle_power(8, 2)
        with pytest.raises(InvalidInputError, match="initial_upper_bound"):
            rna_branch_and_bound(g, SolverConfig(initial_upper_bound=3))

    def test_open_range_decisions(self):
        # Every C_n^d with 2d+2 <= n < d(d+1), d = 4..6: no equicut below
        # d(d+1), one of exactly d(d+1), and exhaustive agrees up to n = 22.
        checked = 0
        for d in (4, 5, 6):
            for n in range(2 * d + 2, d * (d + 1)):
                g = make_cycle_power(n, d)
                with pytest.raises(InvalidInputError, match="initial_upper_bound"):
                    rna_branch_and_bound(g, SolverConfig(initial_upper_bound=d * (d + 1) - 1))
                result = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=d * (d + 1)))
                assert result.value == equicut_size(g, result.certificate) == d * (d + 1)
                if n <= 22:
                    assert rna_exhaustive(g).value == d * (d + 1)
                    checked += 1
        assert checked == 30

    def test_single_vertex(self):
        result = rna_branch_and_bound(make_complete(1))
        assert result.value == 0
        assert result.certificate.vertices == ()


class TestLocalSearch:
    def test_c20_square_hits_optimum(self):
        g = make_cycle_power(20, 2)
        result = rna_local_search(g, SolverConfig(restarts=100, rng_seed=7))
        assert result.value == 6
        assert not result.exact

    def test_never_below_optimum(self):
        for g in small_corpus(303, count=25, n_max=9):
            ls = rna_local_search(g, SolverConfig(restarts=6, rng_seed=5))
            assert ls.value >= rna_exhaustive(g).value
            assert ls.value >= edge_connectivity(g)
            assert equicut_size(g, ls.certificate) == ls.value

    def test_deterministic_given_seed(self):
        g = make_cycle_power(15, 3)
        cfg = SolverConfig(restarts=20, rng_seed=99)
        a = rna_local_search(g, cfg)
        b = rna_local_search(g, replace(cfg))
        assert (a.value, a.certificate) == (b.value, b.certificate)

    def test_restart_split_across_workers_is_invisible(self):
        g = make_cycle_power(14, 3)
        cfg = SolverConfig(restarts=16, rng_seed=4)
        seq = rna_local_search(g, cfg)
        par = rna_local_search(g, replace(cfg, parallelism=4))
        assert (seq.value, seq.certificate) == (par.value, par.certificate)

    def test_move_selection_matches_pair_scan(self):
        # Cycles, cycle powers and complete graphs tie on many swaps, so the
        # (u, v) tie-break decides the descent.
        rng = random.Random(606)
        graphs = [make_cycle(n) for n in range(3, 30)]
        graphs += [make_cycle_power(n, d) for n in range(5, 30) for d in range(2, (n - 1) // 2 + 1)]
        graphs += [make_complete(n) for n in range(2, 16)]
        graphs += [
            random_connected_graph(rng, rng.randint(4, 40), p)
            for p in (0.0, 0.05, 0.2, 0.6)
            for _ in range(8)
        ]
        for g in graphs:
            edges = g.edges()
            nbrs = tuple(tuple(iter_bits(row)) for row in g.adj)
            for seed in range(5):
                got = solver._local_search_run(g, nbrs, g.n // 2, seed)
                want = local_search_run_scan(g.n, edges, g.n // 2, random.Random(seed))
                assert got == want, (g.n, seed)

    @settings(max_examples=120, deadline=None)
    @given(descents())
    @example((make_complete(1), 0))
    @example((make_complete(2), 0))
    @example((graph_from_edges(69, [(0, v) for v in range(1, 69)]), 3))
    def test_descent_matches_pair_scan(self, case):
        g, seed = case
        nbrs = tuple(tuple(iter_bits(row)) for row in g.adj)
        got = solver._local_search_run(g, nbrs, g.n // 2, seed)
        assert got == local_search_run_scan(g.n, g.edges(), g.n // 2, random.Random(seed))

    def test_restart_tasks_stay_small(self):
        # Each queued task carries its restart's seed; a seeded random.Random
        # per task would hold about 3 KB each, 15 MB here, before any descent.
        tracemalloc.start()
        try:
            rna_local_search(make_cycle_power(10, 2), SolverConfig(restarts=5000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_neighbour_tuples_reach_pool_workers(self):
        # Each task carries the neighbour tuples; a pool worker unpickles them.
        g = random_connected_graph(random.Random(808), 80, 0.08)
        cfg = SolverConfig(restarts=6, rng_seed=17)
        one = rna_local_search(g, cfg)
        two = rna_local_search(g, replace(cfg, parallelism=2))
        assert (one.value, one.certificate) == (two.value, two.certificate)


def two_dense_halves(rng, n):
    """Two dense random halves joined by one to four edges: lambda below the
    minimum degree."""
    a, b = random_connected_graph(rng, n // 2, 0.6), random_connected_graph(rng, n - n // 2, 0.6)
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    edges += {(rng.randrange(a.n), a.n + rng.randrange(b.n)) for _ in range(rng.randint(1, 4))}
    return graph_from_edges(n, edges)


def max_flow_nx(nx, g, s, t):
    """The s-t max-flow of g by networkx, every edge one unit each way."""
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(((u, v) for e in g.edges() for u, v in (e, e[::-1])), capacity=1)
    return nx.maximum_flow_value(h, s, t)


class TestEdgeConnectivity:
    @pytest.mark.parametrize(
        "graph,value",
        [
            (make_cycle_power(9, 2), 4),
            (make_cycle(12), 2),
            (make_complete(6), 5),
            (make_complete(1), 0),
            (make_complete(2), 1),
        ],
    )
    def test_known_values(self, graph, value):
        assert edge_connectivity(graph) == value

    def test_matches_naive_oracle(self):
        rng = random.Random(404)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 9))
            assert edge_connectivity(g) == edge_connectivity_naive(g.n, g.edges())

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(406)
        graphs = [random_connected_graph(rng, n, rng.choice((0.05, 0.15, 0.4))) for n in range(10, 61, 5)]
        graphs += [two_dense_halves(rng, n) for n in range(10, 61, 10)]
        trees = [random_connected_graph(rng, rng.randint(10, 60), 0.0) for _ in range(5)]
        graphs += trees + [make_cycle_power(n, d) for n, d in ((20, 3), (31, 5), (60, 4))]
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert edge_connectivity(g) == nx.edge_connectivity(h)
        assert [edge_connectivity(g) for g in trees] == [1] * 5

    def test_every_graph_on_up_to_six_vertices(self):
        # Connected or not, against the least boundary of a vertex set holding
        # vertex 0, counted over the edges as bits of the graph's index.
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            full = (1 << n) - 1
            separated = [
                sum(1 << i for i, (u, v) in enumerate(pairs) if (side >> u & 1) != (side >> v & 1))
                for side in range(1, full, 2)
            ]
            for edge_bits in range(1 << len(pairs)):
                adj = [0] * n
                for i, (u, v) in enumerate(pairs):
                    if edge_bits >> i & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                want = min(((edge_bits & sep).bit_count() for sep in separated), default=0)
                assert solver._rows_connectivity(adj) == want, (n, edge_bits)

    def test_max_flow_is_capped_at_stop_at(self):
        # Two K_5 joined by two edges: a flow across them is 2, one inside a K_5 4 or 5.
        bridged = graph_from_edges(
            10,
            [(u, v) for side in (0, 5) for u in range(side, side + 5) for v in range(u + 1, side + 5)]
            + [(0, 5), (1, 6)],
        )
        for g in (bridged, random_connected_graph(random.Random(407), 9, 0.3)):
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    true = min_st_cut_naive(g.n, g.edges(), s, t)
                    for stop in range(true + 2):
                        assert solver._max_flow_unit(g.adj, s, t, stop) == min(true, stop)

    def test_max_flow_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(408)
        graphs = [
            random_connected_graph(rng, n, p) for n in range(20, 61, 5) for p in (0.05, 0.15, 0.4)
        ]
        graphs += [make_cycle_power(60, 4)] + [two_dense_halves(rng, n) for n in range(20, 61, 10)]
        for g in graphs:
            least = min(row.bit_count() for row in g.adj)
            for _ in range(5):
                s, t = rng.sample(range(g.n), 2)
                true = max_flow_nx(nx, g, s, t)
                for cap in (1, least, g.n):
                    assert solver._max_flow_unit(g.adj, s, t, cap) == min(true, cap), (g, s, t, cap)

    def test_max_flow_walk_backs_out_of_a_dead_end(self):
        # Layers {0}, {1, 2}, {3, 4}, {5}. The first walk of the first phase
        # sends 0-1-3-5; the second walks back 5-4-1, but the arc 0 -> 1 is
        # used, so 1 is dropped and the walk goes on 4-2-0 in the same phase.
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
        assert [solver._max_flow_unit(g.adj, 0, 5, cap) for cap in (0, 1, 2, 3)] == [0, 1, 2, 2]

    def test_vertex_transitive_equals_min_degree(self):
        # Mader's theorem, through the max-flows: a circulant and a copy with
        # its vertices shuffled (vertex-transitive, but not rotation-symmetric
        # in its labels) both have λ = δ.
        rng = random.Random(405)
        for _ in range(15):
            g = random_circulant(rng, rng.randint(5, 12))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = graph_from_edges(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
            degree = g.adj[0].bit_count()
            assert solver._rows_connectivity(g.adj) == solver._rows_connectivity(h.adj) == degree
            assert edge_connectivity(h) == degree

    def test_rotation_symmetric_graphs_run_no_flow(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        rng = random.Random(409)
        graphs = [random_circulant(rng, rng.randint(3, 40)) for _ in range(40)]
        graphs += [make_circulant(n, (1, n // 2)) for n in (4, 10, 24)]
        # A jump of n/2 adds one neighbour, not two.
        assert sum(g.n % 2 == 0 and g.adj[0] >> g.n // 2 & 1 for g in graphs) >= 5
        want = []
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            want.append(nx.edge_connectivity(h))
            assert solver._rows_connectivity(g.adj) == want[-1], g

        def no_flow(adj):
            raise AssertionError("max-flow on a rotation-symmetric graph")

        monkeypatch.setattr(solver, "_rows_connectivity", no_flow)
        assert [edge_connectivity(g) for g in graphs] == want


class TestLowerBound:
    def test_examples(self):
        assert rna_lower_bound(make_cycle_power(11, 3)) == 6
        assert rna_lower_bound(make_complete(7)) == 6
        assert rna_lower_bound(make_cycle(9)) == 2

    def test_sandwich_on_solved_instances(self):
        for g in small_corpus(506, count=20, n_max=9):
            exact = rna_exhaustive(g).value
            assert rna_lower_bound(g) <= exact
            assert exact <= rna_local_search(g, SolverConfig(restarts=8, rng_seed=1)).value

    def test_value_monotone_along_power_chain(self):
        # each power is a spanning subgraph of the next, so values never drop
        for n in (11, 14, 16):
            values = [rna_exhaustive(make_cycle_power(n, d)).value for d in range(1, n // 2)]
            assert values == sorted(values)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(restarts=0)
        with pytest.raises(InvalidInputError):
            SolverConfig(parallelism=0)
        with pytest.raises(InvalidInputError, match="initial_upper_bound"):
            SolverConfig(initial_upper_bound=-1)
        assert SolverConfig(initial_upper_bound=0).initial_upper_bound == 0

    def test_result_json_shape(self):
        result = rna_exhaustive(make_cycle(8))
        d = result.to_json_dict()
        assert set(d) == {
            "value",
            "certificate",
            "method",
            "lower_bound",
            "upper_bound",
            "exact",
            "elapsed_ms",
        }
        assert d["value"] == 2
        assert d["method"] == "exhaustive"
        assert d["exact"] is True


class TestTaskList:
    """Every worker count hands _parallel_map the same tasks."""

    @staticmethod
    def record_tasks(monkeypatch):
        calls = []
        parallel_map = solver._parallel_map

        def recording(fn, tasks, workers):
            calls.append([(fn, *task) for task in tasks])
            return parallel_map(fn, tasks, 1)

        monkeypatch.setattr(solver, "_parallel_map", recording)
        return calls

    def test_exhaustive_blocks(self, monkeypatch):
        g = random_connected_graph(random.Random(1818), 13)
        assert not solver._pin_zero(g)
        calls = self.record_tasks(monkeypatch)
        results = [rna_exhaustive(g, SolverConfig(parallelism=w)) for w in (1, 4)]
        assert calls[0] == calls[1]
        assert len(calls[0]) == g.n - g.n // 2 + 1
        assert results[0].certificate == results[1].certificate

    def test_rotation_symmetric_blocks(self, monkeypatch):
        # {0, 1} pinned: one block per third member, then the evens set, so
        # --workers still has blocks to spread.
        g = make_cycle_power(22, 2)
        calls = self.record_tasks(monkeypatch)
        results = [rna_exhaustive(g, SolverConfig(parallelism=w)) for w in (1, 4)]
        assert calls[0] == calls[1]
        tasks = calls[0]
        assert [t[2] for t in tasks[:-1]] == [0b11 | 1 << s for s in range(2, 14)]
        assert tasks[-1][2:] == (sum(1 << v for v in range(0, 22, 2)), 22, 11)
        assert results[0].certificate.vertices == tuple(range(11))

    def test_local_search_restarts(self, monkeypatch):
        g = make_cycle_power(15, 3)
        calls = self.record_tasks(monkeypatch)
        results = [rna_local_search(g, SolverConfig(restarts=7, rng_seed=3, parallelism=w)) for w in (1, 4)]
        assert calls[0] == calls[1]
        # Seven restarts, one range each: the seeds of restarts 0..6 in order.
        assert [t[-3:] for t in calls[0]] == [(3, r, r + 1) for r in range(7)]
        assert results[0].certificate == results[1].certificate

    def test_local_search_task_count_is_bounded(self, monkeypatch):
        # 10^9 restarts are 64 tasks, each a range; no task list grows with
        # the restart count. Recording only, no restart runs. 10^9 comes last,
        # so a task list that grows fails on 65 before it fills the memory.
        calls = []
        monkeypatch.setattr(solver, "_parallel_map", lambda fn, tasks, workers: calls.append(tasks) or [(0, 0)])
        g = make_cycle_power(15, 3)
        for restarts in (64, 65, 1000, 10**9):
            for workers in (1, 4):
                solver._local_search_best(g, SolverConfig(restarts=restarts, rng_seed=5, parallelism=workers))
            assert calls[-1] == calls[-2]
            ranges = [t[-2:] for t in calls[-1]]
            assert len(ranges) == min(restarts, 64)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == restarts
            assert {hi - lo for lo, hi in ranges} <= {restarts // 64, -(-restarts // 64)}
            assert {t[-3] for t in calls[-1]} == {5}

    def test_local_search_ranges_run_every_restart_once(self, monkeypatch):
        # The ranges run restarts 0..R-1 once each, in order, and their best
        # is the least cut, ties to the smallest vertex tuple.
        run = solver._local_search_run
        runs = []

        def recording(g, nbrs, k, seed):
            runs.append((seed, run(g, nbrs, k, seed)))
            return runs[-1][1]

        monkeypatch.setattr(solver, "_local_search_run", recording)
        rng = random.Random(410)
        for restarts in (1, 63, 64, 65, 130):
            g = random_connected_graph(rng, rng.randint(8, 30), 0.2)
            runs.clear()
            got = solver._local_search_best(g, SolverConfig(restarts=restarts, rng_seed=7))
            assert [seed for seed, _ in runs] == [solver._restart_seed(7, r) for r in range(restarts)]
            assert got == min((r for _, r in runs), key=lambda r: (r[0], tuple(iter_bits(r[1])))), restarts


@pytest.fixture
def fresh_pool():
    """No shared pool before or after the test, so a swapped
    solver._start_pool neither meets a real pool nor leaves a fake one behind."""
    solver._close_pool()
    yield
    solver._close_pool()


class FakePool:
    """Runs starmap in this process and logs its life as (event, size)."""

    events: list = []

    def __init__(self, size):
        self.size = size
        self.events.append(("create", size))

    def starmap(self, fn, tasks, chunksize):
        return [fn(*task) for task in tasks]

    def terminate(self):
        self.events.append(("terminate", self.size))

    def join(self):
        self.events.append(("join", self.size))


@pytest.fixture
def fake_pool(fresh_pool, monkeypatch):
    events = []
    monkeypatch.setattr(FakePool, "events", events)
    monkeypatch.setattr(solver, "_start_pool", FakePool)
    return events


def run_in_subprocess(code: str) -> str:
    src = Path(solver.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestParallelMap:
    def test_pool_size_is_clamped(self, fake_pool, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 3)
        g = make_cycle_power(12, 2)
        cfg = SolverConfig(parallelism=64, restarts=64)
        assert rna_exhaustive(g, cfg).value == rna_exhaustive(g).value
        assert rna_local_search(g, cfg).value == rna_local_search(g, replace(cfg, parallelism=1)).value
        rows = run_sweep((9, 12), (2, 3), workers=64)
        assert [r.exact for r in rows] == [6, 12] * 4
        # Three calls of size 3 share one pool.
        assert fake_pool == [("create", 3)]

    def test_single_slot_runs_inline(self, monkeypatch):
        monkeypatch.setattr(solver, "_start_pool", None)
        assert solver._parallel_map(abs, [(-1,), (2,), (-3,)], 1) == [1, 2, 3]
        monkeypatch.setattr(solver, "_cpu_count", lambda: 1)
        assert solver._parallel_map(abs, [(-4,), (5,)], 8) == [4, 5]

    def test_size_change_closes_the_old_pool_first(self, fake_pool, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 8)
        tasks = [(-v,) for v in range(6)]
        assert solver._parallel_map(abs, tasks, 2) == list(range(6))
        assert solver._parallel_map(abs, tasks, 2) == list(range(6))
        assert solver._parallel_map(abs, tasks[:3], 4) == [0, 1, 2]
        assert fake_pool == [("create", 2), ("terminate", 2), ("join", 2), ("create", 3)]
        solver._close_pool()
        assert fake_pool[-2:] == [("terminate", 3), ("join", 3)]
        assert solver._pool is None

    def test_cpu_count_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(solver.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert solver._cpu_count() == 2
        monkeypatch.delattr(solver.os, "sched_getaffinity", raising=False)
        assert solver._cpu_count() == 64
        monkeypatch.setattr(solver.os, "cpu_count", lambda: None)
        assert solver._cpu_count() == 1

    @pytest.mark.skipif(solver._cpu_count() < 2, reason="a pool needs 2 CPUs")
    def test_same_size_calls_reuse_the_real_pool(self, fresh_pool):
        tasks = [()] * 8
        first = set(solver._parallel_map(os.getpid, tasks, 2))
        pool = solver._pool
        second = set(solver._parallel_map(os.getpid, tasks, 2))
        assert solver._pool is pool
        assert os.getpid() not in first | second
        assert first | second <= {p.pid for p in pool[1]._pool}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_forgets_the_pool(self, fake_pool, monkeypatch):
        monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
        solver._parallel_map(abs, [(-1,), (-2,)], 2)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if solver._pool is None else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert solver._pool is not None

    def test_import_starts_no_process(self):
        out = run_in_subprocess(
            "import multiprocessing, threading\n"
            "import equicut, equicut.cli\n"
            "from equicut import solver\n"
            "print(solver._pool, multiprocessing.active_children(), threading.active_count())\n"
        )
        assert out.split() == ["None", "[]", "1"]

    def test_import_loads_no_multiprocessing(self):
        out = run_in_subprocess(
            "import sys\n"
            "import equicut, equicut.cli\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        assert out.split() == ["False"]

    @pytest.mark.skipif(solver._cpu_count() < 2, reason="a pool needs 2 CPUs")
    def test_no_worker_outlives_the_process(self):
        out = run_in_subprocess(
            "from equicut import SolverConfig, make_cycle_power, rna_exhaustive, solver\n"
            "rna_exhaustive(make_cycle_power(18, 3), SolverConfig(parallelism=2))\n"
            "print(*(p.pid for p in solver._pool[1]._pool))\n"
        )
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 10
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive, pids))
