import json
import math
import random
import tracemalloc

import pytest

from equicut import (
    DisconnectedGraphError,
    GraphFamilySpec,
    InvalidInputError,
    graph_from_edges,
    graph_from_json_dict,
    graph_to_json_dict,
    is_rotation_symmetric,
    load_graph,
    make_circulant,
    make_complete,
    make_cycle,
    make_cycle_power,
    save_graph,
)
from equicut.graphs import MAX_VERTICES, Graph


class TestCycle:
    def test_triangle(self):
        g = make_cycle(3)
        assert g.m == 3
        assert all(g.adj[v].bit_count() == 2 for v in range(3))

    def test_even_cycle_is_bipartite(self):
        g = make_cycle(6)
        assert g.m == 6
        assert all((u % 2) != (v % 2) for u, v in g.edges())

    def test_antipodal_distance(self):
        g = make_cycle(10)
        assert g.m == 10
        # 5 is the one vertex at distance 5 from 0: C_10^4 joins 0 to all others.
        assert make_cycle_power(10, 4).adj[0] == g.full_mask & ~0b100001

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            make_cycle(2)


class TestCyclePower:
    def test_collapse_to_complete(self):
        assert make_cycle_power(5, 2) == make_complete(5)
        assert make_cycle_power(5, 2).m == 10
        assert make_cycle_power(8, 4) == make_complete(8)
        for n in range(3, 41):
            for d in range(n // 2, n + 2):
                assert make_cycle_power(n, d) == make_complete(n), (n, d)
            assert make_cycle(n) == make_circulant(n, (1,))
            assert make_cycle(n) == graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def test_regularity(self):
        g = make_cycle_power(7, 2)
        assert g.m == 14
        assert all(g.adj[v].bit_count() == 4 for v in range(7))

    def test_equals_contiguous_circulant(self):
        assert make_cycle_power(12, 3) == make_circulant(12, (1, 2, 3))

    def test_regular_with_nd_edges(self):
        for n in range(5, 16):
            for d in range(1, n // 2):
                g = make_cycle_power(n, d)
                assert g.m == n * d
                assert all(g.adj[v].bit_count() == 2 * d for v in range(n))

    def test_power_chain_is_nested(self):
        for n in (9, 12, 15):
            prev = set()
            for d in range(1, n // 2):
                cur = set(make_cycle_power(n, d).edges())
                assert prev <= cur
                prev = cur

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            make_cycle_power(2, 1)
        with pytest.raises(InvalidInputError):
            make_cycle_power(8, 0)


class TestCirculant:
    def test_half_jump_halves_degree(self):
        g = make_circulant(8, (1, 4))
        assert g.m == 12
        assert all(g.adj[v].bit_count() == 3 for v in range(8))

    def test_matches_cycle_power(self):
        assert make_circulant(9, (1, 2)) == make_cycle_power(9, 2)

    def test_all_jumps_gives_complete(self):
        assert make_circulant(6, (1, 2, 3)) == make_complete(6)

    def test_vertex_transitive_shape(self):
        assert is_rotation_symmetric(make_circulant(11, (2, 3)))
        assert is_rotation_symmetric(make_cycle_power(10, 3))

    def test_rows_match_networkx(self):
        # Seeded jump sets with n <= 64, half of the even n with a jump of n/2.
        nx = pytest.importorskip("networkx")
        rng = random.Random(3131)
        half_jumps = 0
        for _ in range(300):
            n = rng.randint(3, 64)
            jumps = set(rng.sample(range(1, (n + 1) // 2), rng.randint(1, min(4, (n - 1) // 2))))
            if n % 2 == 0 and rng.random() < 0.5:
                jumps.add(n // 2)
            jumps = sorted(jumps)
            if math.gcd(n, *jumps) != 1:
                continue
            half_jumps += 2 * jumps[-1] == n
            want = sorted(tuple(sorted(e)) for e in nx.circulant_graph(n, jumps).edges())
            assert make_circulant(n, jumps).edges() == want, (n, jumps)
        assert half_jumps >= 30

    def test_rejects_bad_jump_sets(self):
        with pytest.raises(InvalidInputError):
            make_circulant(8, ())
        with pytest.raises(InvalidInputError):
            make_circulant(8, (1, 5))
        with pytest.raises(InvalidInputError):
            make_circulant(8, (2, 2))
        with pytest.raises(InvalidInputError):
            make_circulant(8, (3, 1))

    def test_rejects_disconnected_jump_set(self):
        with pytest.raises(DisconnectedGraphError):
            make_circulant(8, (2, 4))


class TestComplete:
    @pytest.mark.parametrize("n,m", [(2, 1), (4, 6), (5, 10)])
    def test_edge_counts(self, n, m):
        assert make_complete(n).m == m

    def test_single_vertex(self):
        g = make_complete(1)
        assert g.m == 0


class TestLoader:
    def test_round_trip(self, tmp_path):
        g = make_cycle_power(9, 2)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g
        data = json.loads(path.read_text())
        assert data["n"] == 9
        assert data["edges"] == sorted(data["edges"])
        assert all(u < v for u, v in data["edges"])

    def test_edges_sorted_lexicographically(self):
        edges = graph_to_json_dict(make_circulant(7, (2, 3)))["edges"]
        assert edges == sorted(edges)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            graph_from_edges(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidInputError):
            graph_from_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            graph_from_edges(3, [(0, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            graph_from_edges(4, [(0, 1), (2, 3)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(InvalidInputError, match="asymmetric adjacency between 1 and 0"):
            Graph(2, [0b10, 0b00])
        rng = random.Random(31)
        for _ in range(40):
            rows = list(make_cycle_power(rng.randint(5, 70), 2).adj)
            u, v = rng.sample(range(len(rows)), 2)
            rows[u] ^= 1 << v
            with pytest.raises(InvalidInputError, match="asymmetric"):
                Graph(len(rows), rows)

    def test_rejects_oversized(self):
        with pytest.raises(InvalidInputError):
            graph_from_edges(MAX_VERTICES + 1, [])

    @pytest.mark.parametrize("build", [make_cycle, make_complete])
    def test_builders_reject_oversized_before_building_rows(self, build):
        # n^2 bits of adjacency rows would take tens of MB before Graph saw n.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="vertex count 20000"):
                build(20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_malformed_json_dict(self):
        with pytest.raises(InvalidInputError):
            graph_from_json_dict(["not", "a", "dict"])
        with pytest.raises(InvalidInputError):
            graph_from_json_dict({"n": 3})

    @pytest.mark.parametrize("n", [3.9, 3.0, "3", True, None])
    def test_json_n_must_be_integer(self, n):
        with pytest.raises(InvalidInputError, match='"n" must be an integer'):
            graph_from_json_dict({"n": n, "edges": [[0, 1], [1, 2]]})

    @pytest.mark.parametrize("edge", [[1], [1, 2, 0], [1.0, 2], ["1", 2], [1, True], (1, 2), "12"])
    def test_json_edges_must_be_integer_pairs(self, edge):
        with pytest.raises(InvalidInputError, match="malformed edge"):
            graph_from_json_dict({"n": 3, "edges": [[0, 1], edge]})
        assert graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}) == make_cycle(3)


class TestFamilySpec:
    def test_build_dispatch(self):
        assert GraphFamilySpec("cycle", 6).build() == make_cycle(6)
        assert GraphFamilySpec("cycle_power", 9, d=2).build() == make_cycle_power(9, 2)
        assert GraphFamilySpec("circulant", 8, jumps=(1, 4)).build() == make_circulant(8, (1, 4))
        assert GraphFamilySpec("complete", 5).build() == make_complete(5)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GraphFamilySpec("wheel", 5)
        with pytest.raises(InvalidInputError):
            GraphFamilySpec("cycle_power", 9)
        with pytest.raises(InvalidInputError):
            GraphFamilySpec("circulant", 9)
