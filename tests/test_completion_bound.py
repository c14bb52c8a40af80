"""The branch-and-bound completion bound: its suffix edge-connectivity term,
its equality with the bound recounted at every node, its admissibility, and
the search results and node counts it must leave unchanged; the dominance
table, the degree-order search and the pinned search of rotation-symmetric
graphs (PROOF.md, Lemma S) with their certificate pass, which must leave the
search results unchanged too."""

import json
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from equicut import (
    MAX_VERTICES,
    GraphFamilySpec,
    SolverConfig,
    edge_connectivity,
    graph_from_edges,
    known_rna,
    make_circulant,
    make_complete,
    make_cycle_power,
    rna_branch_and_bound,
    rna_exhaustive,
    solver,
)
from equicut.bitset import iter_bits
from equicut.cli import main
from equicut.errors import InvalidInputError
from equicut.graphs import is_rotation_symmetric
from equicut.verify import random_connected_graph

from oracles import (
    branch_and_bound_greedy,
    branch_and_bound_scan,
    completion_bound_scan,
    cut_size_edges,
)


def assert_same_search(g, upper_bounds, exact_value=None):
    """solver._branch_and_bound equals the greedy-bound oracle, which keeps
    no dominance table, for each initial_upper_bound (None: local-search
    incumbent), and every value is exact_value when one is given."""
    lam = edge_connectivity(g)
    for upper in upper_bounds:
        cfg = SolverConfig(initial_upper_bound=upper)
        got = solver._branch_and_bound(g, cfg, lam)
        assert got == branch_and_bound_greedy(g, cfg, lam), (g, upper)
        assert exact_value is None or got[0] == exact_value, (g, upper)


class TestSameResultsAsGreedyBound:
    def test_cycle_powers(self):
        # Every C_n^d with n <= 30: all d up to the complete collapse for
        # n <= 18, and d <= 5 (the sweep's range) above that, where the
        # greedy-only search gets slow on near-complete graphs. Values are
        # checked against exhaustive enumeration for n <= 20.
        for n in range(3, 31):
            for d in range(1, n // 2 + 1 if n <= 18 else 6):
                g = make_cycle_power(n, d)
                trusted = known_rna(GraphFamilySpec("cycle_power", n, d=d)) or d * (d + 1)
                exact = rna_exhaustive(g).value if n <= 20 else None
                assert_same_search(g, (None, trusted), exact)

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
    def test_random_graphs(self, p):
        rng = random.Random(int(p * 100))
        unpinned = 0
        for n in range(2, 23):
            g = random_connected_graph(rng, n, p)
            exact = rna_exhaustive(g).value
            assert_same_search(g, (None, exact, exact + 2), exact)
            unpinned += not solver._pin_zero(g)
        assert unpinned >= 5

    def test_odd_graphs_without_rotation_symmetry(self):
        rng = random.Random(17)
        graphs = [graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])]
        while len(graphs) < 12:
            g = random_connected_graph(rng, rng.randrange(5, 20, 2), rng.choice((0.1, 0.25, 0.5)))
            if not is_rotation_symmetric(g):
                graphs.append(g)
        for g in graphs:
            assert not solver._pin_zero(g)
            exact = rna_exhaustive(g).value
            assert_same_search(g, (None, exact), exact)

    def test_complete_graphs(self):
        for n in range(1, 13):
            value = (n // 2) * ((n + 1) // 2)
            assert_same_search(make_complete(n), (None, value), value)


@pytest.fixture
def bound_calls(monkeypatch):
    """A one-item list counting the solver._completion_bound calls made since
    the test last set it to 0."""
    bound = solver._completion_bound
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return bound(*args)

    monkeypatch.setattr(solver, "_completion_bound", counting)
    return calls


def assert_same_nodes(bound_calls, g, upper_bounds):
    """For each initial_upper_bound (None: local-search incumbent),
    solver._branch_and_bound returns the result of the oracle that rescans
    every node, after as many completion-bound calls as it visits nodes."""
    lam = edge_connectivity(g)
    for upper in upper_bounds:
        cfg = SolverConfig(initial_upper_bound=upper)
        bound_calls[0] = 0
        got = solver._branch_and_bound(g, cfg, lam)
        assert (got, bound_calls[0]) == branch_and_bound_scan(g, cfg, lam), (g, upper)


class TestSameNodesAsScan:
    def test_cycle_powers(self, bound_calls):
        # Side B takes more than Δ = 2d vertices on every row, so the
        # histogram walk starts at a clamped level 0.
        for n in range(20, 35):
            for d in (4, 5):
                assert_same_nodes(bound_calls, make_cycle_power(n, d), (d * (d + 1),))

    def test_random_graphs(self, bound_calls):
        rng = random.Random(25)
        for n in range(2, 23):
            g = random_connected_graph(rng, n, 0.25)
            exact = rna_exhaustive(g).value
            assert_same_nodes(bound_calls, g, (None, exact, exact + 2))

    def test_complete_graphs(self, bound_calls):
        for n in range(1, 13):
            assert_same_nodes(bound_calls, make_complete(n), (None, (n // 2) * ((n + 1) // 2)))

    def test_odd_graphs_without_rotation_symmetry(self, bound_calls):
        rng = random.Random(29)
        graphs = [graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])]
        while len(graphs) < 6:
            g = random_connected_graph(rng, rng.randrange(5, 20, 2), rng.choice((0.1, 0.25, 0.5)))
            if not is_rotation_symmetric(g):
                graphs.append(g)
        for g in graphs:
            assert not solver._pin_zero(g)
            assert_same_nodes(bound_calls, g, (None, rna_exhaustive(g).value))


def assert_same_as_table_free(g, upper_bounds):
    """For each initial_upper_bound (None: local-search incumbent),
    solver._branch_and_bound returns the result of the search without its
    dominance table. TestSameResultsAsGreedyBound checks the same on the
    random corpus, complete graphs and odd graphs without rotation symmetry,
    since the greedy-bound oracle keeps no table either."""
    lam = edge_connectivity(g)
    for upper in upper_bounds:
        cfg = SolverConfig(initial_upper_bound=upper)
        want = branch_and_bound_scan(g, cfg, lam, dominance=False)[0]
        assert solver._branch_and_bound(g, cfg, lam) == want, (g, upper)


class TestSameResultsWithoutTable:
    def test_cycle_powers(self):
        for n in range(20, 35):
            for d in (4, 5):
                assert_same_as_table_free(make_cycle_power(n, d), (None, d * (d + 1)))

    def test_connected_circulants(self):
        count = 0
        for n in range(4, 14):
            for size in range(1, n // 2 + 1):
                for jumps in combinations(range(1, n // 2 + 1), size):
                    if gcd(n, *jumps) == 1:
                        g = make_circulant(n, jumps)
                        assert_same_as_table_free(g, (None, rna_exhaustive(g).value))
                        count += 1
        assert count == 218

    def test_table_skips_nodes(self, bound_calls):
        # On C_n^d every frontier has at most 2d = Δ vertices and is a proper
        # part of the prefix for t > 2d, so the table is kept at those depths.
        g = make_cycle_power(31, 4)
        cfg = SolverConfig(initial_upper_bound=20)
        lam = edge_connectivity(g)
        got = solver._branch_and_bound(g, cfg, lam)
        want, nodes = branch_and_bound_scan(g, cfg, lam, dominance=False)
        assert got == want
        assert bound_calls[0] < nodes


@pytest.fixture
def passes(monkeypatch):
    """(pin_a, pin_b, first_leaf) of every solver._search call, in call
    order: first_leaf is False for a search pass, True for a certificate
    pass."""
    search = solver._search
    calls = []

    def recording(setup, pin_a, pin_b, limit, first_leaf):
        calls.append((pin_a, pin_b, first_leaf))
        return search(setup, pin_a, pin_b, limit, first_leaf)

    monkeypatch.setattr(solver, "_search", recording)
    return calls


class TestDegreeOrder:
    def test_certificate_pass_gives_the_natural_order_result(self, passes):
        # One local-search restart misses the optimum on several of these
        # graphs, so the degree-order search finds a cheaper value and the
        # certificate pass runs; the result must still be the one the single
        # natural-order search returns.
        rng = random.Random(4)
        cfg = SolverConfig(restarts=1)
        certified = 0
        for n in range(8, 23):
            g = random_connected_graph(rng, n, 0.25)
            lam = edge_connectivity(g)
            passes.clear()
            got = solver._branch_and_bound(g, cfg, lam)
            assert got == branch_and_bound_greedy(g, cfg, lam), g
            assert got[0] == rna_exhaustive(g).value, g
            certified += [leaf for _, _, leaf in passes] == [False, True]
        assert certified >= 5

    def test_trusted_bound_on_a_non_regular_graph(self, capsys, tmp_path, passes):
        rng = random.Random(5)
        g = random_connected_graph(rng, 16, 0.25)
        assert len({row.bit_count() for row in g.adj}) > 1
        optimum = rna_exhaustive(g).value
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": g.n, "edges": g.edges()}))
        solve = ["solve", "--graph", str(path), "--method", "branch-and-bound"]

        assert main([*solve, "--upper-bound", str(optimum - 1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: initial_upper_bound is below the true optimum; no equicut found within it\n"
        )
        assert passes == [(1, 0, False)]

        passes.clear()
        assert main([*solve, "--upper-bound", str(optimum)]) == 0
        result = json.loads(capsys.readouterr().out)
        cfg = SolverConfig(initial_upper_bound=optimum)
        want = branch_and_bound_greedy(g, cfg, edge_connectivity(g))
        assert (result["value"], result["certificate"]) == (optimum, list(iter_bits(want[1])))
        assert passes == [(1, 0, False), (1, 0, True)]

    def test_regular_graphs_run_one_pass(self, passes):
        # Without rotation symmetry the natural-order search is the only
        # pass, with vertex 0 on side A for even n only.
        petersen = graph_from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)],
        )
        # C_7^2 with vertices 1 and 2 swapped: 4-regular, odd, no pin.
        swap = [0, 2, 1, 3, 4, 5, 6]
        c7_2 = graph_from_edges(
            7, sorted(tuple(sorted((swap[u], swap[v]))) for u, v in make_cycle_power(7, 2).edges())
        )
        for g in (petersen, c7_2):
            assert not is_rotation_symmetric(g)
            pin = int(g.n % 2 == 0)
            exact = rna_exhaustive(g).value
            for upper in (None, exact, exact + 2):
                passes.clear()
                got = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=upper, restarts=1))
                assert got.value == exact
                # Local search may meet λ and settle the graph with no pass.
                assert passes == [(pin, 0, False)] or (upper is None and passes == []), (g, upper)


class TestRotationPins:
    def test_pinned_pass_then_a_first_leaf_pass(self, passes):
        # Vertex 0 on side B and 1, 2 on side A (PROOF.md, Lemma S), then the
        # natural-order search, vertex 0 on side A, up to its first leaf.
        pinned, certificate = (0b110, 0b1, False), (0b1, 0, True)
        graphs = (
            make_cycle_power(26, 3),
            make_circulant(21, (2, 5)),
            make_circulant(7, (2,)),
            make_complete(9),
        )
        for g in graphs:
            exact = rna_exhaustive(g).value
            lam = edge_connectivity(g)
            for upper in (exact, exact + 2):
                passes.clear()
                got = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=upper))
                assert got.value == exact
                assert passes == [pinned, certificate], (g, upper)
            # A trusted bound below the optimum: the pinned pass proves it.
            passes.clear()
            with pytest.raises(InvalidInputError):
                rna_branch_and_bound(g, SolverConfig(initial_upper_bound=exact - 1))
            assert passes == [pinned], g
            # Local search finds the optimum on these graphs: unless that
            # meets λ, the pinned pass finds nothing below it.
            passes.clear()
            assert rna_branch_and_bound(g).value == exact
            assert passes == ([pinned] if exact > lam else []), g

    def test_graphs_with_at_most_three_vertices_keep_the_vertex_0_pin(self, passes):
        for n in (2, 3):
            g = make_complete(n)
            rna_branch_and_bound(g, SolverConfig(initial_upper_bound=n // 2 * (n - n // 2)))
            assert passes == [(1, 0, False)], n
            passes.clear()

    def test_evens_candidate_is_the_minimizer_of_c7_2(self, passes):
        # C_7({2}) is the 7-cycle 0, 2, 4, 6, 1, 3, 5: the pinned subsets
        # cut at least 4 edges, the evens set {0, 2, 4} only 2.
        g = make_circulant(7, (2,))
        result = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=5))
        assert (result.value, result.certificate.vertices) == (2, (0, 2, 4))
        assert passes == [(0b110, 0b1, False), (0b1, 0, True)]

    def test_connected_circulants_under_five_bounds(self):
        # The local-search incumbent, trusted bounds at the optimum and 1
        # and 4 above it, and 1 below it, which must raise: each result
        # equals the one natural-order greedy-bound search.
        count = 0
        for n in range(3, 15):
            for size in (1, 2, 3):
                for jumps in combinations(range(1, n // 2 + 1), size):
                    if gcd(n, *jumps) != 1:
                        continue
                    g = make_circulant(n, jumps)
                    assert is_rotation_symmetric(g)
                    exact = rna_exhaustive(g).value
                    assert_same_search(g, (None, exact, exact + 1, exact + 4), exact)
                    below = SolverConfig(initial_upper_bound=exact - 1)
                    for search in (solver._branch_and_bound, branch_and_bound_greedy):
                        with pytest.raises(InvalidInputError):
                            search(g, below, edge_connectivity(g))
                    count += 1
        assert count == 216


def test_search_depth_at_the_vertex_limit():
    # One DFS frame per vertex plus the leaf's.
    g = make_cycle_power(MAX_VERTICES, 1)
    result = rna_branch_and_bound(g, SolverConfig(initial_upper_bound=2))
    assert result.value == 2
    assert len(result.certificate.vertices) == MAX_VERTICES // 2
    assert cut_size_edges(g.edges(), result.certificate.vertices) == 2


def induced_suffix_connectivity_nx(nx, g, t):
    h = nx.Graph()
    h.add_nodes_from(range(t, g.n))
    h.add_edges_from((u, v) for u, v in g.edges() if u >= t)
    return nx.edge_connectivity(h)


class TestSuffixConnectivity:
    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1701)
        graphs = [
            random_connected_graph(rng, n, rng.choice((0.1, 0.25, 0.5)))
            for n in range(6, 21)
            for _ in range(2)
        ]
        graphs += [random_connected_graph(rng, rng.randint(6, 20), 0.0) for _ in range(6)]
        for n in (8, 13, 20):
            # Two dense halves joined by one edge, as the halves come and
            # with the vertices shuffled.
            a = random_connected_graph(rng, n // 2, 0.7)
            b = random_connected_graph(rng, n - n // 2, 0.7)
            edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
            edges.append((rng.randrange(a.n), a.n + rng.randrange(b.n)))
            perm = list(range(n))
            rng.shuffle(perm)
            for order in (list(range(n)), perm):
                graphs.append(graph_from_edges(n, sorted(tuple(sorted((order[u], order[v]))) for u, v in edges)))
        graphs += [make_cycle_power(n, d) for n, d in ((12, 2), (17, 3), (20, 4))]
        for g in graphs:
            # inner[0] is the whole graph's value, passed in by the caller.
            inner = solver._suffix_connectivity(g.adj, -1)
            assert len(inner) == g.n + 1 and inner[0] == -1 and inner[g.n] == 0
            want = [induced_suffix_connectivity_nx(nx, g, t) for t in range(1, g.n)]
            assert inner[1:-1] == want, g

    def test_cycle_power_closed_form_equals_the_flows(self):
        # Every suffix from d on is the path power P_{n-t}^d whatever n is, so
        # its flow value is computed once.
        flows = {}

        def connectivity(rows):
            key = tuple(rows)
            if key not in flows:
                flows[key] = solver._rows_connectivity(rows)
            return flows[key]

        for n in range(3, 71):
            for d in range(1, (n - 1) // 2 + 1):
                adj = make_cycle_power(n, d).adj
                assert solver._cycle_power_d(adj) == d
                want = [connectivity([row >> t for row in adj[t:]]) for t in range(1, n)]
                assert solver._suffix_connectivity(adj, 2 * d) == [2 * d, *want, 0], (n, d)

    def test_other_rows_take_the_flow_path(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1702)
        graphs = []
        for n, d in ((9, 1), (12, 2), (17, 3), (20, 4), (10, 4)):
            g = make_cycle_power(n, d)
            # (1, d + 2) is no edge of C_n^d once n >= 2d + 2; row 0 keeps
            # exactly the jumps 1..d, so only row 1 tells the chord apart.
            graphs.append(graph_from_edges(n, sorted(g.edges() + [(1, d + 2)])))
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(graph_from_edges(n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())))
        graphs += [make_circulant(n, (1, 3)) for n in (8, 11, 20)]
        # K_{2d}: the jump d adds one neighbour, and 2d - t would be too high.
        graphs += [make_cycle_power(2 * d, d) for d in (2, 3, 5)]
        for g in graphs:
            assert solver._cycle_power_d(g.adj) == 0, g
            want = [induced_suffix_connectivity_nx(nx, g, t) for t in range(1, g.n)]
            assert solver._suffix_connectivity(g.adj, -1) == [-1, *want, 0], g

    def test_whole_graph_connectivity_runs_once_per_solve(self, monkeypatch):
        # Swapping labels 0 and 1 of C_40^4 leaves a regular graph without
        # rotation symmetry, so the solve takes the flow path in natural
        # order. Its suffix 1 has λ = 7 below the minimum degree 8, so inner[0]
        # would need a max-flow of its own.
        c = make_cycle_power(40, 4)
        swap = {0: 1, 1: 0}
        g = graph_from_edges(40, sorted(tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in c.edges()))
        assert not is_rotation_symmetric(g)
        rows_connectivity = solver._rows_connectivity
        whole = []

        def counting(adj):
            whole.append(tuple(adj) == g.adj)
            return rows_connectivity(adj)

        monkeypatch.setattr(solver, "_rows_connectivity", counting)
        assert rna_branch_and_bound(g).value == 20
        assert sum(whole) == 1
        # C_40^4 itself: λ = δ and the closed-form suffix table, no flow at all.
        whole.clear()
        assert rna_branch_and_bound(c).value == 20
        assert whole == []


@st.composite
def partial_assignments(draw):
    """(n, edges, sides of vertices 0..t-1) with capacities floor(n/2) for
    side A (0) and ceil(n/2) for side B (1) respected. The graph need not be
    connected."""
    n = draw(st.integers(1, 12))
    edges = [(u, v) for u, v in combinations(range(n), 2) if draw(st.booleans())]
    t = draw(st.integers(0, n))
    cap_a = n // 2
    in_a = draw(st.integers(max(0, t - (n - cap_a)), min(t, cap_a)))
    sides = draw(st.permutations([0] * in_a + [1] * (t - in_a)))
    return n, edges, sides


@settings(max_examples=300, deadline=None)
@given(partial_assignments())
def test_completion_bound_is_admissible(case):
    n, edges, sides = case
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    t = len(sides)
    amask = sum(1 << v for v in range(t) if sides[v] == 0)
    bmask = sum(1 << v for v in range(t) if sides[v] == 1)
    slots_a = n // 2 - amask.bit_count()
    slots_b = n - t - slots_a
    inner = solver._suffix_connectivity(adj, solver._rows_connectivity(adj))
    # The state _branch_and_bound carries down to this node, built afresh.
    max_deg = max((row.bit_count() for row in adj), default=0)
    level = [(row & amask).bit_count() - (row & bmask).bit_count() + max_deg for row in adj]
    hist = [0] * (2 * max_deg + 1)
    for v in range(t, n):
        hist[level[v]] += 1
    lo = max(max_deg - bmask.bit_count(), 0)
    tb = sum((adj[v] & bmask).bit_count() for v in range(t, n))
    bound = solver._completion_bound(hist, lo, tb, slots_b, n - t, inner[t])
    # The completion cost counts every cut edge with an unassigned end.
    best = min(
        sum(1 for u, v in edges if v >= t and ((amask | rest) >> u & 1) != ((amask | rest) >> v & 1))
        for rest in (sum(1 << v for v in chosen) for chosen in combinations(range(t, n), slots_a))
    )
    assert bound == completion_bound_scan(adj, inner, t, amask, bmask, slots_b) <= best
