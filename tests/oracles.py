"""Independent brute-force oracles the production code never touches.

Everything here works from plain edge lists and itertools enumeration, so a
bug in the bitmask machinery cannot hide in both code paths at once.
"""

from itertools import combinations


def cut_size_edges(edges, side):
    side = set(side)
    return sum(1 for u, v in edges if (u in side) != (v in side))


def min_equicut_naive(n, edges):
    """(value, lexicographically smallest minimizer) over all floor(n/2)-subsets."""
    k = n // 2
    best_val = None
    best_set = None
    for subset in combinations(range(n), k):
        c = cut_size_edges(edges, subset)
        if best_val is None or c < best_val:
            best_val, best_set = c, subset
    return best_val, best_set


def edge_connectivity_naive(n, edges):
    """Minimum boundary over all proper subsets containing vertex 0."""
    if n == 1:
        return 0
    best = None
    for bits in range(1 << (n - 1)):
        side = {0} | {v + 1 for v in range(n - 1) if (bits >> v) & 1}
        if len(side) == n:
            continue
        c = cut_size_edges(edges, side)
        if best is None or c < best:
            best = c
    return best


def min_st_cut_naive(n, edges, s, t):
    """Fewest edges leaving a vertex set that holds s but not t (the max s-t flow)."""
    others = [v for v in range(n) if v not in (s, t)]
    best = None
    for bits in range(1 << len(others)):
        side = {s} | {v for i, v in enumerate(others) if (bits >> i) & 1}
        c = cut_size_edges(edges, side)
        if best is None or c < best:
            best = c
    return best


def revolving_door_walks(n):
    """Reference revolving-door walks over range(n), indexed by k: walk k is
    the list of (enter, leave) steps over the k-subsets, starting at
    {0, ..., k-1}. The first block covers the subsets avoiding n-1, the
    second the subsets containing n-1 in reverse.

    Built bottom-up from the walks over range(n-1), one level at a time, so
    each level is computed once for every k. Steps are shared tuples from a
    pair table, so a walk costs one list slot per step.
    """
    pair = [[(e, l) for l in range(n)] for e in range(n)]
    walks = [[]]
    for m in range(1, n + 1):
        # A reversed walk runs the steps backwards with enter and leave swapped.
        walks = [
            walks[j]
            + [pair[m - 1][j - 2] if j >= 2 else pair[m - 1][m - 2]]
            + [pair[l][e] for e, l in reversed(walks[j - 1])]
            if 0 < j < m
            else []
            for j in range(m + 1)
        ]
    return walks


def local_search_run_scan(n, edges, k, rng):
    """Reference local-search descent: the same seeded start and move rule as
    solver._local_search_run, found by scoring every (u in X, v outside X)
    pair; ties go to the first pair in (u, v) order. Returns (cut, mask)."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    side = set(rng.sample(range(n), k))
    cut = cut_size_edges(edges, side)
    while True:
        best_delta = 0
        best_swap = None
        for u in sorted(side):
            gain_u = 2 * len(nbrs[u] & side) - len(nbrs[u])
            for v in range(n):
                if v in side:
                    continue
                delta = gain_u + len(nbrs[v]) - 2 * len(nbrs[v] & side)
                if v in nbrs[u]:
                    delta += 2
                if delta < best_delta:
                    best_delta = delta
                    best_swap = (u, v)
        if best_swap is None:
            return cut, sum(1 << v for v in side)
        u, v = best_swap
        cut += best_delta
        side.remove(u)
        side.add(v)


def completion_bound_scan(adj, inner, t, amask, bmask, slots_b):
    """Reference completion bound, recounted from scratch at every node: the
    bound solver._completion_bound reads from carried side counts. Vertices
    0..t-1 sit on sides amask and bmask and slots_b of the vertices t..n-1
    must join side B; inner is solver._suffix_connectivity(adj, λ)."""
    n = len(adj)
    total_b = 0
    diffs = []
    for v in range(t, n):
        a = (adj[v] & amask).bit_count()
        b = (adj[v] & bmask).bit_count()
        total_b += b
        diffs.append(a - b)
    if slots_b:
        diffs.sort()
        total_b += sum(diffs[:slots_b])
        if slots_b < n - t:
            total_b += inner[t]
    return total_b


def frontier_sets(n, edges):
    """frontier[t] for t = 0..n: the vertices below t with a neighbour at t
    or above."""
    frontier = [set() for _ in range(n + 1)]
    for u, v in edges:
        for t in range(min(u, v) + 1, max(u, v) + 1):
            frontier[t].add(min(u, v))
    return frontier


def degree_order(n, edges):
    """The vertices by non-increasing degree, ties in label order."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(range(n), key=lambda v: (-degree[v], v))


def is_rotation_invariant(n, edges):
    """Whether the edge set is mapped onto itself by v -> v + 1 (mod n)."""
    edge_set = set(edges)
    return all(tuple(sorted(((u + 1) % n, (v + 1) % n))) in edge_set for u, v in edges)


def branch_and_bound_scan(g, cfg, lam, suffix_term=True, dominance=True, one_pass=False):
    """Reference branch and bound that calls completion_bound_scan at every
    node. Returns (the (value, mask, upper bound used, exact) of
    solver._branch_and_bound, the number of nodes whose bound it computes).

    suffix_term=False drops the suffix edge-connectivity term, leaving the
    greedy bound the search had before that term was added.

    dominance=True keeps the solver's dominance table: a node whose depth t
    has at most Δ frontier vertices is skipped, before its bound, when an
    earlier node had the same t, the same side-A count and the same side-A
    frontier vertices at no higher cost. Unlike the solver, the table is
    also kept where the frontier is the whole prefix 0..t-1; such a key
    names one node and never hits, so the node counts still agree.
    dominance=False drops the table.

    one_pass=True searches once, in natural order, with vertex 0 on side A
    for even n or rotation-invariant edges (n > 1). one_pass=False takes the
    solver's passes: a graph that is not regular is searched relabelled in
    degree_order, with its vertex 0 on side A for even n; a rotation-
    invariant graph with floor(n/2) >= 2 in natural order with vertex 0 on
    side B and vertices 1, 2 on side A, plus the evens set as a candidate;
    any other graph by the one-pass search alone. When the first search is
    not the one-pass search and finds a value v, the one-pass search with
    limit v + 1 that stops at its first leaf gives the certificate, and the
    node count covers both searches."""
    from dataclasses import replace

    from equicut import graph_from_edges
    from equicut.errors import InvalidInputError
    from equicut.solver import _local_search_best, _suffix_connectivity

    n = g.n
    edges = g.edges()
    if cfg.initial_upper_bound is not None:
        upper = cfg.initial_upper_bound
        best = None
        limit = upper + 1
    else:
        best = _local_search_best(g, replace(cfg, restarts=min(cfg.restarts, 12), parallelism=1))
        upper = limit = best[0]
        if upper <= lam:
            return (*best, upper, True), 0

    cap_a, cap_b = n // 2, n - n // 2
    nodes = 0

    def search(h, pin_a, pin_b, limit, first_leaf):
        """(cost, mask) of the cheapest leaf of graph h below limit with the
        vertices of pin_a on side A and those of pin_b on side B, or of the
        first one with first_leaf; None when there is none."""
        nonlocal nodes
        adj = h.adj
        inner = _suffix_connectivity(adj, lam) if suffix_term else [0] * (n + 1)
        max_deg = max((row.bit_count() for row in adj), default=0)
        frontier = [f if len(f) <= max_deg else None for f in frontier_sets(n, h.edges())]
        seen = {}
        found = []

        def dfs(t, amask, bmask, ca, cb, cur):
            nonlocal limit, nodes
            if first_leaf and found:
                return
            if dominance and frontier[t] is not None:
                key = (t, ca, frozenset(v for v in frontier[t] if amask >> v & 1))
                if key in seen and seen[key] <= cur:
                    return
                seen[key] = cur
            nodes += 1
            if cur + completion_bound_scan(adj, inner, t, amask, bmask, cap_b - cb) >= limit:
                return
            if t == n:
                limit = cur
                found.append((cur, amask))
                return
            # (cost, side) with side A = 0, so ties try A first.
            branches = []
            if ca < cap_a and t not in pin_b:
                branches.append(((adj[t] & bmask).bit_count(), 0))
            if cb < cap_b and t not in pin_a:
                branches.append(((adj[t] & amask).bit_count(), 1))
            for cost, side in sorted(branches):
                if side == 0:
                    dfs(t + 1, amask | (1 << t), bmask, ca + 1, cb, cur + cost)
                else:
                    dfs(t + 1, amask, bmask | (1 << t), ca, cb + 1, cur + cost)

        dfs(0, 0, 0, 0, 0, 0)
        return found[-1] if found else None

    rotation = n > 1 and is_rotation_invariant(n, edges)
    natural_pin = {0} if n % 2 == 0 or rotation else set()
    order = list(range(n)) if one_pass else degree_order(n, edges)
    certify = True
    if order != list(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        relabelled = graph_from_edges(n, [(pos[u], pos[v]) for u, v in edges])
        found = search(relabelled, {0} if n % 2 == 0 else set(), set(), limit, False)
    elif not one_pass and rotation and n // 2 >= 2:
        evens = range(0, 2 * (n // 2), 2)
        evens_cut = cut_size_edges(edges, evens)
        found = search(g, {1, 2}, {0}, min(limit, evens_cut), False)
        if found is None and evens_cut < limit:
            found = (evens_cut, sum(1 << v for v in evens))
    else:
        found = search(g, natural_pin, set(), limit, False)
        certify = False
    if found is not None and certify:
        found = search(g, natural_pin, set(), found[0] + 1, True)
    if found is not None:
        best = found
    elif best is None:
        raise InvalidInputError(
            "initial_upper_bound is below the true optimum; no equicut found within it"
        )
    return (*best, upper, True), nodes


def branch_and_bound_greedy(g, cfg, lam):
    """Reference branch and bound with the greedy completion bound only: the
    search as it stood before the suffix edge-connectivity term was added,
    with no dominance table, kept to show that neither the stronger bound nor
    the table changes a result. It searches once, in natural order, so it
    also shows that neither the degree-order search nor the pinned search of
    rotation-invariant graphs changes a result. Returns the same (value,
    mask, upper bound used, exact) as solver._branch_and_bound."""
    return branch_and_bound_scan(g, cfg, lam, suffix_term=False, dominance=False, one_pass=True)[0]
