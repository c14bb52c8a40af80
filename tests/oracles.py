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
