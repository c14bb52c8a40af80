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


def revolving_door_swaps_recursive(n, k):
    """Reference revolving-door walk as nested generators: (enter, leave) steps
    over the k-subsets of range(n), starting at {0, ..., k-1}. The first block
    covers the subsets avoiding n-1, the second the subsets containing n-1 in
    reverse."""
    if k <= 0 or k >= n:
        return
    yield from revolving_door_swaps_recursive(n - 1, k)
    yield (n - 1, k - 2) if k >= 2 else (n - 1, n - 2)
    yield from _reversed_swaps_recursive(n - 1, k - 1)


def _reversed_swaps_recursive(n, k):
    # The forward walk of (n, k) backwards, entered at its last subset.
    if k <= 0 or k >= n:
        return
    yield from revolving_door_swaps_recursive(n - 1, k - 1)
    yield (k - 2, n - 1) if k >= 2 else (n - 2, n - 1)
    yield from _reversed_swaps_recursive(n - 1, k)


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
