"""Exact and heuristic minimum-equicut solvers.

The minimum equicut size of a connected graph equals the least number of
negative edges over its parity signed graphs, so one quantity is computed
for both views. Three methods are provided:

* exhaustive - scores every floor(n/2)-subset, a block of up to 2^16 of
  them at once: bit j of a vertex's plane (one Python int, cached per block
  shape) says whether the vertex is in the block's j-th subset in
  lexicographic order, the cut sizes are bit-sliced counter planes summed
  over the edges from the XORs of their endpoints' planes, and the
  lexicographically smallest minimizer is the lowest bit j left when the
  minimum is read from the top counter plane down, its members the
  vertices whose planes have bit j set. One n = 30 solve peaks
  near 2 MB (tracemalloc). On rotation-symmetric graphs it scores only the
  subsets holding {0, 1}, plus the evens set (PROOF.md, Lemma P);
* branch_and_bound - assigns vertices to sides with running capacities and
  an admissible completion bound: a greedy split for the edges into the
  assigned vertices, read from each unassigned vertex's side counts as they
  are carried down the search, plus the edge connectivity of the subgraph
  induced on the unassigned suffix when both sides still take one of its
  vertices (computed once per pass for every suffix; the whole graph's
  value is the lower bound, already computed); a per-pass dominance table
  skips a node when an earlier one at the same depth reached the same
  frontier state at no higher cost (kept at depths where at most Δ
  assigned vertices have unassigned neighbours, Δ the maximum degree; the
  pins of a pass depend on the depth alone, so two nodes with one key have
  the same completions). A graph that is not regular is searched in
  non-increasing degree order; a rotation-symmetric one in natural order
  with vertex 0 on side B and 1, 2 on side A, plus the evens set (PROOF.md,
  Lemma S). After either, a natural-order pass that stops at its first
  leaf within the optimum gives the certificate a single natural-order
  search returns (see _branch_and_bound);
* local_search - seeded multi-restart best-improvement pair swaps; each
  descent keeps every vertex's gain, and level masks of X's and of the
  outside vertices grouped by gain, across its moves, so a swap (u, v)
  updates O(deg u + deg v) levels and the next best swap is read from the
  top levels; returns an upper bound, never below the optimum.

Every solver reports the edge connectivity as its lower bound, computed by
unit-capacity max-flows from vertex 0 to the rest of a greedy dominating set
that holds it (Matula 1987), each flow a Dinic search over bitmask residual
rows: a layered BFS, then a blocking flow walked back from the sink (Even &
Tarjan 1975).

Exhaustive search and local search each build one fixed task list (subset
blocks, restarts) whatever the worker count, and hand it to _parallel_map;
the count only decides whether the tasks run in this process or in a pool,
which never has more processes than there are tasks or usable CPUs. There is
one pool per process: started on first use, never at import, reused by every
later call of the same size and torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import comb
from multiprocessing import Pool
from typing import Sequence

from .bitset import iter_bits, subset_precedes
from .errors import EnumerationCapError, InvalidInputError
from .graphs import Graph, is_rotation_symmetric
from .parity import Equicut

# Exhaustive refuses larger graphs: n = 30 already means C(30, 15), about
# 1.6e8 subsets. branch_and_bound solves them exactly.
MAX_EXHAUSTIVE_N = 30
_SEED_STRIDE = 1_000_003


@dataclass
class SolverConfig:
    """Knobs shared by the solvers.

    Only what the graph cannot tell: symmetry reduction is always derived
    from the graph (see _pin_zero), results never depend on parallelism,
    and exhaustive's size limit is the constant MAX_EXHAUSTIVE_N.
    """

    restarts: int = 100
    rng_seed: int = 0
    parallelism: int = 1
    initial_upper_bound: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.parallelism < 1:
            raise InvalidInputError("parallelism must be >= 1")
        if self.initial_upper_bound is not None and self.initial_upper_bound < 0:
            raise InvalidInputError("initial_upper_bound must be >= 0")


@dataclass
class SolveResult:
    value: int
    certificate: Equicut
    method: str
    lower_bound_used: int
    upper_bound_used: int
    elapsed: float
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "certificate": list(self.certificate.vertices),
            "method": self.method,
            "lower_bound": self.lower_bound_used,
            "upper_bound": self.upper_bound_used,
            "exact": self.exact,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, so a taskset-restricted run sizes its pool to that set."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The process-wide pool as (size, Pool), or None before the first call that
# needs one.
_pool = None


def _close_pool() -> None:
    """Terminate the shared pool, if any, and join its workers and threads."""
    global _pool
    if _pool is not None:
        pool = _pool[1]
        _pool = None
        pool.terminate()
        pool.join()


def _forget_pool() -> None:
    # A forked child must not use, or terminate at exit, its parent's pool.
    global _pool
    _pool = None


atexit.register(_close_pool)
os.register_at_fork(after_in_child=_forget_pool)


def _parallel_map(fn, tasks: list, workers: int) -> list:
    """fn(*task) for each task, in order, on at most min(workers, len(tasks),
    CPUs) processes; one process means no pool at all. A worker count below
    1 is refused before any task runs.

    More processes run on the shared pool, which is started by the first
    such call; a call of another size closes it before starting its own.
    Tasks are sent one at a time: their costs are uneven (the first
    exhaustive block holds near half the subsets), so batching them would
    leave one process with the big ones.
    """
    global _pool
    if workers < 1:
        raise InvalidInputError(f"worker count must be >= 1, got {workers}")
    size = min(workers, len(tasks), _cpu_count())
    if size <= 1:
        return [fn(*task) for task in tasks]
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is None:
        _pool = (size, Pool(size))
    return _pool[1].starmap(fn, tasks, 1)


def _merge(best: tuple[int, int], cand: tuple[int, int]) -> tuple[int, int]:
    if cand[0] < best[0] or (cand[0] == best[0] and subset_precedes(cand[1], best[1])):
        return cand
    return best


def _solve(g: Graph, method: str, search) -> SolveResult:
    """Run search(lower) under one clock, lower = rna_lower_bound(g) being
    timed too, and wrap the (value, mask, upper, exact) it returns."""
    start = time.perf_counter()
    lower = rna_lower_bound(g)
    value, mask, upper, exact = search(lower)
    elapsed = time.perf_counter() - start
    return SolveResult(
        value=value,
        certificate=Equicut(g.n, tuple(iter_bits(mask))),
        method=method,
        lower_bound_used=lower,
        upper_bound_used=upper,
        elapsed=elapsed,
        exact=exact,
    )


# A block of more subsets than this is split on its lowest free vertex, so
# no plane is wider than this many bits (8 KB).
_BLOCK_SUBSETS = 1 << 16


@lru_cache(maxsize=None)
def _planes(n: int, k: int) -> tuple[int, ...]:
    """One int per vertex v of range(n): bit j is set when v is in the j-th
    k-subset of range(n) in lexicographic order, the order of
    itertools.combinations.

    The subsets holding 0 come first, C(n-1, k-1) of them, so vertex 0's
    plane is all ones there, and vertex v's plane is vertex v-1's of
    (n-1, k-1) followed by vertex v-1's of (n-1, k). Keys are finite: the
    blocks of _min_equicut_block ask only for C(n, k) <= _BLOCK_SUBSETS and
    n <= MAX_EXHAUSTIVE_N.
    """
    if k == 0 or k == n:
        return (int(k > 0),) * n
    head = comb(n - 1, k - 1)
    with_0, without_0 = _planes(n - 1, k - 1), _planes(n - 1, k)
    return ((1 << head) - 1,) + tuple(a | b << head for a, b in zip(with_0, without_0))


def _min_equicut_block(g: Graph, pinned: int, lo: int, k: int) -> tuple[int, int]:
    """Best (cut, mask) over subsets X = pinned + (k - |pinned|) vertices >= lo,
    the pinned vertices all below lo.

    Ties break toward the smaller sorted-vertex tuple, so merging block
    results is order-independent. Every subset of the block is scored at
    once: each vertex has a plane, bit j set when it is in the j-th subset
    (pinned vertices all ones, the others below lo zero, the free ones from
    _planes), each edge's cut indicator is the XOR of its endpoints' planes,
    and these are summed by ripple-carry into bit-sliced counter planes;
    edges with both ends below lo add the same to every subset and are
    counted once. The minimum is read from the top counter plane down; the
    lowest subset j left is the lexicographically smallest minimizer, read
    straight from the planes as the vertices whose bit j is set. A block of
    more than _BLOCK_SUBSETS subsets is split on whether lo is in X, the
    subsets holding it first.
    """
    extra = k - pinned.bit_count()
    universe = g.n - lo
    if extra < 0 or extra > universe:
        raise InvalidInputError("infeasible enumeration block")
    size = comb(universe, extra)
    if size > _BLOCK_SUBSETS:
        return _merge(
            _min_equicut_block(g, pinned | 1 << lo, lo + 1, k),
            _min_equicut_block(g, pinned, lo + 1, k),
        )
    ones = (1 << size) - 1
    planes = [ones if pinned >> v & 1 else 0 for v in range(lo)]
    planes += _planes(universe, extra)
    # Edges with both ends below lo are cut in every subset or in none.
    fixed_out = ((1 << lo) - 1) ^ pinned
    base = sum((g.adj[u] & fixed_out).bit_count() for u in iter_bits(pinned))
    # counts[i]: bit i of every subset's cut size less base.
    counts: list[int] = []
    for v in range(lo, g.n):
        pv = planes[v]
        # Each edge once, from its higher end.
        for u in iter_bits(g.adj[v] & ((1 << v) - 1)):
            x = pv ^ planes[u]
            i = 0
            while x:
                if i == len(counts):
                    counts.append(x)
                    break
                c = counts[i]
                counts[i] = c ^ x
                x &= c
                i += 1
    value = base
    left = ones
    for i in reversed(range(len(counts))):
        # left & ~counts[i], without the negative int CPython ANDs slowly.
        low = left ^ (left & counts[i])
        if low:
            left = low
        else:
            value += 1 << i
    # The lowest subset left holds exactly the vertices whose planes have its
    # bit set: pinned planes are all ones, the other planes below lo zero.
    first = left & -left
    return value, sum(1 << v for v, pv in enumerate(planes) if pv & first)


def _pin_zero(g: Graph) -> bool:
    """Whether vertex 0 may be fixed on side A (the side of floor(n/2)).

    For even n a subset and its complement cut the same edges. Under rotation
    symmetry every rotation class of subsets, including the one holding the
    lexicographically smallest minimizer, has a member containing vertex 0;
    rna_exhaustive then pins vertex 1 too (PROOF.md, Lemma P), and branch
    and bound proves the optimum with other pins (Lemma S) before a search
    with this one alone gives its certificate. Otherwise
    (odd n, no symmetry) pinning can miss the minimum, and for n = 1 side A
    is empty.
    """
    return g.n % 2 == 0 or (g.n > 1 and is_rotation_symmetric(g))


def rna_exhaustive(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Minimum equicut by complete enumeration; certificate is the
    lexicographically smallest minimizer (sorted-vertex-tuple order).

    X holds a pinned prefix 0..p-1. On a rotation-symmetric graph with
    floor(n/2) >= 2, p = 2, and the evens set {0, 2, ..., 2k-2} is one more
    candidate: by PROOF.md's Lemma P the lexicographically smallest
    minimizer is one of these. Otherwise p = 1 when _pin_zero allows it and
    0 if not. The subsets are split into one block per smallest non-pinned
    member, or form a single block when the pinned vertices already fill X
    (n = 1, n = 2 or 3 with vertex 0 pinned, n = 4 or 5 with {0, 1}). The
    blocks are the same for any worker count; _min_equicut_block splits a
    wide one further, inside its task.
    """
    cfg = cfg or SolverConfig()
    if g.n > MAX_EXHAUSTIVE_N:
        raise EnumerationCapError(
            f"exhaustive enumeration supports n <= {MAX_EXHAUSTIVE_N}, got n={g.n}; "
            "branch_and_bound solves it exactly"
        )

    def search(lower: int) -> tuple[int, int, int, bool]:
        n, k = g.n, g.n // 2
        # X holds the pinned prefix 0..p-1; p is also the lowest free vertex.
        p = 2 if k >= 2 and is_rotation_symmetric(g) else int(_pin_zero(g))
        pinned = (1 << p) - 1
        if k == p:
            tasks = [(g, pinned, p, k)]
        else:
            tasks = [(g, pinned | (1 << s), s + 1, k) for s in range(p, n - k + 1 + p)]
        if p == 2:
            # The one minimizer shape without vertex 1 (PROOF.md, Lemma P).
            tasks.append((g, sum(1 << v for v in range(0, 2 * k, 2)), n, k))
        value, mask = reduce(_merge, _parallel_map(_min_equicut_block, tasks, cfg.parallelism))
        return value, mask, value, True

    return _solve(g, "exhaustive", search)


def _local_search_run(g: Graph, nbrs: Sequence[tuple[int, ...]], k: int, seed: int) -> tuple[int, int]:
    """One descent by best-improvement swaps from the random k-subset X that
    random.Random(seed) samples; nbrs[v] is the tuple of v's neighbours.

    Each move takes the (u in X, v outside X) swap with the most negative
    cut delta, s[v] - s[u] + 2·[uv ∈ E] with s[w] = deg w - 2·|N(w) ∩ X|
    (gv[v] = s[v] outside X, gain_u = -s[u] inside); ties go to the smallest
    u, then the smallest v. s is built once per descent and kept across its
    moves, and with it two lists of level masks indexed by s + Δ (Δ the
    maximum degree): one for X, one for the outside vertices.

    A u's best v lies in the lowest three outside levels, found in O(1)
    mask operations. X's levels are walked from the highest non-empty one
    down, each u in label order: every u at level i has delta >= low - i
    (low the lowest outside level), so the walk stops once that exceeds the
    best delta, or equals it at a u above the incumbent's. A swap (u, v)
    moves only the neighbours of u (up 2) and of v (down 2) between levels,
    so a move costs O(deg u + deg v) beside that walk.
    """
    adj = g.adj
    mask = 0
    for v in random.Random(seed).sample(range(g.n), k):
        mask |= 1 << v
    if not k:
        return 0, mask
    top_deg = max(map(len, nbrs))
    # level[w] = s[w] + Δ and where[w] is the list holding w. Two spare
    # levels on top, always empty: the walk reads the outside levels low + 1
    # and low + 2, and top may start 2 high.
    inside = [0] * (2 * top_deg + 3)
    outside = inside[:]
    level = []
    where = []
    cut = 0
    for w, row in enumerate(adj):
        into = (row & mask).bit_count()
        i = len(nbrs[w]) + top_deg - 2 * into
        if mask >> w & 1:
            cut += len(nbrs[w]) - into
            inside[i] |= 1 << w
            where.append(inside)
        else:
            outside[i] |= 1 << w
            where.append(outside)
        level.append(i)
    top = 2 * top_deg
    low = 0
    while True:
        while not inside[top]:
            top -= 1
        while not outside[low]:
            low += 1
        l0, l1, l2 = outside[low], outside[low + 1], outside[low + 2]
        best_delta = 0
        best_u = -1
        i = top
        # Every u at level i has delta >= low - i, and low >= 0.
        while low - i <= best_delta:
            d = low - i
            xs = inside[i]
            while xs:
                u = (xs & -xs).bit_length() - 1
                if d == best_delta and u > best_u:
                    break
                xs ^= 1 << u
                row_u = adj[u]
                # A neighbour of u costs 2 more; l0 is nonempty, so the best v
                # sits at level low, low + 1 or (all of l0 adjacent) low + 2.
                cand = l0 & ~row_u
                delta = d
                if not cand:
                    cand = l1 & ~row_u
                    delta += 1
                    if not cand:
                        cand = (l2 & ~row_u) | l0
                        delta += 1
                if delta < best_delta or (delta == best_delta and u < best_u):
                    best_delta = delta
                    best_u = u
                    best_cand = cand
            i -= 1
        if best_u < 0:
            return cut, mask
        u = best_u
        v = (best_cand & -best_cand).bit_length() - 1
        cut += best_delta
        for w in nbrs[u]:
            i = level[w]
            side = where[w]
            side[i] ^= 1 << w
            side[i + 2] |= 1 << w
            level[w] = i + 2
        for w in nbrs[v]:
            i = level[w]
            side = where[w]
            side[i] ^= 1 << w
            side[i - 2] |= 1 << w
            level[w] = i - 2
        i = level[u]
        inside[i] ^= 1 << u
        outside[i] |= 1 << u
        where[u] = outside
        i = level[v]
        outside[i] ^= 1 << v
        inside[i] |= 1 << v
        where[v] = inside
        mask ^= 1 << u | 1 << v
        # Only the neighbours of u rose, by 2, and only those of v fell.
        top = max(top + 2, level[v])
        low = max(min(low - 2, level[u]), 0)


def _restart_seed(base: int, index: int) -> int:
    return base * _SEED_STRIDE + index


def _local_search_best(g: Graph, cfg: SolverConfig) -> tuple[int, int]:
    """Best of cfg.restarts seeded runs, one task per restart: restart r's
    task carries the seed _restart_seed(cfg.rng_seed, r), not a generator,
    so a task stays a few bytes until it runs and the worker count only
    decides where the runs execute. The neighbour tuples are built once here
    and carried in every task."""
    k = g.n // 2
    nbrs = tuple(tuple(iter_bits(row)) for row in g.adj)
    tasks = [(g, nbrs, k, _restart_seed(cfg.rng_seed, r)) for r in range(cfg.restarts)]
    return reduce(_merge, _parallel_map(_local_search_run, tasks, cfg.parallelism))


def rna_local_search(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Heuristic upper bound: repeated best-improvement cross-pair swaps from
    seeded random starts. The returned value is always >= the exact optimum."""
    cfg = cfg or SolverConfig()

    def search(lower: int) -> tuple[int, int, int, bool]:
        value, mask = _local_search_best(g, cfg)
        return value, mask, value, False

    return _solve(g, "local_search", search)


def rna_branch_and_bound(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact minimum equicut by depth-first side assignment (see _branch_and_bound)."""
    cfg = cfg or SolverConfig()
    return _solve(g, "branch_and_bound", lambda lam: _branch_and_bound(g, cfg, lam))


def _branch_and_bound(g: Graph, cfg: SolverConfig, lam: int) -> tuple[int, int, int, bool]:
    """(value, mask, upper bound used, exact) by depth-first side assignment.

    The incumbent comes from cfg.initial_upper_bound when given (the caller
    promises it is a true upper bound, e.g. a known construction value),
    otherwise from a short local search, which is returned at once when it
    meets the lower bound lam, the edge connectivity of g. Search runs
    single-threaded so results do not depend on cfg.parallelism.

    The result is always the one a single natural-order search (see
    _search) returns: vertices 0..n-1 in order, vertex 0 pinned to side A
    when _pin_zero allows it. That search returns the first optimal leaf in
    its DFS order, whose branch order depends only on the node: until that
    leaf is reached the limit exceeds the optimum v, and neither the
    admissible bound nor a dominance skip removes a subtree holding a leaf
    below the limit, so no ancestor of the leaf is cut; once it is taken the
    limit is v and no cheaper leaf exists. The search pass that proves v may
    take another order or other pins:

    * on a graph that is not regular, the vertices in non-increasing degree
      order, ties in label order, so the fixed crossing edges build up early
      and the completion bound prunes sooner (such a graph has no rotation
      symmetry, so vertex 0 of that order is pinned to side A for even n);
    * on a rotation-symmetric graph with k = floor(n/2) >= 2, natural order
      with vertex 0 pinned to side B and vertices 1 and 2 to side A, plus the
      evens set {0, 2, ..., 2k-2} as one more candidate: by PROOF.md's Lemma
      S every k-subset is a rotation of one of these, and a rotation keeps
      the cut, so the least of them is the minimum;
    * on any other graph (a regular one without rotation symmetry, or
      n <= 3) the natural-order search itself, the only pass.

    When the search pass differs from the natural-order search and finds a
    value v below the incumbent, a certificate pass runs the natural-order
    search with limit v + 1 and stops at its first leaf: with no leaf
    cheaper than v, that is the first optimal leaf in DFS order, the one the
    single search returns. When the search pass finds nothing, nothing below
    the incumbent exists: the local-search incumbent is optimal and is
    returned, and a trusted bound below the optimum is an error. The
    natural-order set-up (_search_setup) is built once and shared by both
    passes.
    """
    n = g.n
    if cfg.initial_upper_bound is not None:
        upper = cfg.initial_upper_bound
        best = None
        limit = upper + 1
    else:
        best = _local_search_best(g, replace(cfg, restarts=min(cfg.restarts, 12), parallelism=1))
        upper = limit = best[0]
        if upper <= lam:
            return (*best, upper, True)

    adj = g.adj
    k = n // 2
    # The natural-order search's pins: vertex 0 on side A where allowed.
    pin_zero = int(_pin_zero(g))
    natural = None  # its set-up, once built
    certify = True
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    if order != list(range(n)):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = [sum(1 << pos[u] for u in iter_bits(adj[v])) for v in order]
        found = _search(_search_setup(rows, lam), int(n % 2 == 0), 0, limit, False)
    elif k >= 2 and is_rotation_symmetric(g):
        natural = _search_setup(adj, lam)
        evens = sum(1 << v for v in range(0, 2 * k, 2))
        evens_cut = g.cut_size(evens)
        # Vertices 1 and 2 on side A, vertex 0 on side B (PROOF.md, Lemma S).
        found = _search(natural, 0b110, 0b1, min(limit, evens_cut), False)
        if found is None and evens_cut < limit:
            found = (evens_cut, evens)
    else:
        natural = _search_setup(adj, lam)
        found = _search(natural, pin_zero, 0, limit, False)
        certify = False
    if found is not None and certify:
        found = _search(natural or _search_setup(adj, lam), pin_zero, 0, found[0] + 1, True)
    if found is not None:
        best = found
    elif best is None:
        raise InvalidInputError(
            "initial_upper_bound is below the true optimum; no equicut found within it"
        )
    return (*best, upper, True)


class _FirstLeaf(Exception):
    """Raised by _search at its first leaf when asked to stop there."""


def _search_setup(adj: Sequence[int], lam: int) -> tuple:
    """The part of _search that depends only on the graph with adjacency
    rows adj and edge connectivity lam, so passes over the same rows share
    it: (adj, inner, max_deg, later, frontier).

    inner is _suffix_connectivity(adj, lam), max_deg the maximum degree,
    later[t] the neighbours of t above t, and frontier[t] the vertices below
    t with a neighbour at t or above, or -1 at the depths where the
    dominance table is not kept (see _search's width rule).
    """
    n = len(adj)
    inner = _suffix_connectivity(adj, lam)
    max_deg = max((row.bit_count() for row in adj), default=0)
    later = [tuple(iter_bits(row >> (t + 1) << (t + 1))) for t, row in enumerate(adj)]
    frontier = [0] * (n + 1)
    for v, row in enumerate(adj):
        for t in range(v + 1, row.bit_length()):
            frontier[t] |= 1 << v
    frontier = [
        f if f.bit_count() <= max_deg and f != (1 << t) - 1 else -1 for t, f in enumerate(frontier)
    ]
    return adj, inner, max_deg, later, frontier


def _search(
    setup: tuple, pin_a: int, pin_b: int, limit: int, first_leaf: bool
) -> tuple[int, int] | None:
    """The cheapest (cost, amask) below limit over the equicuts of the graph
    of setup (see _search_setup) that put the vertices of mask pin_a on side
    A and those of pin_b on side B, or None when there is none; with
    first_leaf, the first such leaf below limit in DFS order instead.

    Vertices 0..n-1 are assigned in order to side A (capacity floor(n/2)) or
    side B (capacity ceil(n/2)), the cheaper side first, ties to A. A branch
    is pruned when the crossing edges already fixed plus an admissible
    completion bound cannot beat the limit, which drops to each leaf's cost
    as it is found. The completion bound has two terms, bounding two
    disjoint edge sets, so their sum is admissible too:

    * edges from unassigned to assigned vertices: every unassigned vertex
      charges its edges into the opposite assigned side, and the cheapest
      capacity-feasible split of the unassigned vertices is taken;
    * edges among the unassigned vertices t..n-1: when both sides still have
      free slots, every completion splits them into two nonempty parts, so
      it cuts at least inner[t], the edge connectivity of the subgraph they
      induce (see _suffix_connectivity).

    Both terms ignore the pins, so they bound the pinned completions too. A
    stronger admissible bound prunes only subtrees holding no leaf below
    the limit, so the incumbents are found in the same order as with the
    first term alone; only the node count drops.

    The first term is read from state carried down the search, not from a
    scan: level[v] = |N(v) ∩ A| - |N(v) ∩ B| + Δ (Δ the maximum degree),
    hist[i] counting the unassigned vertices at level i, and tb, the edges
    between side B and the unassigned vertices. Assigning t moves only the
    levels of later[t], its neighbours above t, until the branch returns.

    Each child is decided at its parent: the parent checks the child's table
    key, moves later[t]'s levels to the child's side and computes the
    child's bound there, and recurses only into a child that survives; a
    surviving leaf is taken in place. When both sides are tried the levels
    move +1, -2, +1 (or -1, +2, -1) in all, and not at all when no child
    gets past the table. The root's bound is checked once, before the DFS.
    So the bound is still computed once per node that passes the table.

    A dominance table, kept for one pass, skips nodes whose completions an
    earlier node has already tried. The frontier of depth t is the set of
    vertices below t with a neighbour at t or above, and a node's key is
    (t, ca, amask & frontier[t]), the state of the frontier DP for bisection
    (Jansen, Karpinski, Lingas & Seidel, SIAM J. Comput. 35(1), 2005). The
    key fixes cb = t - ca, tb, every unassigned vertex's level (so hist),
    and inner[t], and the pins left, those of t..n-1, depend on t alone, so
    two nodes with the same key have the same completions at the same added
    cost. The table holds the least cur reached with each key; a node is
    skipped, before its bound is computed, when its key holds a value <=
    cur, and otherwise stores cur. This is admissible in the sense above.
    The earlier node with the key sits at the same depth, so its subtree was
    finished before this node starts, under limits no lower than the
    current one. For every completion c, the leaf here costs cur + f(c) >=
    cur' + f(c), the earlier node's leaf, which either became an incumbent
    (so the limit is at most its cost) or was pruned at a limit no lower
    than the current one. So the skipped subtree holds no leaf below the
    limit.

    Width rule: the table is kept only at depths whose frontier has at most
    Δ vertices, the graph's own bandwidth in its vertex order (2d = Δ at
    every depth of C_n^d in natural order). On graphs without such an
    order, such as random graphs, the frontier is wider at most depths and
    a table there only costs time. It is not kept either where the frontier
    is the whole prefix 0..t-1, since such a key names a single node.
    """
    adj, inner, max_deg, later, frontier = setup
    n = len(adj)
    best = None
    cap_a, cap_b = n // 2, n - n // 2
    level = [max_deg] * n
    hist = [0] * (2 * max_deg + 1)
    hist[max_deg] = n
    # The root has no table key (frontier[0] is empty) and is never a leaf.
    if _completion_bound(hist, max_deg, 0, cap_b, n, inner[0]) >= limit:
        return None
    # The least cur reached so far with each key (t, ca, amask & frontier[t]).
    seen = {}

    def dfs(t: int, amask: int, ca: int, cb: int, cur: int, tb: int) -> None:
        # A node below the limit with t < n: decide its children here.
        nonlocal limit, best
        lt = level[t]
        hist[lt] -= 1
        into_a = (adj[t] & amask).bit_count()
        into_b = into_a + max_deg - lt  # level[t] = into_a - into_b + Δ
        nbrs = later[t]
        front = frontier[t + 1]
        free = n - t - 1
        shift = 0  # how far later[t]'s levels have moved
        # The cheaper side first, ties to side A = 0.
        first = int(into_a < into_b)
        for side in (first, 1 - first):
            if side:
                if cb == cap_b or pin_a >> t & 1:
                    continue
                c_amask, c_ca, c_cb = amask, ca, cb + 1
                c_cur, c_tb = cur + into_a, tb - into_b + len(nbrs)
            else:
                if ca == cap_a or pin_b >> t & 1:
                    continue
                c_amask, c_ca, c_cb = amask | 1 << t, ca + 1, cb
                c_cur, c_tb = cur + into_b, tb - into_b
            if front >= 0:
                key = (t + 1, c_ca, c_amask & front)
                prev = seen.get(key)
                if prev is not None and prev <= c_cur:
                    continue
                seen[key] = c_cur
            step = 1 - 2 * side
            move = step - shift
            shift = step
            for u in nbrs:
                lu = level[u]
                hist[lu] -= 1
                hist[lu + move] += 1
                level[u] = lu + move
            # No unassigned vertex has more than c_cb neighbours on side B.
            lo = max_deg - c_cb if c_cb < max_deg else 0
            if c_cur + _completion_bound(hist, lo, c_tb, cap_b - c_cb, free, inner[t + 1]) >= limit:
                continue
            if free:
                dfs(t + 1, c_amask, c_ca, c_cb, c_cur, c_tb)
                continue
            limit = c_cur
            best = (c_cur, c_amask)
            if first_leaf:
                raise _FirstLeaf
        if shift:
            for u in nbrs:
                lu = level[u]
                hist[lu] -= 1
                hist[lu - shift] += 1
                level[u] = lu - shift
        hist[lt] += 1

    try:
        dfs(0, 0, 0, 0, 0, 0)
    except _FirstLeaf:
        pass
    # dfs refers to itself through its closure. Breaking that cycle frees the
    # table now, not at a cyclic collection that may come passes later.
    del dfs
    return best


def _completion_bound(hist: list[int], lo: int, tb: int, slots_b: int, free: int, inner_t: int) -> int:
    """Lower bound on the edges still to be cut when free vertices are
    unassigned, slots_b of them must join side B and tb edges join them to
    side B; hist[i] counts them by level i = |N(v) ∩ A| - |N(v) ∩ B| + Δ,
    none below lo, and inner_t is the edge connectivity of the subgraph
    they induce. See _branch_and_bound.
    """
    if not slots_b:
        return tb
    if slots_b < free:
        tb += inner_t
    # The slots_b lowest levels, each less Δ = len(hist) // 2.
    tb -= slots_b * (len(hist) // 2)
    i = lo
    while hist[i] < slots_b:
        tb += hist[i] * i
        slots_b -= hist[i]
        i += 1
    return tb + slots_b * i


# The solve methods by the name each reports in SolveResult.method.
METHODS = {
    "exhaustive": rna_exhaustive,
    "branch_and_bound": rna_branch_and_bound,
    "local_search": rna_local_search,
}


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity via unit-capacity max-flow runs from vertex 0 (see
    _rows_connectivity).

    Connected vertex-transitive graphs attain their minimum degree here.
    Returns 0 for a single vertex (nothing to disconnect).
    """
    return _rows_connectivity(g.adj)


def _rows_connectivity(adj: Sequence[int]) -> int:
    """Edge connectivity of the graph with adjacency rows adj on vertices
    0..len(adj)-1; 0 when it is disconnected or has fewer than 2 vertices.

    Max-flows run from vertex 0 to the other members of a dominating set
    that holds 0, each capped at the least cut found so far (at first the
    minimum degree δ). Any such set suffices (Matula 1987): a side S of a
    cut of fewer than δ edges has more than δ vertices (otherwise at least
    |S|(δ - |S| + 1) >= δ edges leave it), so it holds a vertex with no cut
    edge; that vertex and its neighbours all lie in S, and one of them is in
    the set. So both sides hold a member, one of them vertex 0, and the flow
    from 0 to a member on the other side is at most the cut.

    The set is built greedily from vertex 0: while a vertex is undominated,
    the lowest such u adds the vertex of N[u] that dominates the most
    undominated vertices, ties to the lowest. Picking from N[u] alone keeps
    each pick cheap and still dominates u.
    """
    if len(adj) < 2:
        return 0
    best = min(row.bit_count() for row in adj)
    undominated = ((1 << len(adj)) - 1) & ~(adj[0] | 1)
    while undominated:
        low = undominated & -undominated
        target = max(
            iter_bits(adj[low.bit_length() - 1] | low),
            key=lambda w: ((adj[w] | 1 << w) & undominated).bit_count(),
        )
        best = min(best, _max_flow_unit(adj, 0, target, best))
        undominated &= ~(adj[target] | (1 << target))
    return best


def _suffix_connectivity(adj: Sequence[int], lam: int) -> list[int]:
    """inner[t] for t = 0..n: the edge connectivity of the subgraph induced
    on vertices t..n-1, 0 when it is disconnected or has fewer than 2
    vertices. inner[0] is lam, the edge connectivity of the whole graph,
    which the caller has computed already.

    Adding vertex t to S = {t+1, ..., n-1}: a cut of S + t either leaves t
    alone, at the cost of its degree, or restricts to a cut of S, so
    λ(S + t) >= min(λ(S), δ(S + t)) with δ the minimum degree. λ never
    exceeds δ, so λ(S + t) = δ(S + t) whenever λ(S) >= δ(S + t), and only
    the other suffixes run max-flows.
    """
    n = len(adj)
    inner = [lam] + [0] * n
    for t in range(n - 2, 0, -1):
        rows = [row >> t for row in adj[t:]]
        least = min(row.bit_count() for row in rows)
        if inner[t + 1] >= least:
            inner[t] = least
        else:
            inner[t] = _rows_connectivity(rows)
    return inner


def _max_flow_unit(adj: Sequence[int], s: int, t: int, stop_at: int) -> int:
    """min(max s-t flow, stop_at) in the graph with adjacency rows adj, every
    edge carrying one unit each way.

    The residual graph is kept as bitmask rows: out[u] holds the v with a
    residual arc u -> v and into[v] the u with one. A unit sent u -> v over
    an edge already carrying v -> u cancels it; otherwise it uses up the arc
    u -> v. Each phase is one of Dinic's: a layered BFS ORs the out-rows of
    each frontier under a seen mask, then a blocking flow on the layers
    (Even & Tarjan, SIAM J. Comput. 4(4), 1975, for unit capacities). The
    walk goes back from t, each step to the lowest vertex of the layer
    before that still has a residual arc into the current one; a vertex with
    none is dropped from its layer and the walk steps back. Reaching s sends
    one unit along the walk and restarts it from t; the phase ends when t
    has no predecessor left.
    """
    out = list(adj)
    into = list(adj)
    t_bit = 1 << t
    flow = 0
    while flow < stop_at:
        layers = []
        seen = frontier = 1 << s
        while frontier and not seen & t_bit:
            layers.append(frontier)
            reach = 0
            for u in iter_bits(frontier):
                reach |= out[u]
            frontier = reach & ~seen
            seen |= frontier
        if not frontier:
            break
        # walk[-1] sits in layer len(layers) + 1 - len(walk), t past the last.
        walk = [t]
        while walk:
            v = walk[-1]
            i = len(layers) - len(walk)
            pred = layers[i] & into[v]
            if not pred:
                walk.pop()
                if walk:
                    layers[i + 1] ^= 1 << v
                continue
            u = (pred & -pred).bit_length() - 1
            if i:
                walk.append(u)
                continue
            for v in reversed(walk):
                if (out[v] >> u) & 1:
                    out[u] ^= 1 << v
                    into[v] ^= 1 << u
                else:
                    out[v] |= 1 << u
                    into[u] |= 1 << v
                u = v
            flow += 1
            if flow == stop_at:
                return flow
            walk = [t]
    return flow


def rna_lower_bound(g: Graph) -> int:
    """Lower bound on the minimum equicut size that every solver reports.

    Today this is the edge connectivity: removing any cut disconnects the
    graph. Callers that know more (the sweep knows the proven values of
    spanning lower cycle powers) take the max with it themselves.
    """
    return edge_connectivity(g)
