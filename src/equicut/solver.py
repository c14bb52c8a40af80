"""Exact and heuristic minimum-equicut solvers.

The minimum equicut size of a connected graph equals the least number of
negative edges over its parity signed graphs, so one quantity is computed
for both views. Three methods are provided:

* exhaustive - walks every floor(n/2)-subset in revolving-door order,
  updating the cut size incrementally (two popcounts per step); the walk
  comes from bitset.swap_chunks as cached flat byte strings, so the inner
  loop runs over plain bytes. On rotation-symmetric graphs it walks only the
  subsets holding {0, 1}, plus the evens set (PROOF.md, Lemma P);
* branch_and_bound - assigns vertices to sides with running capacities and
  an admissible completion bound: a greedy split for the edges into the
  assigned vertices, read from each unassigned vertex's side counts as they
  are carried down the search, plus the edge connectivity of the subgraph
  induced on the unassigned suffix when both sides still take one of its
  vertices (computed once per solve for every suffix; the whole graph's
  value is the lower bound, already computed);
* local_search - seeded multi-restart best-improvement pair swaps; each
  move groups the outside vertices into gain-level masks, so picking the
  best swap costs O(n) popcounts; returns an upper bound, never below the
  optimum.

Every solver reports the edge connectivity as its lower bound, computed by
unit-capacity max-flow over bitmask residual rows from one vertex to the
rest of a dominating set.

Exhaustive search and local search each build one fixed task list (walk
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
from functools import reduce
from multiprocessing import Pool
from typing import Sequence

from .bitset import MAX_WALK_N, iter_bits, subset_precedes, swap_chunks
from .errors import EnumerationCapError, InvalidInputError
from .graphs import Graph, is_rotation_symmetric
from .parity import Equicut

DEFAULT_ENUMERATION_CAP = 30
_SEED_STRIDE = 1_000_003


@dataclass
class SolverConfig:
    """Knobs shared by the solvers.

    Only what the graph cannot tell: symmetry reduction is always derived
    from the graph (see _pin_zero), and results never depend on parallelism.
    """

    restarts: int = 100
    rng_seed: int = 0
    parallelism: int = 1
    initial_upper_bound: int | None = None
    exhaustive_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.parallelism < 1:
            raise InvalidInputError("parallelism must be >= 1")
        if self.exhaustive_cap < 0:
            raise InvalidInputError("exhaustive_cap must be >= 0")


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


def _parallel_map(fn, tasks: list, workers: int, chunksize: int | None = None) -> list:
    """fn(*task) for each task, in order, on at most min(workers, len(tasks),
    CPUs) processes; one process means no pool at all.

    More processes run on the shared pool, which is started by the first
    such call; a call of another size closes it before starting its own.
    chunksize is passed to Pool.starmap.
    """
    global _pool
    size = min(workers, len(tasks), _cpu_count())
    if size <= 1:
        return [fn(*task) for task in tasks]
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is None:
        _pool = (size, Pool(size))
    return _pool[1].starmap(fn, tasks, chunksize)


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


def _min_equicut_block(g: Graph, pinned: int, lo: int, k: int) -> tuple[int, int]:
    """Best (cut, mask) over subsets X = pinned + (k - |pinned|) vertices >= lo.

    Ties break toward the smaller sorted-vertex tuple, so merging block
    results is order-independent.
    """
    extra = k - pinned.bit_count()
    universe = g.n - lo
    if extra < 0 or extra > universe:
        raise InvalidInputError("infeasible enumeration block")
    mask = pinned | (((1 << extra) - 1) << lo)
    cut = g.cut_size(mask)
    best_cut, best_mask = cut, mask
    # Walk elements are offsets from lo: index the rows, degrees and bits by them.
    rows = g.adj[lo:]
    degs = [row.bit_count() for row in rows]
    bits = [1 << v for v in range(lo, g.n)]
    for enters, leaves in swap_chunks(universe, extra):
        for e, l in zip(enters, leaves):
            cut += 2 * (rows[l] & mask).bit_count() - degs[l]
            mask ^= bits[l]
            cut += degs[e] - 2 * (rows[e] & mask).bit_count()
            mask |= bits[e]
            if cut <= best_cut and (cut < best_cut or subset_precedes(mask, best_mask)):
                best_cut, best_mask = cut, mask
    return best_cut, best_mask


def _pin_zero(g: Graph) -> bool:
    """Whether vertex 0 may be fixed on side A (the side of floor(n/2)).

    For even n a subset and its complement cut the same edges. Under rotation
    symmetry every rotation class of subsets, including the one holding the
    lexicographically smallest minimizer, has a member containing vertex 0;
    rna_exhaustive then pins vertex 1 too (PROOF.md, Lemma P). Otherwise
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
    0 if not. The walk is split into one block per smallest non-pinned
    member, or is a single block when the pinned vertices already fill X
    (n = 1, n = 2 or 3 with vertex 0 pinned, n = 4 or 5 with {0, 1}). The
    blocks are the same for any worker count.
    """
    cfg = cfg or SolverConfig()
    if g.n > cfg.exhaustive_cap:
        raise EnumerationCapError(
            f"n={g.n} exceeds the enumeration cap {cfg.exhaustive_cap}; "
            "use branch_and_bound or raise the cap"
        )
    if g.n > MAX_WALK_N:
        raise EnumerationCapError(f"exhaustive enumeration supports n <= {MAX_WALK_N}, got n={g.n}")

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


def _local_search_run(g: Graph, k: int, rng: random.Random) -> tuple[int, int]:
    """One descent from a seeded random k-subset X by best-improvement swaps.

    Each move takes the (u in X, v outside X) swap with the most negative
    cut delta, gain_u + gv[v] + 2·[uv ∈ E] with gain_u = 2·|N(u) ∩ X| - deg u
    and gv[v] = deg v - 2·|N(v) ∩ X|; ties go to the smallest u, then the
    smallest v. The outside vertices are grouped into level masks by gv, so
    each u finds its best v among the lowest three levels in O(1) mask
    operations and a move costs O(n) popcounts instead of O(k·(n-k)).
    """
    adj = g.adj
    degs = [row.bit_count() for row in adj]
    mask = 0
    for v in rng.sample(range(g.n), k):
        mask |= 1 << v
    cut = g.cut_size(mask)
    while True:
        levels: dict[int, int] = {}
        for v in iter_bits(g.full_mask & ~mask):
            level = degs[v] - 2 * (adj[v] & mask).bit_count()
            levels[level] = levels.get(level, 0) | (1 << v)
        low = min(levels)
        l0, l1, l2 = levels[low], levels.get(low + 1, 0), levels.get(low + 2, 0)
        best_delta = 0
        best_swap = None
        for u in iter_bits(mask):
            row_u = adj[u]
            gain_u = 2 * (row_u & mask).bit_count() - degs[u]
            if gain_u + low >= best_delta:
                continue
            # A neighbour of u costs 2 more; l0 is nonempty, so the best v
            # sits at level low, low + 1 or (all of l0 adjacent) low + 2.
            cand = l0 & ~row_u
            delta = gain_u + low
            if not cand:
                cand = l1 & ~row_u
                delta += 1
                if not cand:
                    cand = (l2 & ~row_u) | l0
                    delta += 1
            if delta < best_delta:
                best_delta = delta
                best_swap = (u, (cand & -cand).bit_length() - 1)
        if best_swap is None:
            return cut, mask
        u, v = best_swap
        cut += best_delta
        mask = (mask ^ (1 << u)) | (1 << v)


def _restart_seed(base: int, index: int) -> int:
    return base * _SEED_STRIDE + index


def _local_search_best(g: Graph, cfg: SolverConfig) -> tuple[int, int]:
    """Best of cfg.restarts seeded runs, one task per restart: restart r
    always starts from random.Random(_restart_seed(cfg.rng_seed, r)), so the
    worker count only decides where the runs execute."""
    k = g.n // 2
    tasks = [(g, k, random.Random(_restart_seed(cfg.rng_seed, r))) for r in range(cfg.restarts)]
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

    Vertices 0..n-1 are assigned in order to side A (capacity floor(n/2)) or
    side B (capacity ceil(n/2)). A branch is pruned when the crossing edges
    already fixed plus an admissible completion bound cannot beat the
    incumbent. The completion bound has two terms, bounding two disjoint
    edge sets, so their sum is admissible too:

    * edges from unassigned to assigned vertices: every unassigned vertex
      charges its edges into the opposite assigned side, and the cheapest
      capacity-feasible split of the unassigned vertices is taken;
    * edges among the unassigned vertices t..n-1: when both sides still have
      free slots, every completion splits them into two nonempty parts, so
      it cuts at least inner[t], the edge connectivity of the subgraph they
      induce (see _suffix_connectivity).

    A stronger admissible bound prunes only subtrees holding no leaf below
    the limit, so the incumbents are found in the same order as with the
    first term alone; only the node count drops.

    The first term is read from state carried down the search, not from a
    scan: level[v] = |N(v) ∩ A| - |N(v) ∩ B| + Δ (Δ the maximum degree),
    hist[i] counting the unassigned vertices at level i, and tb, the edges
    between side B and the unassigned vertices. Assigning t moves only the
    levels of later[t], its neighbours above t, until the branch returns.

    The incumbent comes from cfg.initial_upper_bound when given (the caller
    promises it is a true upper bound, e.g. a known construction value),
    otherwise from a short local search, which is returned at once when it
    meets the lower bound lam, the edge connectivity of g. Search runs
    single-threaded so results do not depend on cfg.parallelism.
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
    pin_zero = _pin_zero(g)
    cap_a, cap_b = n // 2, n - n // 2
    inner = _suffix_connectivity(adj, lam)
    max_deg = max((row.bit_count() for row in adj), default=0)
    level = [max_deg] * n
    hist = [0] * (2 * max_deg + 1)
    hist[max_deg] = n
    later = [tuple(iter_bits(row >> (t + 1) << (t + 1))) for t, row in enumerate(adj)]

    def dfs(t: int, amask: int, ca: int, cb: int, cur: int, tb: int) -> None:
        nonlocal limit, best
        # No unassigned vertex has more than cb neighbours on side B.
        lo = max_deg - cb if cb < max_deg else 0
        if cur + _completion_bound(hist, lo, tb, cap_b - cb, n - t, inner[t]) >= limit:
            return
        if t == n:
            limit = cur
            best = (cur, amask)
            return
        lt = level[t]
        hist[lt] -= 1
        into_a = (adj[t] & amask).bit_count()
        into_b = into_a + max_deg - lt  # level[t] = into_a - into_b + Δ
        # (cost, side) with side A = 0, so ties try A first.
        branches = []
        if ca < cap_a:
            branches.append((into_b, 0))
        if cb < cap_b and not (t == 0 and pin_zero):
            branches.append((into_a, 1))
        nbrs = later[t]
        for cost, side in sorted(branches):
            step = 1 - 2 * side
            for u in nbrs:
                lu = level[u]
                hist[lu] -= 1
                hist[lu + step] += 1
                level[u] = lu + step
            if side == 0:
                dfs(t + 1, amask | (1 << t), ca + 1, cb, cur + cost, tb - into_b)
            else:
                dfs(t + 1, amask, ca, cb + 1, cur + cost, tb - into_b + len(nbrs))
            for u in nbrs:
                lu = level[u]
                hist[lu] -= 1
                hist[lu - step] += 1
                level[u] = lu - step
        hist[lt] += 1

    dfs(0, 0, 0, 0, 0, 0)

    if best is None:
        raise InvalidInputError(
            "initial_upper_bound is below the true optimum; no equicut found within it"
        )
    return (*best, upper, True)


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

    Max-flows run from vertex 0 to the other members of a dominating set,
    each capped at the least cut found so far (at first the minimum degree
    δ). That suffices (Matula 1987): a cut of fewer than δ edges has more
    than δ vertices on each side, so each side holds a vertex with no cut
    edge, and that vertex or a neighbour, all on its side, is in the set.
    The set is built greedily: vertex 0, then the lowest vertex not yet
    dominated, until none is left.
    """
    if len(adj) < 2:
        return 0
    best = min(row.bit_count() for row in adj)
    undominated = ((1 << len(adj)) - 1) & ~(adj[0] | 1)
    while undominated:
        target = (undominated & -undominated).bit_length() - 1
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
    u -> v. Each augmenting path is a shortest one: a layered BFS ORs the
    out-rows of each frontier under a seen mask, and the path is walked back
    from t through into-rows, one layer at a time.
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
        v = t
        for layer in reversed(layers):
            pred = layer & into[v]
            u = (pred & -pred).bit_length() - 1
            if (out[v] >> u) & 1:
                out[u] ^= 1 << v
                into[v] ^= 1 << u
            else:
                out[v] |= 1 << u
                into[u] |= 1 << v
            v = u
        flow += 1
    return flow


def rna_lower_bound(g: Graph) -> int:
    """Lower bound on the minimum equicut size that every solver reports.

    Today this is the edge connectivity: removing any cut disconnects the
    graph. Callers that know more (the sweep knows the proven values of
    spanning lower cycle powers) take the max with it themselves.
    """
    return edge_connectivity(g)
