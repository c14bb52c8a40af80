"""Graph construction and queries for cycles, cycle powers, circulants and complete graphs.

Vertices are dense integers 0..n-1. Adjacency is kept as one bitmask row per
vertex so cut sizes reduce to popcounts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .bitset import iter_bits, rotate_mask
from .errors import DisconnectedGraphError, InvalidInputError

MAX_VERTICES = 512

FAMILIES = ("cycle", "cycle_power", "circulant", "complete")


def check_vertex_count(n: int) -> None:
    """Reject n outside 1..MAX_VERTICES; builders call it before any row exists."""
    if not 1 <= n <= MAX_VERTICES:
        raise InvalidInputError(f"vertex count {n} outside 1..{MAX_VERTICES}")


class Graph:
    """Undirected, simple, connected graph. Immutable after construction."""

    __slots__ = ("n", "adj", "m", "full_mask")

    def __init__(self, n: int, adj: Sequence[int]):
        check_vertex_count(n)
        if len(adj) != n:
            raise InvalidInputError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise InvalidInputError(f"adjacency row {v} references vertices >= {n}")
            if (row >> v) & 1:
                raise InvalidInputError(f"self-loop at vertex {v}")
        # Adjacency matrix as one string, cell (v, u) at v*n + u: it must equal
        # its transpose, row v against column v (string slices, not a bit loop).
        cells = "".join(format(row, f"0{n}b")[::-1] for row in adj)
        for v in range(n):
            row_cells, col_cells = cells[v * n:(v + 1) * n], cells[v::n]
            if row_cells != col_cells:
                u = next(u for u in range(n) if row_cells[u] != col_cells[u])
                raise InvalidInputError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = tuple(adj)
        self.full_mask = full
        self.m = sum(row.bit_count() for row in adj) // 2
        if not self._reachable_from_zero() == full:
            raise DisconnectedGraphError("graph is not connected")

    def _reachable_from_zero(self) -> int:
        reached = 1
        frontier = 1
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= self.adj[v]
            frontier = grow & ~reached
            reached |= frontier
        return reached

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidInputError(f"({u}, {v}) is not a vertex pair of a graph on {self.n} vertices")
        return bool((self.adj[u] >> v) & 1)

    def cut_size(self, mask: int) -> int:
        """Number of edges with exactly one endpoint in the vertex set `mask`."""
        outside = self.full_mask & ~mask
        return sum((self.adj[v] & outside).bit_count() for v in iter_bits(mask))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in iter_bits(rest):
                out.append((u, u + 1 + off))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from an edge list, rejecting loops, duplicates and disconnection."""
    check_vertex_count(n)
    rows = [0] * n
    for e in edges:
        try:
            u, v = int(e[0]), int(e[1])
        except (TypeError, ValueError, IndexError):
            raise InvalidInputError(f"malformed edge entry {e!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InvalidInputError(f"self-loop at vertex {u}")
        if (rows[u] >> v) & 1:
            raise InvalidInputError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def make_cycle(n: int) -> Graph:
    """Cycle u_0 u_1 ... u_{n-1} u_0."""
    if n < 3:
        raise InvalidInputError(f"cycle needs n >= 3, got {n}")
    return make_circulant(n, (1,))


def make_complete(n: int) -> Graph:
    check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << i) for i in range(n)])


def make_cycle_power(n: int, d: int) -> Graph:
    """d-th power of the n-cycle: u_i ~ u_j iff circular distance is in 1..d.

    Collapses to the complete graph whenever d >= floor(n/2), since no pair of
    cycle vertices is further apart than that.
    """
    if n < 3:
        raise InvalidInputError(f"cycle power needs n >= 3, got {n}")
    if d < 1:
        raise InvalidInputError(f"cycle power needs d >= 1, got {d}")
    return make_circulant(n, range(1, min(d, n // 2) + 1))


def make_circulant(n: int, jumps: Iterable[int]) -> Graph:
    """Circulant graph: u_i adjacent to u_{i +/- a} for each jump a.

    Jumps must be strictly increasing positive integers, all below (n+1)/2
    except that a final jump of exactly n/2 is allowed (it contributes degree 1
    instead of 2). Jump sets sharing a common factor with n yield a
    disconnected graph and are rejected.
    """
    if n < 3:
        raise InvalidInputError(f"circulant needs n >= 3, got {n}")
    check_vertex_count(n)
    js = tuple(jumps)
    if not js:
        raise InvalidInputError("circulant needs a nonempty jump set")
    prev = 0
    for a in js:
        if a <= prev:
            raise InvalidInputError(f"jumps must be strictly increasing positive, got {js}")
        if 2 * a > n:
            raise InvalidInputError(f"jump {a} exceeds n/2 for n={n}")
        prev = a
    # Row i is row 0 rotated by i: vertex 0's neighbours are a and n - a.
    row0 = 0
    for a in js:
        row0 |= 1 << a | 1 << (n - a)
    return Graph(n, [rotate_mask(row0, n, i) for i in range(n)])


def is_rotation_symmetric(g: Graph) -> bool:
    """True when adjacency is invariant under the rotation v -> v + 1 (mod n)."""
    row0 = g.adj[0]
    return all(g.adj[i] == rotate_mask(row0, g.n, i) for i in range(1, g.n))


@dataclass(frozen=True)
class GraphFamilySpec:
    """Parameters naming one member of the supported graph families."""

    family: str
    n: int
    d: int | None = None
    jumps: tuple[int, ...] | None = None

    def __post_init__(self):
        # Range rules live in the builders; here only what build() needs.
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "cycle_power" and self.d is None:
            raise InvalidInputError("cycle_power needs d")
        if self.family == "circulant" and not self.jumps:
            raise InvalidInputError("circulant needs a jump set")

    def build(self) -> Graph:
        if self.family == "cycle":
            return make_cycle(self.n)
        if self.family == "cycle_power":
            return make_cycle_power(self.n, self.d)
        if self.family == "circulant":
            return make_circulant(self.n, self.jumps)
        return make_complete(self.n)

    def describe(self) -> str:
        if self.family == "cycle":
            return f"cycle n={self.n}"
        if self.family == "cycle_power":
            return f"cycle_power n={self.n} d={self.d}"
        if self.family == "circulant":
            return f"circulant n={self.n} jumps={{{','.join(map(str, self.jumps))}}}"
        return f"complete n={self.n}"


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _is_json_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json_dict(data: object) -> Graph:
    """Graph from parsed JSON {"n": int, "edges": [[i, j], ...]}, typed strictly:
    no floats, strings or booleans stand in for integers."""
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InvalidInputError('graph JSON needs integer "n" and list "edges"')
    n, edges = data["n"], data["edges"]
    if not _is_json_int(n):
        raise InvalidInputError(f'"n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise InvalidInputError('"edges" must be a list of [i, j] pairs')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_json_int(x) for x in e)):
            raise InvalidInputError(f"malformed edge entry {e!r}; expected [i, j] with integers")
    return graph_from_edges(n, edges)


def load_graph(path: str | Path) -> Graph:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    return graph_from_json_dict(data)


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json_dict(g)) + "\n")
