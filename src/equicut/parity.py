"""Parity labelings, induced signatures, equicuts, switching and balance.

A bijective labeling f: V -> {1..n} signs each edge positive when its
endpoint labels share parity and negative otherwise. The negative edges of
such a signature are exactly the boundary of the even-labeled vertex class,
so minimizing negative edges over labelings is minimizing the equicut size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bitset import iter_bits, mask_from_vertices
from .errors import InvalidInputError
from .graphs import Graph, _is_json_int, graph_to_json_dict


class ParityLabeling:
    """Bijection from vertices onto {1..n}; f[v] is the label of vertex v."""

    __slots__ = ("n", "f")

    def __init__(self, labels: Iterable[int]):
        f = tuple(labels)
        n = len(f)
        if n < 1:
            raise InvalidInputError("labeling must cover at least one vertex")
        for x in f:
            if not _is_json_int(x):
                raise InvalidInputError(f"labels must be integers, got {x!r}")
        if sorted(f) != list(range(1, n + 1)):
            raise InvalidInputError(f"labels must be a bijection onto 1..{n}, got {f}")
        self.n = n
        self.f = f

    def even_vertices(self) -> tuple[int, ...]:
        """Vertices with even labels; there are floor(n/2) of them."""
        return tuple(v for v in range(self.n) if self.f[v] % 2 == 0)

    @classmethod
    def from_json_dict(cls, data: object) -> "ParityLabeling":
        if not isinstance(data, dict) or "f" not in data:
            raise InvalidInputError('labeling JSON needs a list "f"')
        f = data["f"]
        if not isinstance(f, list):
            raise InvalidInputError('"f" must be a list of labels')
        if "n" in data:
            if not _is_json_int(data["n"]):
                raise InvalidInputError(f'"n" must be an integer, got {data["n"]!r}')
            if data["n"] != len(f):
                raise InvalidInputError('"n" disagrees with len(f)')
        return cls(f)

    def __repr__(self) -> str:
        return f"ParityLabeling({list(self.f)})"


class SignedGraph:
    """A graph plus a +1/-1 sign per edge, stored as the set of negative edges.

    Each negative edge must be a pair of vertices in 0..n-1 joined by an
    edge of the graph; anything else raises InvalidInputError.
    """

    __slots__ = ("graph", "neg")

    def __init__(self, graph: Graph, negative_edges: Iterable[Iterable[int]] = ()):
        neg = set()
        for e in negative_edges:
            try:
                u, v = e
                edge = graph.has_edge(u, v)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"negative edge {e!r} is not a pair of vertices 0..{graph.n - 1}") from exc
            if not edge:
                raise InvalidInputError(f"({u}, {v}) is not an edge of the graph")
            neg.add((min(u, v), max(u, v)))
        self.graph = graph
        self.neg = frozenset(neg)

    def to_json_dict(self) -> dict:
        out = graph_to_json_dict(self.graph)
        out["neg_edges"] = [list(e) for e in sorted(self.neg)]
        return out

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.graph.n}, negative={len(self.neg)})"


@dataclass(frozen=True)
class Equicut:
    """A vertex set X with |X| = floor(n/2), representing the cut (X, X^c).

    Canonicalizing on the smaller side keeps certificates unique when n is odd.
    """

    n: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(sorted(int(v) for v in self.vertices))
        object.__setattr__(self, "vertices", vs)
        if len(set(vs)) != len(vs):
            raise InvalidInputError(f"repeated vertex in {vs}")
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise InvalidInputError(f"vertices {vs} out of range for n={self.n}")
        if len(vs) != self.n // 2:
            raise InvalidInputError(
                f"equicut side must have floor(n/2)={self.n // 2} vertices, got {len(vs)}"
            )

    @property
    def mask(self) -> int:
        return mask_from_vertices(self.vertices)


def signature_from_labeling(g: Graph, labeling: ParityLabeling) -> SignedGraph:
    """Sign every edge of g by the parity agreement of its endpoint labels."""
    if labeling.n != g.n:
        raise InvalidInputError(f"labeling covers {labeling.n} vertices, graph has {g.n}")
    f = labeling.f
    neg = [(u, v) for u, v in g.edges() if (f[u] - f[v]) % 2 == 1]
    return SignedGraph(g, neg)


def negative_edge_count(sg: SignedGraph) -> int:
    return len(sg.neg)


def equicut_size(g: Graph, cut: Equicut) -> int:
    """Number of edges with exactly one endpoint in cut's vertex set."""
    if cut.n != g.n:
        raise InvalidInputError(f"cut is over {cut.n} vertices, graph has {g.n}")
    return g.cut_size(cut.mask)


def switch_vertices(sg: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Reverse the sign of every edge with exactly one endpoint in the given set.

    Switching the same set twice restores the original signed graph.
    """
    n = sg.graph.n
    smask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise InvalidInputError(f"vertex {v} out of range for n={n}")
        smask |= 1 << v
    boundary = {
        (u, v)
        for u, v in sg.graph.edges()
        if ((smask >> u) & 1) != ((smask >> v) & 1)
    }
    return SignedGraph(sg.graph, sg.neg.symmetric_difference(boundary))


def _sign_coloring(sg: SignedGraph) -> list[int] | None:
    """Two-color vertices so positive edges join equal colors, negative edges
    unequal ones. Returns None when no such coloring exists."""
    g = sg.graph
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in iter_bits(g.adj[u]):
                want = color[u] ^ (1 if (min(u, v), max(u, v)) in sg.neg else 0)
                if color[v] == -1:
                    color[v] = want
                    stack.append(v)
                elif color[v] != want:
                    return None
    return color


def is_balanced(sg: SignedGraph) -> bool:
    """True when every cycle carries an even number of negative edges."""
    return _sign_coloring(sg) is not None


def is_parity_signed(sg: SignedGraph) -> tuple[bool, Equicut | None]:
    """Decide whether sg arises from some parity labeling of its graph.

    Equivalently: the negative edges must form a cut whose sides have sizes
    floor(n/2) and ceil(n/2). Returns the floor(n/2)-size side as a witness;
    switching the all-positive graph at the witness reproduces sg.
    """
    coloring = _sign_coloring(sg)
    if coloring is None:
        return False, None
    n = sg.graph.n
    k = n // 2
    side0 = tuple(v for v in range(n) if coloring[v] == 0)
    side1 = tuple(v for v in range(n) if coloring[v] == 1)
    witnesses = sorted(s for s in (side0, side1) if len(s) == k)
    if not witnesses or {len(side0), len(side1)} != {k, n - k}:
        return False, None
    return True, Equicut(n, witnesses[0])
