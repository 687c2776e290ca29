"""Corona products G o (H_1, ..., H_n): one copy of each satellite H_l hung
off the l-th base vertex, every satellite vertex joined to its base vertex.

Flat vertex order is block-by-block: base vertex l first, then its m
satellite vertices, so vertex (l, w) with l in {1..n}, w in {0..m} sits at
flat index (l-1)(m+1) + w. This keeps the tensor blocks of the Laplacian
contiguous. CoronaGraph.flat_index maps (l, w) to that index; the flat
graph itself stores no vertex names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _index


def _satellite_order(g: Graph, hs) -> int:
    """Check corona preconditions and return the common satellite order m."""
    hs = list(hs)
    if g.n < 1:
        raise ValueError("corona base graph needs at least one vertex")
    if len(hs) != g.n:
        raise ValueError(f"need one satellite per base vertex: got {len(hs)} for n={g.n}")
    sizes = {h.n for h in hs}
    if len(sizes) != 1:
        raise ValueError(f"satellites must share one vertex count, got {sorted(sizes)}")
    m = sizes.pop()
    if m < 1:
        raise ValueError("satellites must have m >= 1 vertices")
    return m


@dataclass(frozen=True)
class CoronaGraph:
    """A corona product with its flat graph and (l, w) -> flat index map."""

    base: Graph
    satellites: tuple
    flat: Graph
    m: int

    def flat_index(self, base_vertex: int, w: int) -> int:
        """Flat index of (base_vertex, w): w = 0 is the base vertex itself,
        w in 1..m its satellite's vertices (satellite vertex w-1). Both ids
        must be integers (ValueError otherwise)."""
        base_vertex, w = _index(base_vertex), _index(w)
        if not (0 <= base_vertex < self.base.n):
            raise ValueError(f"base vertex {base_vertex} out of range")
        if not (0 <= w <= self.m):
            raise ValueError(f"w must be in 0..{self.m}, got {w}")
        return base_vertex * (self.m + 1) + w


def corona(g: Graph, hs) -> CoronaGraph:
    """Build G o (H_1, ..., H_n) for equal-order satellites (m >= 1 each)."""
    hs = tuple(hs)
    m = _satellite_order(g, hs)
    stride = m + 1
    edges = set()
    for u, v in g.edges:
        edges.add((u * stride, v * stride))
    for i, h in enumerate(hs):
        root = i * stride
        for w in range(m):
            edges.add((root, root + 1 + w))
        for a, b in h.edges:
            edges.add((root + 1 + a, root + 1 + b))
    flat = Graph(g.n * stride, frozenset(edges))
    return CoronaGraph(base=g, satellites=hs, flat=flat, m=m)

