"""Labeled undirected simple graphs: named constructors, adjacency/Laplacian
assembly, connectivity, and JSON serialization.

Vertices are 0-based contiguous integers. Named constructors use a canonical
vertex order (hypercube = binary counting order, cocktail party = antipodal
pairs (i, i+n)) so that matrices and labels are bit-exact reproducible.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np


def _index(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"vertex counts and ids must be integers, got {x!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges (any iterable of integer pairs) are stored as a frozenset of (u, v)
    pairs normalized to u < v; no self-loops or duplicates. ``labels`` is an
    optional vertex -> string map (corona constructions use it for "(l,w)"
    provenance labels). n and the label keys are integers too (ValueError
    otherwise). Instances are immutable and safe to share across threads.
    """

    n: int
    edges: frozenset
    labels: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = map(_index, e)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        for k in self.labels or ():
            if not (0 <= _index(k) < self.n):
                raise ValueError(f"label key {k} out of range")

    def degree(self, u: int) -> int:
        return sum(1 for a, b in self.edges if a == u or b == u)


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix (float entries, exact values)."""
    a = np.zeros((g.n, g.n))
    e = np.fromiter(itertools.chain.from_iterable(g.edges), int, 2 * len(g.edges)).reshape(-1, 2)
    a[e, e[:, ::-1]] = 1.0  # (u, v) and (v, u) for every edge row (u, v)
    return a


def degrees(g: Graph) -> np.ndarray:
    return adjacency(g).sum(axis=1)


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = D - A. Row sums are exactly zero; the diagonal holds the
    vertex degrees. Entries are small integers stored in floating form."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def component_count(g: Graph) -> int:
    """Number of connected components (0 for the empty graph on 0 vertices)."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return count


def is_connected(g: Graph) -> bool:
    """True iff the graph has one connected component. The empty graph on 0
    vertices counts as connected by convention."""
    return component_count(g) <= 1


def complete_graph(n: int) -> Graph:
    n = _index(n)
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def path_graph(n: int) -> Graph:
    n = _index(n)
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = _index(n)
    if n < 3:
        raise ValueError("a simple cycle needs at least 3 vertices")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def hypercube_graph(d: int) -> Graph:
    """d-cube on 2^d vertices in binary counting order; edges join vertices at
    Hamming distance 1. The antipode of vertex i is (2^d - 1) - i."""
    d = _index(d)
    n = 1 << d
    edges = set()
    for i in range(n):
        for b in range(d):
            j = i ^ (1 << b)
            if i < j:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


def matching_graph(n: int) -> Graph:
    """n disjoint edges (i, i+n) on 2n vertices, the pairing complemented by
    cocktail_party_graph."""
    n = _index(n)
    return Graph(2 * n, frozenset((i, i + n) for i in range(n)))


def _cocktail_party_edges(n: int) -> frozenset:
    """Edges of cocktail_party_graph(n), u < v. A frozenset, not a Graph: antipodal_sign_check
    compares edges with it, and building a Graph costs several times the comprehension."""
    return frozenset((i, j) for i in range(2 * n) for j in range(i + 1, 2 * n) if j != i + n)


def cocktail_party_graph(n: int) -> Graph:
    """Complement of a perfect matching on 2n vertices: every vertex is
    adjacent to all others except its antipode i <-> i+n."""
    n = _index(n)
    return Graph(2 * n, _cocktail_party_edges(n))


_BUILDERS = {
    "complete": complete_graph,
    "empty": empty_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "hypercube": hypercube_graph,
    "cocktail_party": cocktail_party_graph,
    "matching": matching_graph,
}
FAMILIES = tuple(_BUILDERS)


def build_named(family: str, size_param: int) -> Graph:
    """Build a named graph family member.

    size_param is the vertex count for complete/empty/path/cycle, the
    dimension d for hypercube (2^d vertices), and the pair count n for
    cocktail_party/matching (2n vertices each).
    """
    if family not in _BUILDERS:
        raise ValueError(f"unknown graph family {family!r}; known: {FAMILIES}")
    size_param = _index(size_param)
    if size_param < 1:
        raise ValueError(f"size_param must be >= 1, got {size_param}")
    return _BUILDERS[family](size_param)


def graph_to_dict(g: Graph) -> dict:
    """JSON-ready dict: {"n": ..., "edges": [[u, v], ...], "labels": {...}?}
    with edges sorted and normalized to u < v."""
    out = {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges)]}
    if g.labels:
        out["labels"] = {str(k): str(v) for k, v in sorted(g.labels.items())}
    return out


def graph_from_dict(data: dict) -> Graph:
    """Inverse of graph_to_dict; n and the vertex ids must be integers. JSON
    label keys are strings and are read through int(). A value of another
    shape (not an object, no n or edges, labels not an object) is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a graph is a JSON object, got {type(data).__name__}")
    missing = [key for key in ("n", "edges") if key not in data]
    if missing:
        raise ValueError(f"a graph needs the keys 'n' and 'edges'; missing {missing}")
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, dict):
            raise ValueError(f"graph labels are a JSON object, got {type(labels).__name__}")
        labels = {int(k): str(v) for k, v in labels.items()}
    return Graph(data["n"], data["edges"], labels)


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
