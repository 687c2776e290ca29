"""Undirected simple graphs: named constructors, adjacency/Laplacian
assembly, connectivity, and JSON serialization.

Vertices are 0-based contiguous integers. Named constructors use a canonical
vertex order (hypercube = binary counting order, cocktail party = antipodal
pairs (i, i+n)) so that matrices are bit-exact reproducible.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np


def _index(x) -> int:
    try:
        if isinstance(x, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise ValueError(f"vertex counts and ids must be integers, got {x!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges (any iterable of integer pairs) are stored as a frozenset of (u, v)
    pairs normalized to u < v; no self-loops or duplicates. n is an integer
    too (ValueError otherwise). Instances are immutable and safe to share
    across threads.

    Construction checks all edges at once, in C-level passes over the
    flattened ends; only a faulty input is walked edge by edge, to name its
    first faulty edge. Integer-like ends (numpy integers) are stored as plain
    ints.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n", n := _index(self.n))
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        given = list(self.edges)  # an iterator of edges is read once, and the error path reads them again
        pairs = []  # extend keeps the pairs read before a failure: an edge that is an iterator is read once too
        try:
            pairs.extend(map(tuple, given))
            ends = list(itertools.chain.from_iterable(pairs))
            # Ends other than plain ints go through _index: numpy integers pass; bool, float and str do not.
            ends = ends if set(map(type, ends)) <= {int} else list(map(_index, ends))
            us, vs = ends[::2], ends[1::2]
            lt, gt = list(map(operator.lt, us, vs)), list(map(operator.gt, us, vs))
            ok = set(map(len, pairs)) <= {2} and all(map(operator.or_, lt, gt))  # a self-loop is neither
            ok = ok and (not ends or 0 <= min(ends) and max(ends) < n)
        except (TypeError, ValueError):
            ok = False
        if not ok:  # the first faulty edge in iteration order, in the words of a per-edge check
            for e, p in itertools.zip_longest(given, pairs):
                u, v = map(_index, e if p is None else p)
                if u == v or not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"self-loop at vertex {u}" if u == v else f"edge {e} out of range for n={n}")
        # Normalised to u < v: the pairs with u < v as given, then those with u > v reversed.
        norm = itertools.chain(itertools.compress(zip(us, vs), lt), itertools.compress(zip(vs, us), gt))
        object.__setattr__(self, "edges", frozenset(norm))

    def degree(self, u: int) -> int:
        return sum(1 for a, b in self.edges if a == u or b == u)


def _adjacency_stack(gs, m: int) -> np.ndarray:
    """The (len(gs), m, m) stack of adjacency(g) for graphs gs on m vertices."""
    sizes = [len(g.edges) for g in gs]
    ends = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges) for g in gs)
    e = np.fromiter(ends, int, 2 * sum(sizes)).reshape(-1, 2)
    which = np.repeat(np.arange(len(gs)), sizes)[:, None] if len(gs) > 1 else 0  # one graph needs no array
    a = np.zeros((len(gs), m, m))
    a[which, e, e[:, ::-1]] = 1.0  # (u, v) and (v, u) for every edge row (u, v)
    return a


def _laplacian_stack(gs, m: int) -> np.ndarray:
    """The (len(gs), m, m) stack of laplacian(g) for graphs gs on m vertices."""
    a = _adjacency_stack(gs, m)
    lap = np.subtract(0.0, a)  # off the diagonal 0 - a: +0.0, where -a would write -0.0
    lap.reshape(len(gs), m * m)[:, :: m + 1] = a.sum(axis=2)
    return lap


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix (float entries, exact values)."""
    return _adjacency_stack((g,), g.n)[0]


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = D - A. Row sums are exactly zero; the diagonal holds the
    vertex degrees. Entries are small integers stored in floating form, and
    every zero is +0.0."""
    return _laplacian_stack((g,), g.n)[0]


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


def cocktail_party_graph(n: int) -> Graph:
    """Complement of a perfect matching on 2n vertices: every vertex is
    adjacent to all others except its antipode i <-> i+n."""
    n = _index(n)
    return Graph(2 * n, frozenset((i, j) for i in range(2 * n) for j in range(i + 1, 2 * n) if j != i + n))


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
    """JSON-ready dict: {"n": ..., "edges": [[u, v], ...]} with edges sorted
    and normalized to u < v."""
    return {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges)]}


def graph_from_dict(data: dict) -> Graph:
    """Inverse of graph_to_dict; n and the vertex ids must be integers, and
    every other key is ignored. A value of another shape (not an object, no
    n or edges, edges not a list of pairs) is a ValueError naming the
    field."""
    if not isinstance(data, dict):
        raise ValueError(f"a graph is a JSON object, got {type(data).__name__}")
    missing = [key for key in ("n", "edges") if key not in data]
    if missing:
        raise ValueError(f"a graph needs the keys 'n' and 'edges'; missing {missing}")
    edges = data["edges"]
    pairs = isinstance(edges, list) and all(map(isinstance, edges, itertools.repeat((list, tuple))))
    if not (pairs and set(map(len, edges)) <= {2}):  # C-level passes; len reads only sequences
        raise ValueError("graph edges are a list of vertex pairs [u, v]")
    return Graph(data["n"], edges)


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
