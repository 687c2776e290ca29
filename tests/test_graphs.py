import dataclasses
import json

import numpy as np
import pytest
from conftest import random_graph

from coronawalk import (
    FAMILIES,
    Graph,
    adjacency,
    build_named,
    cocktail_party_graph,
    complete_graph,
    component_count,
    cycle_graph,
    eigendecompose,
    empty_graph,
    graph_from_dict,
    graph_to_dict,
    hypercube_graph,
    is_connected,
    laplacian,
    load_graph,
    matching_graph,
    path_graph,
)


def test_complete_and_empty():
    assert complete_graph(2).edges == frozenset({(0, 1)})
    assert complete_graph(4).degree(0) == 3
    assert empty_graph(3).edges == frozenset()


def test_edge_normalization_and_validation():
    g = Graph(3, frozenset({(2, 0)}))
    assert g.edges == frozenset({(0, 2)})
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(-1, frozenset())
    # Non-integers used to be truncated, or to fail later inside numpy.
    for n, edges in ((3, {(0, 1.7), (1, 2)}), (2.9, {(0, 1)})):
        with pytest.raises(ValueError, match="must be integers"):
            Graph(n, frozenset(edges))
    # numpy integers are integers, stored as ints
    g = Graph(np.int64(3), frozenset({(np.int64(0), np.int64(1)), (1, 2)}))
    assert g == path_graph(3) and type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)


def test_graph_is_a_value_of_n_and_edges():
    # Every field is compared and hashed: equal graphs are one dict key.
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "edges"]
    for g in (path_graph(4), cocktail_party_graph(3), hypercube_graph(3), empty_graph(2)):
        twin = Graph(g.n, frozenset((v, u) for u, v in g.edges))
        assert twin == g and hash(twin) == hash(g) == hash((g.n, g.edges))
    assert Graph(3, frozenset()) != Graph(4, frozenset())
    assert len({path_graph(3), Graph(3, {(2, 1), (0, 1)}), complete_graph(3)}) == 2


def test_degree():
    g = path_graph(4)
    assert [g.degree(i) for i in range(4)] == [1, 2, 2, 1]


def test_laplacian_small_cases():
    assert np.array_equal(laplacian(complete_graph(2)), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(laplacian(empty_graph(4)), np.zeros((4, 4)))
    p4 = laplacian(path_graph(4))
    assert np.array_equal(np.diag(p4), [1.0, 2.0, 2.0, 1.0])
    assert np.array_equal(p4, np.diag(adjacency(path_graph(4)).sum(axis=1)) - adjacency(path_graph(4)))


def loop_adjacency_and_degrees(g):
    """The edge loops adjacency and the degree row sums replaced: the bit reference."""
    a, d = np.zeros((g.n, g.n)), np.zeros(g.n)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
        d[u] += 1.0
        d[v] += 1.0
    return a, d


def test_matrices_bit_identical_to_the_edge_loops():
    rng = np.random.default_rng(29)
    graphs = [build_named(family, size) for family in FAMILIES for size in (3, 4, 5)]
    graphs += [build_named(family, 1) for family in FAMILIES if family != "cycle"]
    graphs += [random_graph(rng, int(rng.integers(0, 12)), p=float(rng.uniform())) for _ in range(50)]
    graphs += [Graph(0, frozenset()), Graph(5, frozenset({(3, 1)}))]
    for g in graphs:
        a, d = loop_adjacency_and_degrees(g)
        for got, want in ((adjacency(g), a), (adjacency(g).sum(axis=1), d), (laplacian(g), np.diag(d) - a)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert [g.degree(x) for x in range(g.n)] == d.astype(int).tolist()


def test_laplacian_row_sums_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 9)))
        assert np.all(laplacian(g) @ np.ones(g.n) == 0.0)


def test_connectivity():
    assert is_connected(path_graph(4))
    assert not is_connected(empty_graph(3))
    assert not is_connected(Graph(3, frozenset({(0, 1)})))  # K2 + isolated vertex
    assert is_connected(empty_graph(0))
    assert component_count(empty_graph(0)) == 0
    assert component_count(empty_graph(5)) == 5
    assert component_count(Graph(5, frozenset({(0, 1), (2, 3)}))) == 3


def test_zero_multiplicity_matches_component_count():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 10)), p=0.3)
        d = eigendecompose(laplacian(g))
        assert d.multiplicities[0] == component_count(g)
        assert abs(d.eigenvalues[0]) < 1e-9


def test_hypercube():
    q2 = hypercube_graph(2)
    assert q2.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
    q3 = hypercube_graph(3)
    assert q3.n == 8 and len(q3.edges) == 12
    assert all(q3.degree(i) == 3 for i in range(8))


def test_cocktail_party():
    cp2 = cocktail_party_graph(2)
    assert cp2.edges == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})  # the 4-cycle
    for n in range(2, 6):
        g = cocktail_party_graph(n)
        assert g.n == 2 * n
        assert all(g.degree(i) == 2 * n - 2 for i in range(2 * n))
        for i in range(n):
            assert (i, i + n) not in g.edges
        # the antipode map is an automorphism
        swap = lambda x: x + n if x < n else x - n
        assert g.edges == frozenset((min(swap(a), swap(b)), max(swap(a), swap(b))) for a, b in g.edges)


def test_matching_is_cocktail_complement():
    for n in (2, 3, 4):
        m = matching_graph(n)
        cp = cocktail_party_graph(n)
        full = complete_graph(2 * n)
        assert m.edges | cp.edges == full.edges
        assert m.edges & cp.edges == frozenset()


def test_build_named():
    assert build_named("complete", 2).edges == frozenset({(0, 1)})
    assert build_named("hypercube", 2).n == 4
    assert build_named("cocktail_party", 3).n == 6
    for family in FAMILIES:
        g = build_named(family, 3)
        assert g.n >= 1
    with pytest.raises(ValueError):
        build_named("petersen", 3)
    with pytest.raises(ValueError):
        build_named("complete", 0)
    with pytest.raises(ValueError):
        build_named("cycle", 2)
    with pytest.raises(ValueError, match="must be integers"):
        build_named("path", 2.7)  # used to build P2
    assert build_named("path", np.int64(3)) == path_graph(3)
    assert FAMILIES == ("complete", "empty", "path", "cycle", "hypercube", "cocktail_party", "matching")


@pytest.mark.parametrize(
    "builder", [complete_graph, path_graph, cycle_graph, hypercube_graph, matching_graph, cocktail_party_graph]
)
def test_constructors_take_integer_sizes(builder):
    # Each used to fail in range(), a shift or the cycle's size check.
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="must be integers"):
            builder(bad)
    assert builder(np.int64(3)) == builder(3)
    assert type(builder(np.int64(3)).n) is int


def test_json_round_trip(tmp_path):
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    d = graph_to_dict(g)
    assert d == {"n": 4, "edges": [[0, 1], [2, 3]]}
    assert graph_from_dict(d) == g

    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    assert load_graph(path) == g

    # extra keys (e.g. embedded run config, or a corona output's labels) are ignored on load
    d["config"] = {"command": "build"}
    d["labels"] = {"0": "(1,0)", "x": 5}
    assert graph_from_dict(d) == g


def test_graph_from_dict_rejects_non_integers():
    assert graph_from_dict({"n": 3, "edges": [[0, 1], [1, 2]]}) == path_graph(3)
    for bad in ({"n": 3, "edges": [[0, 1.7], [1, 2]]}, {"n": 2.9, "edges": [[0, 1]]},
                {"n": 3.0, "edges": [[0, 1]]}, {"n": 3, "edges": [["0", 1]]},
                {"n": 2, "edges": [[0, 1], [0, 1.0]]}):
        with pytest.raises(ValueError, match="must be integers"):
            graph_from_dict(bad)
