import dataclasses
import json
import re

import numpy as np
import pytest
from conftest import random_graph
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coronawalk.graphs import _index


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


def per_edge_rule(n, edges):
    """The per-edge check Graph ran before its bulk check, kept as its
    reference: the normalized edges, or the ValueError of the first faulty
    edge in iteration order."""
    norm = set()
    for e in edges:
        u, v = map(_index, e)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e} out of range for n={n}")
        norm.add((min(u, v), max(u, v)))
    return frozenset(norm)


INT_TYPES = (int, int, np.int64, np.int32, np.int16)
FAULTY_ENDS = (True, False, 0.0, 1.0, 2.5, "0", "1", -1, -3, 2**64, -(2**64))
CONTAINERS = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset, "iterator": iter}


@st.composite
def edge_inputs(draw):
    """(n, edges, container): loop-free pairs on n vertices, some reversed or
    repeated, with ends of several integer types and, in about half the
    draws, one or two faulty edges inserted anywhere. Each edge comes with
    the form it is given in: a tuple, a list or an iterator of its ends."""
    n = draw(st.integers(0, 7))
    steps = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)) if n >= 2 else st.nothing()
    edges = [(u, (u + d) % n) for u, d in draw(st.lists(steps, max_size=12 if n >= 2 else 0))]
    end = st.integers(0, max(n - 1, 0))
    faulty = st.one_of(
        st.tuples(end, st.sampled_from(FAULTY_ENDS + (n, n + 1))),  # not an integer, or out of range
        st.tuples(st.sampled_from(FAULTY_ENDS + (n,)), end),
        end.map(lambda u: (u, u)),  # a self-loop
        st.tuples(end),
        st.tuples(end, end, end),
    )
    if draw(st.booleans()):
        for bad in draw(st.lists(faulty, min_size=1, max_size=2)):
            edges.insert(draw(st.integers(0, len(edges))), bad)
    typed = st.sampled_from(INT_TYPES)
    edges = [tuple(draw(typed)(x) if type(x) is int and abs(x) < 2**15 else x for x in e) for e in edges]
    container = draw(st.sampled_from(sorted(CONTAINERS)))
    # A list or iterator edge is no set member.
    forms = st.sampled_from((tuple, list, iter)) if container in ("list", "tuple", "iterator") else st.just(tuple)
    return n, [(draw(forms), e) for e in edges], container


@settings(max_examples=400, deadline=None)
@given(edge_inputs())
def test_bulk_edge_check_matches_the_per_edge_rule(case):
    n, edges, container = case

    def given():  # the same edges in the same order, built anew: an iterator is read once
        return CONTAINERS[container](form(e) for form, e in edges)

    def message(exc):  # an iterator edge is named by its repr, which holds its address
        return re.sub(r" at 0x[0-9a-f]+", "", str(exc))

    try:
        want = per_edge_rule(n, given())
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Graph(n, given())
        assert message(info.value) == message(exc)
        assert re.search(r"must be integers|^self-loop at vertex|out of range for n=|values to unpack", str(exc))
        return
    g = Graph(n, given())
    assert g.edges == want
    assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in g.edges)


def test_bulk_edge_check_named_cases():
    huge = 2**64
    cases = [
        ((3, [(0, 1.5)]), "vertex counts and ids must be integers, got 1.5"),
        ((3, [(True, 2)]), "vertex counts and ids must be integers, got True"),
        ((3, [("0", 2)]), "vertex counts and ids must be integers, got '0'"),
        ((3, [(1, 1)]), "self-loop at vertex 1"),
        ((3, [(np.int64(2), 2)]), "self-loop at vertex 2"),
        ((3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
        ((3, [[-1, 0]]), "edge [-1, 0] out of range for n=3"),
        ((3, [(0, huge)]), f"edge (0, {huge}) out of range for n=3"),
        ((3, [(0,)]), "not enough values to unpack"),  # Python's own wording follows
        ((3, [(0, 1, 2)]), "too many values to unpack"),
        # The first faulty edge in iteration order names the fault.
        ((3, [(0, 1), (2, 2), (0, 9), (0, 0.5)]), "self-loop at vertex 2"),
        ((3, iter([(0, 1), (0, 9), (2, 2)])), "edge (0, 9) out of range for n=3"),
        # An edge that is itself an iterator is read once and still checked.
        ((3, [iter((0, 1)), (2, 2)]), "self-loop at vertex 2"),
        ((3, [iter((0, 1)), iter((1, 1))]), "self-loop at vertex 1"),
        ((3, [iter((0, 1)), iter((0, 3))]), "edge <tuple_iterator object"),
    ]
    for (n, edges), message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            Graph(n, edges)


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
