import numpy as np
import pytest
from conftest import random_connected_graph, random_satellites

from coronawalk import (
    complete_graph,
    corona,
    cycle_graph,
    empty_graph,
    laplacian,
    path_graph,
)


def test_k2_corona_k1_is_p4():
    cg = corona(complete_graph(2), [empty_graph(1), empty_graph(1)])
    assert cg.m == 1
    assert cg.flat.n == 4
    # base vertices sit at 0 and 2; each pendant hangs off its own base
    assert cg.flat.edges == frozenset({(0, 2), (0, 1), (2, 3)})
    evals_p4 = np.linalg.eigvalsh(laplacian(path_graph(4)))
    evals_cg = np.linalg.eigvalsh(laplacian(cg.flat))
    assert np.allclose(sorted(evals_p4), sorted(evals_cg), atol=1e-12)


def test_double_star_degrees():
    cg = corona(complete_graph(2), [empty_graph(6), empty_graph(6)])
    deg = np.diag(laplacian(cg.flat))
    assert list(deg) == [7.0] + [1.0] * 6 + [7.0] + [1.0] * 6


def test_flat_index():
    cg = corona(cycle_graph(3), [path_graph(2)] * 3)
    for v in range(3):
        for w in range(3):
            assert cg.flat_index(v, w) == v * 3 + w
    with pytest.raises(ValueError):
        cg.flat_index(3, 0)
    with pytest.raises(ValueError):
        cg.flat_index(0, 3)
    with pytest.raises(ValueError):
        cg.flat_index(-1, 0)
    # ids are integers, as every other vertex id
    for bad in [(0.5, 1), (1, 1.0), ("1", 0)]:
        with pytest.raises(ValueError):
            cg.flat_index(*bad)
    assert cg.flat_index(np.int64(1), np.int64(1)) == 4


def test_satellite_edges_are_internal():
    cg = corona(complete_graph(2), [path_graph(3), complete_graph(3)])
    # satellite copy of K3 on base vertex 1 occupies flat vertices 5,6,7
    assert (5, 6) in cg.flat.edges and (5, 7) in cg.flat.edges and (6, 7) in cg.flat.edges
    # base vertex 1 (flat 4) connects to all of them
    assert (4, 5) in cg.flat.edges and (4, 6) in cg.flat.edges and (4, 7) in cg.flat.edges
    # no edges between different satellite copies
    copy0, copy1 = {1, 2, 3}, {5, 6, 7}
    assert not any((u in copy0 and v in copy1) for u, v in cg.flat.edges)


def block_form_laplacian(g, hs):
    """The corona Laplacian in the paper's block form: (L(G) + mI) (x) e00 on
    the base coordinates plus, per base vertex l, the bordered block
    [[0, -1^T], [-1, L(H_l) + I]] on its (m+1)-dimensional slice."""
    n, m = g.n, hs[0].n
    stride = m + 1
    e00 = np.zeros((stride, stride))
    e00[0, 0] = 1.0
    out = np.kron(laplacian(g) + m * np.eye(n), e00)
    for i, h in enumerate(hs):
        block = np.zeros((stride, stride))
        block[0, 1:] = -1.0
        block[1:, 0] = -1.0
        block[1:, 1:] = laplacian(h) + np.eye(m)
        sl = slice(i * stride, (i + 1) * stride)
        out[sl, sl] += block
    return out


def test_blocks_match_flat_laplacian():
    cases = [
        (complete_graph(2), [empty_graph(3), empty_graph(3)]),
        (cycle_graph(4), [path_graph(3)] * 4),
        (complete_graph(2), [path_graph(3), complete_graph(3)]),
    ]
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n)
        cases.append((g, random_satellites(rng, n, m)))
    for g, hs in cases:
        cg = corona(g, hs)
        assert np.array_equal(block_form_laplacian(g, hs), laplacian(cg.flat))


def test_validation():
    with pytest.raises(ValueError):
        corona(complete_graph(2), [empty_graph(1)])  # count mismatch
    with pytest.raises(ValueError):
        corona(complete_graph(2), [empty_graph(1), empty_graph(2)])  # order mismatch
    with pytest.raises(ValueError):
        corona(empty_graph(0), [])  # empty base
    with pytest.raises(ValueError):
        corona(complete_graph(2), [empty_graph(0), empty_graph(0)])  # empty satellites


def test_homogeneous_shortcut():
    a = corona(cycle_graph(3), [path_graph(2)] * 3)
    b = corona(cycle_graph(3), [path_graph(2), path_graph(2), path_graph(2)])
    assert a.flat == b.flat
