import dataclasses

import numpy as np
import pytest
from conftest import random_graph, random_symmetric_int_matrix

from coronawalk import (
    Graph,
    SpectralDecomposition,
    cocktail_party_graph,
    complete_graph,
    corona,
    eigendecompose,
    eigenvalue_support,
    empty_graph,
    hypercube_graph,
    laplacian,
    path_graph,
    reconstruct,
    strongly_cospectral,
    walk_matrix,
)


def test_k2_decomposition():
    d = eigendecompose(laplacian(complete_graph(2)))
    assert np.allclose(d.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert d.multiplicities == (1, 1)
    assert np.allclose(d.projectors[0], np.full((2, 2), 0.5), atol=1e-12)
    assert np.allclose(d.projectors[1], np.eye(2) - np.full((2, 2), 0.5), atol=1e-12)


def test_zero_matrix():
    d = eigendecompose(np.zeros((3, 3)))
    assert len(d.eigenvalues) == 1
    assert d.eigenvalues[0] == 0.0
    assert d.multiplicities == (3,)
    assert np.allclose(d.projectors[0], np.eye(3), atol=1e-12)


def test_empty_matrix():
    d = eigendecompose(np.zeros((0, 0)))
    assert d.dim == 0 and d.multiplicities == ()


def test_k3_multiplicities():
    d = eigendecompose(laplacian(complete_graph(3)))
    assert np.allclose(d.eigenvalues, [0.0, 3.0], atol=1e-12)
    assert d.multiplicities == (1, 2)


def test_cocktail_party_spectrum():
    for n in range(2, 6):
        d = eigendecompose(laplacian(cocktail_party_graph(n)))
        assert np.allclose(d.eigenvalues, [0.0, 2 * n - 2, 2 * n], atol=1e-9)
        assert d.multiplicities == (1, n, n - 1)


def test_projector_algebra_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(1, 13))
        mat = random_symmetric_int_matrix(rng, dim)
        d = eigendecompose(mat)
        assert sum(d.multiplicities) == dim
        total = np.sum(d.projectors, axis=0)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-10
        for i, fi in enumerate(d.projectors):
            assert abs(np.trace(fi) - d.multiplicities[i]) < 1e-9
            for j, fj in enumerate(d.projectors):
                prod = fi @ fj
                expect = fi if i == j else np.zeros_like(fi)
                assert np.max(np.abs(prod - expect)) < 1e-9
        assert np.max(np.abs(reconstruct(d) - mat)) < 1e-9


def loop_projectors(mat):
    """Reference for the dense projector stack: the loop eigendecompose ran
    when it built the stack eagerly, over the same eigensolve and grouping."""
    d = eigendecompose(mat)
    _, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    projectors = []
    stop = 0
    for mult in d.multiplicities:
        block = vecs[:, stop : stop + mult]
        stop += mult
        proj = block @ block.T
        projectors.append((proj + proj.T) / 2.0)
    return np.array(projectors)


def criterion_8_matrices():
    """The walk matrices of the acceptance criterion 8 loop, replaying its
    draws from the same seed."""
    rng = np.random.default_rng(2034)
    mats = []
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.9)))
        mats.append(walk_matrix(g, "laplacian" if rng.integers(2) else "adjacency"))
        rng.uniform(0.0, 50.0)
        rng.integers(0, n, size=2)
        rng.uniform(0.0, 12.0)
        rng.integers(1, 9)
    return mats


def test_lazy_projectors_equal_the_eager_loop():
    figure_bases = [hypercube_graph(2), complete_graph(2), cocktail_party_graph(3)]
    mats = [laplacian(g) for g in figure_bases]
    mats.append(walk_matrix(corona(complete_graph(2), [empty_graph(6)] * 2).flat, "adjacency"))
    mats += criterion_8_matrices()
    for mat in mats:
        assert np.array_equal(eigendecompose(mat).projectors, loop_projectors(mat))

    # A stack passed in is kept as given, never rebuilt from the vectors.
    d = eigendecompose(laplacian(path_graph(4)))
    stack = d.projectors.copy()
    stack[0, 0, 0] += 1e-6
    given = SpectralDecomposition(d.dim, d.eigenvalues, d.vectors, d.multiplicities, projectors=stack)
    assert given.projectors is stack
    assert dataclasses.replace(d, projectors=stack).projectors is stack
    # None asks for the stack to be built from the vectors again.
    assert np.array_equal(dataclasses.replace(given, projectors=None).projectors, d.projectors)


def test_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            eigendecompose(np.array([[bad]]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            eigendecompose(np.array([[0.0, bad], [bad, 0.0]]))


def test_near_degenerate_merging():
    d = eigendecompose(np.diag([0.0, 5e-9]))
    assert len(d.eigenvalues) == 1
    assert d.multiplicities == (2,)
    d2 = eigendecompose(np.diag([0.0, 1.0]))
    assert len(d2.eigenvalues) == 2


def test_supports():
    k2 = eigendecompose(laplacian(complete_graph(2)))
    info = eigenvalue_support(k2, 0)
    assert info.support == (0, 1)
    assert np.allclose(info.weights, [0.5, 0.5], atol=1e-12)

    p3 = eigendecompose(laplacian(path_graph(3)))
    end = eigenvalue_support(p3, 0)
    assert end.support == (0, 1, 2)
    assert abs(sum(end.weights) - 1.0) < 1e-12

    # disconnected graph: a vertex only supports eigenvectors of its component
    g = Graph(5, frozenset({(0, 1), (2, 3), (3, 4)}))  # K2 union P3
    d = eigendecompose(laplacian(g))
    assert np.allclose(d.eigenvalues, [0.0, 1.0, 2.0, 3.0], atol=1e-9)
    assert d.multiplicities == (2, 1, 1, 1)
    k2_side = eigenvalue_support(d, 0)
    assert k2_side.support == (0, 2)  # eigenvalues 0 and 2 only

    with pytest.raises(ValueError):
        eigenvalue_support(k2, 2)


def test_strong_cospectrality_k2():
    d = eigendecompose(laplacian(complete_graph(2)))
    rep = strongly_cospectral(d, 0, 1)
    assert rep.strongly_cospectral
    assert rep.signs == (1, -1)


def test_strong_cospectrality_p3_endpoints():
    d = eigendecompose(laplacian(path_graph(3)))
    rep = strongly_cospectral(d, 0, 2)
    assert rep.strongly_cospectral
    assert rep.signs == (1, -1, 1)


def test_k3_not_strongly_cospectral():
    # F_3 = I - J/3 sends e_0, e_1 to vectors that are neither equal nor
    # opposite, so the pair fails despite being cospectral by symmetry.
    d = eigendecompose(laplacian(complete_graph(3)))
    rep = strongly_cospectral(d, 0, 1)
    assert not rep.strongly_cospectral


def test_strong_cospectrality_symmetry_and_validation():
    d = eigendecompose(laplacian(path_graph(3)))
    a = strongly_cospectral(d, 0, 2)
    b = strongly_cospectral(d, 2, 0)
    assert a.strongly_cospectral == b.strongly_cospectral
    assert a.signs == b.signs
    with pytest.raises(ValueError):
        strongly_cospectral(d, 1, 1)
    with pytest.raises(ValueError):
        strongly_cospectral(d, 0, 3)


def test_vanishing_signs_reported_none():
    g = Graph(5, frozenset({(0, 1), (2, 3), (3, 4)}))  # K2 union P3
    d = eigendecompose(laplacian(g))
    rep = strongly_cospectral(d, 0, 1)
    assert rep.strongly_cospectral
    # eigenvalues 1 and 3 live entirely on the P3 component
    assert rep.signs == (1, None, -1, None)
