import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import random_graph, random_symmetric_int_matrix

from coronawalk import (
    Graph,
    SpectralDecomposition,
    check_pst,
    cocktail_party_graph,
    complete_graph,
    corona,
    cycle_graph,
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
from coronawalk import spectral
from coronawalk.graphs import _laplacian_stack
from coronawalk.spectral import CLUSTER_TOL_SCALE, SUPPORT_TOL, _cluster, _eigh, _gaps, _pair_measure


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


# Laplacians at dim 500 to 1,024 with closed-form spectra, as (graph,
# [(eigenvalue, multiplicity)] ascending).
ANALYTIC_SPECTRA = {
    "P1000": (path_graph(1000), [(2.0 - 2.0 * math.cos(math.pi * k / 1000), 1) for k in range(1000)]),
    "C1000": (
        cycle_graph(1000),
        [(2.0 - 2.0 * math.cos(2.0 * math.pi * k / 1000), 1 if k in (0, 500) else 2) for k in range(501)],
    ),
    "Q10": (hypercube_graph(10), [(2.0 * k, math.comb(10, k)) for k in range(11)]),
    "K500": (complete_graph(500), [(0.0, 1), (500.0, 499)]),
    "CP250": (cocktail_party_graph(250), [(0.0, 1), (498.0, 250), (500.0, 249)]),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_SPECTRA))
def test_eigendecompose_matches_analytic_spectra(name):
    # Every multiplicity is exact, so the clustering neither splits an
    # eigenspace nor merges two (P1000's smallest gap is about 1e-5), and
    # every eigenvalue is within a few eps * ||L||_2 of the exact one.
    g, spectrum = ANALYTIC_SPECTRA[name]
    d = eigendecompose(laplacian(g))
    values, mults = d.eigenvalues, d.multiplicities
    assert len(mults) == len(spectrum)
    assert np.array_equal(mults, [k for _, k in spectrum])
    exact = np.array([value for value, _ in spectrum])
    assert np.max(np.abs(values - exact)) <= 16.0 * np.finfo(float).eps * exact[-1]


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
    given = SpectralDecomposition(d.eigenvalues, d.vectors, d.multiplicities, projectors=stack)
    assert given.projectors is stack
    assert dataclasses.replace(d, projectors=stack).projectors is stack
    # None asks for the stack to be built from the vectors again.
    assert np.array_equal(dataclasses.replace(given, projectors=None).projectors, d.projectors)


def test_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # Hermitian with eigenvalues -1 and 1; a float cast would read the zero matrix.
    with pytest.raises(ValueError, match="complex"):
        eigendecompose(np.array([[0, 1j], [-1j, 0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            eigendecompose(np.array([[bad]]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            eigendecompose(np.array([[0.0, bad], [bad, 0.0]]))



def test_eigendecompose_allocates_one_dim_squared_array():
    # The vectors and the symmetry test's difference array are never alive
    # together, and an exactly symmetric input gets no symmetrised copy.
    n = 1000
    mat = laplacian(cycle_graph(n))
    tracemalloc.start()
    try:
        eigendecompose(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8


def test_eigh_keeps_the_bits_of_the_symmetrised_solve():
    # (M + M^T)/2 is M entry for entry when M is exactly symmetric, so
    # handing M to LAPACK as given changes no bit; a matrix asymmetric within
    # the tolerance is still solved as its symmetrisation.
    rng = np.random.default_rng(32)
    mat = random_symmetric_int_matrix(rng, 9) / 3.0
    stack = _laplacian_stack([cycle_graph(6), path_graph(6), complete_graph(6), empty_graph(6)], 6)
    skewed = mat.copy()
    skewed[0, 1] += 1e-14
    for m in (mat, stack, skewed):
        w, vecs, norm = _eigh(m)
        want_w, want_vecs = np.linalg.eigh((m + m.swapaxes(-2, -1)) / 2.0)
        assert w.tobytes() == want_w.tobytes() and vecs.tobytes() == want_vecs.tobytes()
        assert norm.tolist() == np.abs(m).max(axis=(-2, -1)).tolist()
    assert not np.array_equal(skewed, skewed.T)

def test_near_degenerate_merging():
    d = eigendecompose(np.diag([0.0, 5e-9]))
    assert len(d.eigenvalues) == 1
    assert d.multiplicities == (2,)
    d2 = eigendecompose(np.diag([0.0, 1.0]))
    assert len(d2.eigenvalues) == 2


def loop_cluster(values, norm):
    """Reference for _cluster: the per-value loop it replaced."""
    tol = CLUSTER_TOL_SCALE * max(1.0, norm)
    values = np.asarray(values, dtype=float)
    vals = values.tolist()
    starts = [i for i in range(len(vals)) if i == 0 or vals[i] - vals[i - 1] > tol]
    means, sizes = [], []
    for a, b in zip(starts, starts[1:] + [len(vals)]):
        means.append(vals[a] if b - a == 1 else float(np.add.reduce(values[a:b]) / (b - a)))
        sizes.append(b - a)
    return means, sizes, starts + [len(vals)]


def chained_values(rng):
    """Ascending values in chains of up to 40 near-equal neighbours (gaps just
    under tol), chains apart by just over tol, with a random norm."""
    norm = float(rng.choice([0.5, 3.0, 40.0]))
    tol = CLUSTER_TOL_SCALE * max(1.0, norm)
    steps = []
    for size in rng.integers(1, 41, size=int(rng.integers(1, 12))).tolist():
        steps += [float(rng.uniform(1.01, 5.0) * tol)] + rng.uniform(0.0, 0.99 * tol, size=size - 1).tolist()
    return float(rng.uniform(-5.0, 5.0)) + np.cumsum(steps), norm


def same_clusters(got, want) -> bool:
    """_cluster's (means, sizes, bounds) against the loop's lists; means bit
    for bit, so the sign of a zero counts."""
    means, sizes, bounds = got
    return means.tobytes() == np.array(want[0]).tobytes() and (sizes.tolist(), bounds.tolist()) == want[1:]


def test_cluster_equals_the_per_value_loop():
    # Clusters past numpy's 8-term pairwise-summation block, all singletons,
    # and a -0.0 singleton, which a reduction would turn into +0.0: means,
    # sizes and bounds match the loop exactly.
    rng = np.random.default_rng(17)
    for _ in range(60):
        values, norm = chained_values(rng)
        assert same_clusters(_cluster(values, norm), loop_cluster(values, norm))
    for values in (np.array([-0.0, 1.0, 1.0]), np.array([-0.0, 1.0, 2.0])):
        assert same_clusters(_cluster(values, 2.0), loop_cluster(values, 2.0))
    w = np.linalg.eigvalsh(laplacian(hypercube_graph(9)))  # one cluster of 126
    got = _cluster(w, 9.0)
    assert same_clusters(got, loop_cluster(w, 9.0)) and max(got[1]) == 126


def test_gaps_split_each_row_at_its_own_norm():
    # _gaps reads the last axis of a stack, each row at its entry of the
    # broadcast norm; a row is what _cluster splits alone.
    rng = np.random.default_rng(23)
    rows = [chained_values(rng) for _ in range(8)]
    length = min(len(values) for values, _ in rows)
    values = np.array([values[:length] for values, _ in rows])
    norms = np.array([[norm] for _, norm in rows])
    split = _gaps(values, norms)
    for row, (norm,), cut in zip(values, norms, split):
        assert cut.tolist() == _gaps(row, norm).tolist()
        assert _cluster(row, norm)[2].tolist() == [0, *(cut.nonzero()[0] + 1).tolist(), length]


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


def old_block_sums(d, rows):
    """The per-call form _block_sums replaced: the starts from a cumsum on every call."""
    return np.add.reduceat(rows, np.cumsum((0,) + d.multiplicities[:-1]), axis=-1)


def repeated_and_random_laplacians():
    rng = np.random.default_rng(20)
    graphs = [hypercube_graph(3), cocktail_party_graph(4), complete_graph(5), cycle_graph(8)]
    graphs.append(corona(cycle_graph(4), [complete_graph(1)] * 4).flat)
    graphs += [random_graph(rng, int(rng.integers(2, 11)), p=float(rng.uniform(0.2, 0.9))) for _ in range(40)]
    return [laplacian(g) for g in graphs]


def test_block_sums_read_starts_computed_once(monkeypatch):
    # Every array the starts could be built with is counted: one build serves every reduction.
    d = eigendecompose(laplacian(cocktail_party_graph(4)))
    calls = []

    def counting(build):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        return wrapper

    for name in ("cumsum", "fromiter"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    verdicts = [check_pst(d, u, v) for u in range(d.dim) for v in range(u + 1, d.dim)]
    assert any(verdict.pst for verdict in verdicts)
    assert len(calls) == 1
    d.blocks()
    eigenvalue_support(d, 0)
    assert len(calls) == 1


def test_block_sums_equal_the_per_call_form_bit_for_bit():
    mats = repeated_and_random_laplacians()
    assert any(max(eigendecompose(mat).multiplicities) > 1 for mat in mats)
    for mat in mats:
        d = eigendecompose(mat)
        for u in range(d.dim):
            a = d.vectors[u]
            weights = old_block_sums(d, a * a)
            assert eigenvalue_support(d, u).weights == tuple(weights.tolist())
            for v in range(u + 1, d.dim):
                b = d.vectors[v]
                # The measure's five stacked rows give the bits of each row reduced on its own.
                measure = _pair_measure(d, u, v)
                assert measure.uv.tobytes() == old_block_sums(d, a * b).tobytes()
                rows = (a * a, b * b, (a - b) ** 2, (a + b) ** 2)
                norms = [np.sqrt(old_block_sums(d, row)) for row in rows]
                assert measure.norms.tobytes() == np.array(norms).tobytes()
                # The report strongly_cospectral derives from the per-call residuals.
                norm_u, norm_v, res_plus, res_minus = norms
                vanish = (norm_u <= SUPPORT_TOL) & (norm_v <= SUPPORT_TOL)
                ok = bool(np.all(vanish | (np.minimum(res_plus, res_minus) <= SUPPORT_TOL)))
                signs = [None if gone else (1 if p <= m else -1) for gone, p, m in zip(vanish, res_plus, res_minus)]
                report = strongly_cospectral(d, u, v)
                assert (report.strongly_cospectral, report.signs) == (ok, tuple(signs))


def test_only_the_pair_measure_and_the_antipodal_check_reduce_rows():
    # Every pair number comes from _pair_measure's one reduction; the antipodal
    # check reduces whole permuted rows, which no pair measure holds.
    callers = set()
    for path in Path(spectral.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_block_sums"
                for node in ast.walk(fn)
            ):
                callers.add(fn.name)
    assert callers == {"_pair_measure", "antipodal_sign_check"}


def test_blocks_are_the_same_views():
    for mat in repeated_and_random_laplacians() + [np.zeros((0, 0))]:
        d = eigendecompose(mat)
        stops = np.cumsum(d.multiplicities, dtype=int)
        old = [d.vectors[:, stop - mult : stop] for mult, stop in zip(d.multiplicities, stops)]
        new = d.blocks()
        assert len(new) == len(old) == len(d.multiplicities)
        for block, ref in zip(new, old):
            assert block.__array_interface__ == ref.__array_interface__
        assert d._starts.flags.writeable is False
