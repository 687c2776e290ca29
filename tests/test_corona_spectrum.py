import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import MIXED3, class_c_pair, random_connected_graph, random_graph, random_satellites
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Poly, re, symbols
from sympy.polys.matrices import DomainMatrix

from coronawalk import (
    Graph,
    complete_graph,
    component_count,
    corona,
    corona_eigenprojectors,
    corona_spectrum,
    cycle_graph,
    eigendecompose,
    empty_graph,
    hypercube_graph,
    integer_eigenvalue,
    is_connected,
    laplacian,
    path_graph,
    reconstruct,
)
from coronawalk import graphs
from coronawalk.corona_spectrum import _class_b_pieces, _corona_walk, _satellite_decompositions, _Satellites
from coronawalk.spectral import CLUSTER_TOL_SCALE, _cluster


def equal_copies(h, count):
    """count equal satellites as separate Graph objects."""
    return [Graph(h.n, h.edges) for _ in range(count)]


def kron_assembly(g, hs):
    """Reference for corona_eigenprojectors: the np.kron + merge assembly it
    replaced. Every piece is a dense dim x dim matrix, colliding pieces are
    summed pairwise in ascending value order, and the merged pieces are
    stacked at the end. Class (b) pools every satellite's raw nonzero
    eigenvalues, one per eigenvector column, by single linkage; a pooled
    value is a singleton's own or np.add.reduce / size, as in
    eigendecompose. Returns (eigenvalues, projectors, multiplicities)."""
    m = hs[0].n
    stride = m + 1
    dim = g.n * stride
    tol = CLUSTER_TOL_SCALE * max(1.0, float(np.max(np.abs(laplacian(corona(g, hs).flat)))))
    sats = [eigendecompose(laplacian(h)) for h in hs]
    cells = [slice(ell * stride + 1, (ell + 1) * stride) for ell in range(g.n)]

    pieces = []
    a_mult = sum(component_count(h) - 1 for h in hs)
    if a_mult > 0:
        proj = np.zeros((dim, dim))
        for ell, d in enumerate(sats):
            if d.multiplicities[0] > 1:
                proj[cells[ell], cells[ell]] = d.projectors[0] - np.full((m, m), 1.0 / m)
        pieces.append((1.0, proj, a_mult))

    entries = sorted(
        (mu, ell, j)
        for ell, (h, d) in enumerate(zip(hs, sats))
        for j, mu in enumerate(np.linalg.eigh(laplacian(h))[0].tolist())
        if j >= d.multiplicities[0]
    )
    groups = []
    for entry in entries:
        if groups and entry[0] - groups[-1][-1][0] <= tol:
            groups[-1].append(entry)
        else:
            groups.append([entry])
    for group in groups:
        mus = np.array([mu for mu, _, _ in group])
        mu = mus[0] if len(group) == 1 else np.add.reduce(mus) / len(group)
        proj = np.zeros((dim, dim))
        for _, ell, j in group:
            column = sats[ell].vectors[:, j]
            proj[cells[ell], cells[ell]] += np.outer(column, column)
        pieces.append((float(mu) + 1.0, proj, len(group)))

    g_decomp = eigendecompose(laplacian(g))
    for lam, mult, f_lam in zip(g_decomp.eigenvalues, g_decomp.multiplicities, g_decomp.projectors):
        for value in class_c_pair(float(lam), m):
            w = np.ones(stride)
            w[0] = 1.0 - value
            pieces.append((value, np.kron(f_lam, np.outer(w, w) / (w @ w)), mult))

    pieces.sort(key=lambda p: p[0])
    merged = []
    for value, proj, mult in pieces:
        if merged and value - merged[-1][0] <= tol:
            prev_v, prev_p, prev_m = merged[-1]
            total = prev_m + mult
            merged[-1] = ((prev_v * prev_m + value * mult) / total, prev_p + proj, total)
        else:
            merged.append((value, proj, mult))
    return (
        np.array([v for v, _, _ in merged]),
        np.array([p for _, p, _ in merged]),
        tuple(mult for _, _, mult in merged),
    )


def mult_at(pairs, value, tol=1e-9):
    hits = [m for v, m in pairs if abs(v - value) <= tol]
    assert len(hits) == 1
    return hits[0]


def test_lambda_pm_examples():
    assert class_c_pair(0.0, 1) == (2.0, 0.0)
    plus, minus = class_c_pair(2.0, 1)
    assert abs(plus - (2 + math.sqrt(2))) < 1e-12
    assert abs(minus - (2 - math.sqrt(2))) < 1e-12
    plus, minus = class_c_pair(2.0, 6)
    assert abs(plus - (9 + math.sqrt(73)) / 2) < 1e-12
    assert abs(minus - (9 - math.sqrt(73)) / 2) < 1e-12


def test_lambda_pm_identities():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = float(rng.uniform(0.0, 12.0))
        m = int(rng.integers(1, 9))
        plus, minus = class_c_pair(lam, m)
        assert abs(plus + minus - (m + lam + 1)) < 1e-12
        assert abs(plus * minus - lam) < 1e-11
        assert abs((1 - plus) * (1 - minus) + m) < 1e-11


def test_k2_corona_k1_matches_p4():
    cs = corona_spectrum(complete_graph(2), [empty_graph(1)] * 2)
    assert cs.class_a.multiplicity == 0
    assert cs.class_b == ()
    assert len(cs.class_c) == 2
    assert cs.total_multiplicity() == 4
    got = cs.eigenvalue_list()
    oracle = np.linalg.eigvalsh(laplacian(path_graph(4)))
    assert len(got) == 4
    for (value, mult), expect in zip(got, sorted(oracle)):
        assert mult == 1
        assert abs(value - expect) < 1e-9


def test_double_star_classes():
    cs = corona_spectrum(complete_graph(2), [empty_graph(6)] * 2)
    assert cs.class_a.multiplicity == 10
    assert cs.class_b == ()
    c0, c2 = cs.class_c
    assert (c0.lam_plus, c0.lam_minus) == (7.0, 0.0)
    assert (c0.delta_sq, c0.s, c0.c) == (49, 7, 1)
    assert (c2.delta_sq, c2.s, c2.c) == (73, 1, 73)
    assert abs(c2.lam_plus - (9 + math.sqrt(73)) / 2) < 1e-12
    assert cs.total_multiplicity() == 14


def test_mixed_satellite_class_structure():
    cs = corona_spectrum(hypercube_graph(2), MIXED3)
    assert cs.m == 3
    assert cs.class_a.multiplicity == 3

    assert np.allclose([b.mu for b in cs.class_b], [1.0, 2.0, 3.0], atol=1e-9)
    assert np.allclose([b.value for b in cs.class_b], [2.0, 3.0, 4.0], atol=1e-9)
    assert [b.satellites for b in cs.class_b] == [(2,), (1,), (2, 3)]
    assert [b.multiplicity for b in cs.class_b] == [1, 1, 3]

    assert np.allclose([c.lam for c in cs.class_c], [0.0, 2.0, 4.0], atol=1e-9)
    assert [c.multiplicity for c in cs.class_c] == [1, 2, 1]
    assert [c.delta_sq for c in cs.class_c] == [16, 28, 48]
    assert [(c.s, c.c) for c in cs.class_c] == [(4, 1), (2, 7), (4, 3)]
    assert cs.total_multiplicity() == 16

    # class (b) value 4 meets lambda_plus(0) = m + 1 = 4
    assert mult_at(cs.eigenvalue_list(), 4.0) == 4


def test_homogeneous_satellites_pool_all_cells():
    cs = corona_spectrum(cycle_graph(4), [path_graph(3)] * 4)
    assert cs.class_a.multiplicity == 0
    assert np.allclose([b.value for b in cs.class_b], [2.0, 4.0], atol=1e-9)
    assert all(b.satellites == (0, 1, 2, 3) for b in cs.class_b)
    assert all(b.multiplicity == 4 for b in cs.class_b)
    assert mult_at(cs.eigenvalue_list(), 4.0) == 5  # 4 from class (b) plus lambda_plus(0)
    assert cs.total_multiplicity() == 16


def test_non_integer_base_eigenvalues_have_no_exact_split():
    # C5 eigenvalues are 0 and (5 +/- sqrt(5))/2, the latter irrational
    cs = corona_spectrum(cycle_graph(5), [empty_graph(1)] * 5)
    non_integer = [c for c in cs.class_c if abs(c.lam) > 0.5]
    assert len(non_integer) == 2
    for c in non_integer:
        assert c.delta_sq is None and c.s is None and c.c is None
    zero = cs.class_c[0]
    assert abs(zero.lam) < 1e-9
    assert zero.delta_sq == 4 and (zero.s, zero.c) == (2, 1)


def test_projectors_reconstruct_blocks():
    g, hs = hypercube_graph(2), MIXED3
    d = corona_eigenprojectors(g, hs)
    assert sum(d.multiplicities) == 16
    total = np.sum(d.projectors, axis=0)
    assert np.max(np.abs(total - np.eye(d.dim))) < 1e-10
    assert np.max(np.abs(reconstruct(d) - laplacian(corona(g, hs).flat))) < 1e-9
    for i, fi in enumerate(d.projectors):
        assert np.max(np.abs(fi @ fi - fi)) < 1e-9


def test_projectors_match_dense_oracle():
    cases = [
        (complete_graph(2), [empty_graph(3)] * 2),
        (hypercube_graph(2), MIXED3),
        (complete_graph(2), [complete_graph(2)] * 2),
    ]
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        g = random_connected_graph(rng, n)
        cases.append((g, random_satellites(rng, n, int(rng.integers(1, 4)))))
    for g, hs in cases:
        closed = corona_eigenprojectors(g, hs)
        oracle = eigendecompose(laplacian(corona(g, hs).flat))
        assert len(closed.eigenvalues) == len(oracle.eigenvalues)
        assert np.max(np.abs(closed.eigenvalues - oracle.eigenvalues)) < 1e-9
        assert closed.multiplicities == oracle.multiplicities
        assert np.max(np.abs(closed.projectors - oracle.projectors)) < 1e-8


def test_base_entries_of_pair_projectors():
    # On base vertices the pair projector reduces to
    # F_lam(G)[u,v] * (1 - value)^2 / ((1 - value)^2 + m).
    g, hs = complete_graph(2), [empty_graph(3)] * 2
    m = 3
    d = corona_eigenprojectors(g, hs)
    g_decomp = eigendecompose(laplacian(g))
    for lam, f_lam in zip(g_decomp.eigenvalues, g_decomp.projectors):
        for value in class_c_pair(float(lam), m):
            idx = int(np.argmin(np.abs(d.eigenvalues - value)))
            w0 = 1.0 - value
            expect = f_lam[0, 1] * w0 * w0 / (w0 * w0 + m)
            assert abs(d.projectors[idx][0, m + 1] - expect) < 1e-12


def test_satellite_confined_projector_has_zero_base_rows():
    d = corona_eigenprojectors(complete_graph(2), [path_graph(3)] * 2)
    idx = int(np.argmin(np.abs(d.eigenvalues - 2.0)))  # mu = 1 class (b) value
    proj = d.projectors[idx]
    assert np.max(np.abs(proj[0, :])) < 1e-12  # base vertex (1,0)
    assert np.max(np.abs(proj[4, :])) < 1e-12  # base vertex (2,0)


def test_collision_merges_into_single_projector():
    # K2 with K2 satellites: class (b) value 3 collides with lambda_plus(0) = 3.
    d = corona_eigenprojectors(complete_graph(2), [complete_graph(2)] * 2)
    idx = int(np.argmin(np.abs(d.eigenvalues - 3.0)))
    assert abs(d.eigenvalues[idx] - 3.0) < 1e-12
    assert d.multiplicities[idx] == 3
    proj = d.projectors[idx]
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    assert abs(np.trace(proj) - 3.0) < 1e-10


def test_class_b_pooling_links_a_chain_like_eigendecompose():
    # Three distinct satellites whose nonzero eigenvalues sit 0.9 * tol
    # apart: single linkage pools all three; comparing each value with its
    # cluster's running mean would split off the third.
    tol = CLUSTER_TOL_SCALE * 3.0
    chain = [3.0, 3.0 + 0.9 * tol, 3.0 + 1.8 * tol]
    # Satellite row r has eigenvalues (0, chain[r]) and kernel size 1;
    # max-norm 3: the gap is tol.
    values = np.array([(0.0, mu) for mu in chain])
    sats = _Satellites(np.arange(3), values, np.stack([np.eye(2)] * 3), np.ones(3, int), 3.0)
    pooled = _class_b_pieces(sats)
    assert pooled.multiplicities.tolist() == [3] and pooled.bounds.tolist() == [0, 3]
    assert pooled.cells.tolist() == [0, 1, 2] and pooled.columns.tolist() == [1, 1, 1]
    d = eigendecompose(np.diag(chain))
    assert d.multiplicities == (3,)
    assert pooled.mus.tobytes() == d.eigenvalues.tobytes()


def test_k2_corona_p2000_keeps_every_path_eigenvalue():
    # P_2000's smallest gaps, near 0 and 4, are about 7.4e-6. A pooling gap
    # scaled by the corona's max-norm (1e-8 * 2001) chained them into 1,993
    # values of multiplicity up to 8.
    m = 2000
    cs = corona_spectrum(complete_graph(2), [path_graph(m)] * 2)
    assert [b.multiplicity for b in cs.class_b] == [2] * (m - 1)
    exact = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m) / m)
    assert np.max(np.abs(np.array([b.mu for b in cs.class_b]) - exact)) <= 1e-12
    listed = cs.eigenvalue_list()
    assert len(listed) == m + 3
    assert sum(k for _, k in listed) == cs.total_multiplicity() == 2 * (m + 1)


def test_largest_eigenvalue_is_m_iff_the_complement_is_disconnected():
    # The exact collision test of _merge_pieces, over every labelled graph
    # on m <= 5 vertices.
    seen = 0
    for m in range(1, 6):
        pairs = list(itertools.combinations(range(m), 2))
        for mask in range(1 << len(pairs)):
            edges = {pair for j, pair in enumerate(pairs) if mask >> j & 1}
            top = eigendecompose(laplacian(Graph(m, edges))).eigenvalues[-1]
            complement = Graph(m, set(pairs) - edges)
            assert (integer_eigenvalue(top) == m) == (not is_connected(complement))
            seen += 1
    assert seen == 1099


_X = symbols("x")


def exact_spectrum(mat) -> list:
    """(root, multiplicity) pairs ascending of the integer matrix mat: its
    characteristic polynomial over ZZ factored over Q, each irreducible
    factor's roots with the factor's exponent."""
    rows = [[ZZ(int(x)) for x in row] for row in mat]
    charpoly = DomainMatrix(rows, mat.shape, ZZ).charpoly()
    _, factors = Poly(charpoly, _X, domain=ZZ).factor_list()
    return sorted((float(re(r)), e) for f, e in factors for r in f.nroots(n=30))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spectrum_matches_the_exact_characteristic_polynomial(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = random_graph(rng, n, data.draw(st.floats(0.0, 1.0)))
    hs = [random_graph(rng, m, data.draw(st.floats(0.0, 1.0))) for _ in range(n)]
    exact = exact_spectrum(laplacian(corona(g, hs).flat))
    listed = corona_spectrum(g, hs).eigenvalue_list()
    d = corona_eigenprojectors(g, hs)
    assert [k for _, k in exact] == [k for _, k in listed] == list(d.multiplicities)
    values = np.array([v for v, _ in listed])
    assert np.all(np.diff(values) > 0)
    assert np.max(np.abs(values - [v for v, _ in exact])) <= 1e-9
    assert np.max(np.abs(d.eigenvalues - values)) <= 1e-9


def test_satellite_order_mismatch():
    with pytest.raises(ValueError):
        corona_spectrum(complete_graph(2), [empty_graph(1), empty_graph(2)])


_RNG = np.random.default_rng(7)

BIT_EXACT_CASES = {
    # class (a): empty and disconnected satellites
    "class_a_mixed": (hypercube_graph(2), MIXED3),
    "class_a_sparse_random": (cycle_graph(8), random_satellites(_RNG, 8, 5, 0.3)),
    # class (b) value m + 1 meets lambda_plus(0) = m + 1; for K2 and K4 the
    # two values are equal and (b) sorts first, for K6 (b) lands one ulp above
    "collision_K2": (complete_graph(2), [complete_graph(2)] * 2),
    "collision_K4": (cycle_graph(6), [complete_graph(4)] * 6),
    "collision_K6": (cycle_graph(5), [complete_graph(6)] * 5),
    "distinct_random": (cycle_graph(7), random_satellites(_RNG, 7, 5)),
    "random_base_distinct_random": (random_connected_graph(_RNG, 6), random_satellites(_RNG, 6, 4)),
    # equal satellites as separate objects: decomposed once, by equality
    "equal_relabelled_P4": (complete_graph(5), equal_copies(path_graph(4), 5)),
    "equal_relabelled_disconnected": (cycle_graph(5), equal_copies(Graph(4, frozenset({(0, 1)})), 5)),
}


@pytest.mark.parametrize("name", sorted(BIT_EXACT_CASES))
def test_projectors_bit_identical_to_kron_assembly(name):
    g, hs = BIT_EXACT_CASES[name]
    d = corona_eigenprojectors(g, hs)
    values, projectors, mults = kron_assembly(g, hs)
    assert np.array_equal(d.eigenvalues, values)
    assert d.multiplicities == mults
    # The projectors are built from the eigenvector columns, not summed from
    # pieces, so they match the assembly to rounding, not bit for bit.
    assert np.max(np.abs(d.projectors - projectors)) <= 1e-14
    assert np.max(np.abs(d.vectors.T @ d.vectors - np.eye(d.dim))) <= 1e-13
    # The closed-form eigenvalue list clusters like the projectors, exactly.
    listed = corona_spectrum(g, hs).eigenvalue_list()
    assert [v for v, _ in listed] == list(d.eigenvalues)
    assert tuple(k for _, k in listed) == d.multiplicities


@pytest.mark.parametrize(
    "g, hs",
    [(cycle_graph(30), [path_graph(10)] * 30), (cycle_graph(20), [complete_graph(6)] * 20)],
    ids=["C30oP10", "C20oK6"],
)
def test_projector_assembly_peak_memory(g, hs):
    # One dim x dim array of eigenvector columns and no projector stack: the
    # traced peak stays within twice the size of the vectors, where building
    # the (k, dim, dim) stack needs about k times it.
    corona_eigenprojectors(g, hs)  # warm-up
    tracemalloc.start()
    try:
        d = corona_eigenprojectors(g, hs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * d.vectors.nbytes


def test_one_eigensolve_per_distinct_satellite(monkeypatch):
    # Each distinct satellite is one row of one stacked eigensolve; the base
    # is one more.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat.shape) or eigh(mat))
    g = cycle_graph(6)
    hs = equal_copies(path_graph(3), 3) + [complete_graph(3)] * 3
    for fn in (corona_spectrum, corona_eigenprojectors):
        calls.clear()
        fn(g, hs)
        assert calls == [(2, 3, 3), (6, 6)]  # P3 and K3, then the base
    # 25 distinct satellites: two eigensolves, where one per satellite made 26.
    hs = random_satellites(np.random.default_rng(5), 25, 10)
    assert len(set(hs)) == 25
    calls.clear()
    corona_spectrum(cycle_graph(25), hs)
    assert calls == [(25, 10, 10), (25, 25)]


def test_one_class_a_basis_per_distinct_satellite(monkeypatch):
    # A disconnected satellite's class (a) columns depend only on its stack
    # row, so equal satellites share one QR completion, however many cells
    # hold them: C4 corona O3 used to run four, K2 corona O6 two.
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: calls.append(a.shape) or qr(a, mode=mode))
    cases = [
        (cycle_graph(4), [empty_graph(3)] * 4, [(3, 1)]),
        (complete_graph(2), equal_copies(empty_graph(6), 2), [(6, 1)]),
        (cycle_graph(5), [empty_graph(4), path_graph(4), empty_graph(4), Graph(4, {(0, 1)}), path_graph(4)],
         [(4, 1), (3, 1)]),
    ]
    for g, hs, want in cases:
        calls.clear()
        d = corona_eigenprojectors(g, hs)
        assert calls == want
        # The shared columns are the same bits in every cell of that satellite.
        stride, a_cols = hs[0].n + 1, slice(g.n, g.n + sum(component_count(h) - 1 for h in hs))
        rows = [d.vectors[ell * stride + 1 : (ell + 1) * stride, a_cols] for ell in range(g.n)]
        blocks = [r[:, np.any(r != 0.0, axis=0)] for r in rows]
        for ell, h in enumerate(hs):
            twin = hs.index(h)
            assert blocks[ell].tobytes() == blocks[twin].tobytes()


def test_one_adjacency_per_distinct_satellite(monkeypatch):
    # The class (b) cluster norm is read off the satellite Laplacians the
    # eigensolve uses, so no satellite adjacency is built a second time.
    calls = []
    build = graphs._adjacency_stack

    def counting(gs, m):
        calls.extend(g.n for g in gs)
        return build(gs, m)

    monkeypatch.setattr(graphs, "_adjacency_stack", counting)
    corona_spectrum(cycle_graph(6), equal_copies(path_graph(3), 3) + [complete_graph(3)] * 3)
    assert sorted(calls) == [3, 3, 6]  # P3, K3 and the base
    calls.clear()
    corona_spectrum(cycle_graph(5), [empty_graph(4), path_graph(4), empty_graph(4), cycle_graph(4), path_graph(4)])
    assert sorted(calls) == [4, 4, 4, 5]


def test_stacked_satellites_equal_eigendecompose_bit_for_bit():
    # One stack holds O_m, K_m, P_m, C_m and sparse random satellites with
    # isolated vertices; each row is the raw eigh of laplacian(h), byte for
    # byte, so clustering it at the row's own norm gives eigendecompose's
    # eigenvalues, and the row's kernel is eigendecompose's first cluster.
    # At m = 1 all of them are K1.
    rng = np.random.default_rng(13)
    for m in (1, 4, 7, 10):
        hs = [empty_graph(m), complete_graph(m), path_graph(m)] + ([cycle_graph(m)] if m >= 3 else [])
        hs = list(dict.fromkeys(hs + random_satellites(rng, 12, m, 0.2)))  # distinct, in order
        sats = _satellite_decompositions(hs + hs[::-1], m)
        assert sats.rows.tolist() == list(range(len(hs))) + list(range(len(hs)))[::-1]
        isolated = [h for h in hs[4:] if h.edges and np.any(np.diag(laplacian(h)) == 0)]
        assert isolated or m == 1
        for r, h in enumerate(hs):
            want = eigendecompose(laplacian(h))
            assert sats.values[r].tobytes() == np.linalg.eigh(laplacian(h))[0].tobytes()
            assert sats.vectors[r].tobytes() == want.vectors.tobytes()
            means, sizes, _ = _cluster(sats.values[r], float(np.max(laplacian(h))))
            assert means.tobytes() == want.eigenvalues.tobytes() and tuple(sizes.tolist()) == want.multiplicities
            assert sats.kernel[r] == want.multiplicities[0]
        assert sats.norm == max(float(np.max(laplacian(h))) for h in hs)


def test_class_b_pooling_and_columns_equal_the_loops():
    # References for the stacked class (b) path: the sorted() pooling over
    # (value, cell, column) tuples of every raw nonzero satellite eigenvalue,
    # and one column write per entry, which the projector columns equal byte
    # for byte.
    rng = np.random.default_rng(19)
    cases = [(cycle_graph(6), [path_graph(4)] * 6), (hypercube_graph(2), MIXED3)]
    cases += [(cycle_graph(n), random_satellites(rng, n, m, p)) for n, m, p in ((7, 5, 0.5), (9, 6, 0.3), (5, 8, 0.6))]
    cases += [(cycle_graph(4), [complete_graph(3), path_graph(3)] * 2), (cycle_graph(5), [complete_graph(6)] * 5)]
    for g, hs in cases:
        m = hs[0].n
        sats = _satellite_decompositions(hs, m)
        rows = sats.rows.tolist()
        entries = sorted(
            (sats.values[r, j], ell, j) for ell, r in enumerate(rows) for j in range(sats.kernel[r], m)
        )
        pooled = _class_b_pieces(sats)
        assert pooled.cells.tolist() == [ell for _, ell, _ in entries]
        assert pooled.columns.tolist() == [j for _, _, j in entries]
        want = _cluster(np.array([e[0] for e in entries]), sats.norm)
        assert [x.tobytes() for x in pooled[:3]] == [x.tobytes() for x in want]

        d = corona_eigenprojectors(g, hs)
        stride = m + 1
        cols = np.zeros((g.n * stride, len(entries)))
        for col, (_, ell, j) in enumerate(entries):
            cols[ell * stride + 1 : (ell + 1) * stride, col] = sats.vectors[rows[ell]][:, j]
        a_mult = corona_spectrum(g, hs).class_a.multiplicity
        assert d.vectors[:, g.n + a_mult : g.n + a_mult + len(entries)].tobytes() == cols.tobytes()


def test_class_b_is_eigendecompose_on_the_direct_sum():
    # Oracle: eigendecompose of the block-diagonal direct sum of the
    # satellite Laplacians has the satellite kernels as its first cluster
    # and class (b)'s mu with the same multiplicities after it, to within
    # 64 eps times the largest satellite degree.
    rng = np.random.default_rng(29)
    cases = [BIT_EXACT_CASES[name] for name in sorted(BIT_EXACT_CASES)]
    cases += [(cycle_graph(n), [complete_graph(m)] * n) for n, m in ((3, 5), (4, 6), (5, 7))]
    cases += [
        (cycle_graph(n), random_satellites(rng, n, m, p))
        for n, m, p in itertools.product((3, 6), (2, 5, 8), (0.2, 0.5, 0.8))
    ]
    for g, hs in cases:
        m = hs[0].n
        direct = np.zeros((g.n * m, g.n * m))
        for ell, h in enumerate(hs):
            direct[ell * m : (ell + 1) * m, ell * m : (ell + 1) * m] = laplacian(h)
        d = eigendecompose(direct)
        class_b = corona_spectrum(g, hs).class_b
        assert d.multiplicities[0] == sum(component_count(h) for h in hs)
        assert [b.multiplicity for b in class_b] == list(d.multiplicities[1:])
        mus = np.array([b.mu for b in class_b])
        assert np.all(np.abs(mus - d.eigenvalues[1:]) <= 64 * np.finfo(float).eps * max(1.0, np.max(direct)))


def test_one_class_b_clustering_per_corona_setup(monkeypatch):
    # Class (b) is clustered once per setup, over every cell's raw nonzero
    # eigenvalues; with every satellite edgeless there is nothing to cluster.
    calls = []
    module = importlib.import_module("coronawalk.corona_spectrum")  # the package attribute is the function
    monkeypatch.setattr(module, "_cluster", lambda *args: calls.append(args) or _cluster(*args))
    cases = [
        (hypercube_graph(2), MIXED3, 1),
        (cycle_graph(7), random_satellites(np.random.default_rng(31), 7, 5), 1),
        (complete_graph(3), [empty_graph(4)] * 3, 0),
    ]
    for g, hs, want in cases:
        for fn in (corona_spectrum, corona_eigenprojectors):
            calls.clear()
            fn(g, hs)
            assert len(calls) == want


def test_corona_walk_returns_the_base_decomposition():
    # The pair corona walks run on: the spectrum and the very L(G)
    # decomposition it was built from, the bits of a fresh eigendecompose.
    for g, hs in [(hypercube_graph(2), MIXED3), (cycle_graph(5), [path_graph(3)] * 5)]:
        cs, g_decomp = _corona_walk(g, hs)
        want = eigendecompose(laplacian(g))
        assert cs == corona_spectrum(g, hs)
        assert g_decomp.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert g_decomp.vectors.tobytes() == want.vectors.tobytes()
        assert g_decomp.multiplicities == want.multiplicities


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda w: w + 1e-6, "kernel not found"),
        (lambda w: w + [0.0, 1.0, 0.0], "disagrees with component count"),
    ],
    ids=["kernel_shifted", "kernel_multiplicity"],
)
def test_satellite_kernel_checks(monkeypatch, fault, message):
    # The satellite O1 + K2 has eigenvalues 0 (twice) and 2. A stacked
    # satellite eigensolve whose lowest eigenvalue sits 1e-6 off zero, or
    # whose kernel splits (0, 1, 2) so that its multiplicity is not the
    # component count, is rejected by both corona functions.
    eigh = np.linalg.eigh

    def faulty(mat):
        w, vecs = eigh(mat)
        return (fault(w) if w.ndim == 2 else w), vecs

    monkeypatch.setattr(np.linalg, "eigh", faulty)
    hs = [Graph(3, frozenset({(0, 1)}))] * 2
    for fn in (corona_spectrum, corona_eigenprojectors):
        with pytest.raises(ArithmeticError, match=message):
            fn(complete_graph(2), hs)


def test_satellite_rows_cluster_at_their_own_tolerance(monkeypatch):
    # Stacked with K5 (max-norm 4), P3 + O2 (max-norm 2, eigenvalues 0, 0, 0,
    # 1, 3) finds its kernel at its own tol 2e-8, not the stack's 4e-8: with
    # its eigenvalue 1 read as 3e-8, the kernel stays the 3 components, where
    # the stack's tolerance would take in a fourth column and fail the
    # component count.
    eigh = np.linalg.eigh

    def near_zero(mat):
        w, vecs = eigh(mat)
        w[0, 3] = 3e-8
        return w, vecs

    monkeypatch.setattr(np.linalg, "eigh", near_zero)
    sats = _satellite_decompositions([Graph(5, frozenset({(0, 1), (1, 2)})), complete_graph(5)], 5)
    assert sats.norm == 4.0
    assert sats.kernel.tolist() == [3, 1]
    assert _class_b_pieces(sats).mus[0] == 3e-8
