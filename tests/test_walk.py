import math

import numpy as np
import pytest
from conftest import MIXED3, random_graph, scalar_fidelity_phase

from coronawalk import (
    adjacency,
    cocktail_party_graph,
    complete_graph,
    corona,
    corona_laplacian_blocks,
    corona_spectrum,
    corona_transition_values,
    eigendecompose,
    empty_graph,
    evolve_operator,
    hypercube_graph,
    laplacian,
    path_graph,
    transition_values,
    walk_matrix,
)
from coronawalk.walk import _fidelity_phase


def test_walk_matrix_kinds():
    g = path_graph(3)
    assert np.array_equal(walk_matrix(g), laplacian(g))
    assert np.array_equal(walk_matrix(g, "adjacency"), adjacency(g))
    with pytest.raises(ValueError):
        walk_matrix(g, "xyz")


def test_identity_at_t_zero():
    d = eigendecompose(laplacian(path_graph(4)))
    assert np.max(np.abs(evolve_operator(d, 0.0) - np.eye(4))) < 1e-12
    values = transition_values(d, 2, 2, [0.0])
    (fidelity,), _ = _fidelity_phase(values)
    assert abs(values[0] - 1.0) < 1e-12 and abs(fidelity - 1.0) < 1e-12


def test_k2_closed_form():
    d = eigendecompose(laplacian(complete_graph(2)))
    for t in (0.3, 1.0, math.pi / 2, 4.7):
        u = evolve_operator(d, t)
        assert abs(u[0, 0] - 0.5 * (1 + np.exp(-2j * t))) < 1e-12
        assert abs(u[0, 1] - 0.5 * (1 - np.exp(-2j * t))) < 1e-12
    values = transition_values(d, 0, 1, [math.pi / 2])
    (fidelity,), (phase,) = _fidelity_phase(values)
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(fidelity - 1.0) < 1e-12
    assert abs(phase - 1.0) < 1e-12


def test_k2_fidelity_is_sin_squared():
    d = eigendecompose(laplacian(complete_graph(2)))
    ts = np.linspace(0.0, 7.0, 40)
    values = transition_values(d, 0, 1, ts)
    assert np.max(np.abs(np.abs(values) ** 2 - np.sin(ts) ** 2)) < 1e-12


def test_unitarity_and_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)))
        for kind in ("laplacian", "adjacency"):
            d = eigendecompose(walk_matrix(g, kind))
            t = float(rng.uniform(0.0, 50.0))
            u = evolve_operator(d, t)
            assert np.max(np.abs(u @ u.conj().T - np.eye(g.n))) < 1e-9
            assert np.max(np.abs(u - u.T)) < 1e-10  # symmetric Hamiltonian


def test_empty_graph_is_stationary():
    d = eigendecompose(laplacian(empty_graph(3)))
    assert abs(transition_values(d, 0, 0, [17.2])[0] - 1.0) < 1e-12
    (fidelity,), (phase,) = _fidelity_phase(transition_values(d, 0, 1, [17.2]))
    assert fidelity == 0.0
    assert phase is None


def test_phase_is_unit_modulus():
    d = eigendecompose(laplacian(path_graph(4)))
    _, phases = _fidelity_phase(transition_values(d, 0, 3, np.linspace(0.1, 20.0, 25)))
    for phase in phases:
        if phase is not None:
            assert abs(abs(phase) - 1.0) < 1e-12


def test_corona_element_matches_direct_evolution():
    rng = np.random.default_rng(31)
    cases = [
        (complete_graph(2), [empty_graph(3)] * 2, 0, 1),
        (hypercube_graph(2), MIXED3, 0, 3),
        (path_graph(3), [complete_graph(2)] * 3, 0, 2),
    ]
    for g, hs, u, v in cases:
        cs = corona_spectrum(g, hs)
        g_decomp = eigendecompose(laplacian(g))
        cg = corona(g, hs)
        oracle = eigendecompose(corona_laplacian_blocks(g, hs))
        ts = rng.uniform(0.0, 100.0, size=40)
        got = corona_transition_values(cs, g_decomp, u, v, ts)
        expect = transition_values(oracle, cg.flat_index(u, 0), cg.flat_index(v, 0), ts)
        assert np.max(np.abs(got - expect)) < 1e-10


def test_satellite_structure_is_invisible_to_base_elements():
    g = hypercube_graph(2)
    g_decomp = eigendecompose(laplacian(g))
    ts = np.linspace(0.0, 30.0, 50)
    a = corona_transition_values(corona_spectrum(g, [empty_graph(3)] * 4), g_decomp, 0, 3, ts)
    b = corona_transition_values(corona_spectrum(g, MIXED3), g_decomp, 0, 3, ts)
    assert np.max(np.abs(a - b)) < 1e-12


def test_pendant_pair_element_at_revival_times():
    # K2 with pendant empty satellites: at t = 4 pi ell the element between the
    # two base vertices is
    #   1/2 - cos(2 pi ell D)/2 + i (m+1) sin(2 pi ell D) / (2 D),
    # D = sqrt((m+1)^2 + 4m). The imaginary part is essential: the value is not
    # real unless sin(2 pi ell D) vanishes.
    for m in (2, 6):
        g = complete_graph(2)
        hs = [empty_graph(m)] * 2
        cs = corona_spectrum(g, hs)
        g_decomp = eigendecompose(laplacian(g))
        oracle = eigendecompose(corona_laplacian_blocks(g, hs))
        delta = math.sqrt((m + 1) ** 2 + 4 * m)
        for ell in range(1, 9):
            t = 4.0 * math.pi * ell
            expect = complex(
                0.5 - 0.5 * math.cos(2 * math.pi * ell * delta),
                (m + 1) / (2 * delta) * math.sin(2 * math.pi * ell * delta),
            )
            got = corona_transition_values(cs, g_decomp, 0, 1, [t])[0]
            assert abs(got - expect) < 1e-10
            direct = transition_values(oracle, 0, m + 1, np.array([t]))[0]
            assert abs(direct - expect) < 1e-10


def test_regular_graph_kinds_agree_on_fidelity():
    # On a k-regular graph L = kI - A, so the two walks differ by a global
    # phase and conjugation; fidelities coincide.
    for g in (cocktail_party_graph(2), complete_graph(4), hypercube_graph(3)):
        dl = eigendecompose(walk_matrix(g, "laplacian"))
        da = eigendecompose(walk_matrix(g, "adjacency"))
        ts = np.linspace(0.0, 25.0, 60)
        fl = np.abs(transition_values(dl, 0, g.n - 1, ts)) ** 2
        fa = np.abs(transition_values(da, 0, g.n - 1, ts)) ** 2
        assert np.max(np.abs(fl - fa)) < 1e-10


def test_base_consistency_guard():
    cs = corona_spectrum(complete_graph(2), [empty_graph(3)] * 2)
    wrong = eigendecompose(laplacian(path_graph(3)))
    with pytest.raises(ValueError):
        corona_transition_values(cs, wrong, 0, 1, [1.0])


def test_fidelity_phase_matches_the_scalar_rule():
    rng = np.random.default_rng(808)
    n = 100_000
    scale = 10.0 ** rng.uniform(-14.0, 1.0, n)
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    values[::500] = 0.0
    values[1::500] = complex(-0.0, -0.0)
    values[2::500] = 1e-12 * rng.uniform(0.999, 1.001, len(values[2::500]))  # at the phase floor
    values[3::500] = values[3::500].real  # pure real, pure imaginary
    values[4::500] = 1j * values[4::500].imag
    fidelity, phase = _fidelity_phase(values)

    reference = [scalar_fidelity_phase(value) for value in values]
    assert fidelity == [f for f, _ in reference]
    no_phase = [p is None for _, p in reference]
    assert [p is None for p in phase] == no_phase
    assert 1_000 < sum(no_phase) < n // 2
    got = np.array([p for p in phase if p is not None])
    expected = np.array([p for _, p in reference if p is not None])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))  # signed zeros too


def test_vertex_range_validation():
    d = eigendecompose(laplacian(complete_graph(2)))
    with pytest.raises(ValueError):
        transition_values(d, 0, 2, [1.0])
    cs = corona_spectrum(complete_graph(2), [empty_graph(1)] * 2)
    with pytest.raises(ValueError):
        corona_transition_values(cs, d, 2, 0, [1.0])
