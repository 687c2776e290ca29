import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import MIXED3, random_connected_graph, random_graph, scalar_fidelity_phase
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coronawalk import (
    SpectralDecomposition,
    adjacency,
    cocktail_party_graph,
    complete_graph,
    corona,
    corona_spectrum,
    corona_transition_values,
    cycle_graph,
    eigendecompose,
    empty_graph,
    evolve_operator,
    hypercube_graph,
    laplacian,
    path_graph,
    transition_values,
    walk_matrix,
)
from coronawalk.corona_spectrum import _corona_walk
from coronawalk.walk import _fidelity, _fidelity_phase, _phase_screen


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
        oracle = eigendecompose(laplacian(corona(g, hs).flat))
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
        oracle = eigendecompose(laplacian(corona(g, hs).flat))
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


def test_corona_values_against_50_digit_mpmath():
    # cocktail_party(3) with pendant vertices, pair (0, 3), at t = 4 pi ell: the
    # error float64 leaves in the phases t*lam/2 and t*Delta/2 grows with t.
    # Measured: 1.5e-12 at ell = 342 (the frozen PGST hit) and 3.0e-9 at ell = 1e6.
    # <0|F_lam|3> on CP(3): J/6 at 0, (I - P)/2 at 4 and (I + P)/2 - J/6 at 6,
    # with P the antipodal matching.
    g = cocktail_party_graph(3)
    cs, g_decomp = corona_spectrum(g, [complete_graph(1)] * 6), eigendecompose(laplacian(g))
    weights = {0: Fraction(1, 6), 4: Fraction(-1, 2), 6: Fraction(1, 3)}
    assert np.allclose(transition_values(g_decomp, 0, 3, [0.0, 1.0]), [
        sum(float(w) * np.exp(-1j * lam * t) for lam, w in weights.items()) for t in (0.0, 1.0)
    ])
    m = cs.m
    for ell, bound in ((342, 5e-12), (10**6, 1e-8)):
        got = corona_transition_values(cs, g_decomp, 0, 3, [4.0 * math.pi * ell])[0]
        with mpmath.workdps(50):
            half = 2 * mpmath.pi * ell  # t/2
            expect = mpmath.mpc(0)
            for lam, w in weights.items():
                delta = mpmath.sqrt((m + lam - 1) ** 2 + 4 * m)
                osc = mpmath.cos(half * delta) - 1j * (m + lam - 1) / delta * mpmath.sin(half * delta)
                expect += mpmath.mpf(w.numerator) / w.denominator * mpmath.expj(-half * lam) * osc
            error = float(abs(mpmath.mpc(got.real, got.imag) - expect * mpmath.expj(-half * (m + 1))))
        assert error < bound, (ell, error)


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
    # The base eigenvalues 0 and 2, but with multiplicities (1, 2).
    wrong = SpectralDecomposition(np.array([0.0, 2.0]), np.eye(3), (1, 2))
    with pytest.raises(ValueError, match="different base graph"):
        corona_transition_values(cs, wrong, 0, 1, [1.0])
    # The eigenvalues must agree to 1e-8, and a NaN agrees with nothing.
    vectors = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    for lams in ([0.0, np.nan], [np.nan, 2.0], [0.0, 2.0 + 2e-8], [-2e-8, 2.0]):
        wrong = SpectralDecomposition(np.array(lams), vectors, (1, 1))
        with pytest.raises(ValueError, match="different base graph"):
            corona_transition_values(cs, wrong, 0, 1, [1.0])
    near = SpectralDecomposition(np.array([0.0, 2.0 + 5e-9]), vectors, (1, 1))
    assert corona_transition_values(cs, near, 0, 1, [1.0]).shape == (1,)


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


def test_fidelity_is_within_2u_of_the_exact_square():
    # re*re + im*im errs by at most 2u = 2**-52 relative to the exact |z|**2
    # (the n*u bound of an n-term dot product); squaring np.hypot's modulus
    # with np.float_power reached 3.19e-16 on these values.
    rng = np.random.default_rng(20_000)
    n = 20_000
    scale = 10.0 ** rng.uniform(-30.0, 30.0, n)  # no square under- or overflows
    values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 0.0, n)
              + 1j * rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 0.0, n)) * scale
    worst = Fraction(0)
    for f, re, im in zip(_fidelity(values).tolist(), values.real.tolist(), values.imag.tolist()):
        exact = Fraction(re) ** 2 + Fraction(im) ** 2
        worst = max(worst, abs(Fraction(f) - exact) / exact)
    assert worst <= Fraction(1, 2**52)


def test_vertex_range_validation():
    d = eigendecompose(laplacian(complete_graph(2)))
    with pytest.raises(ValueError):
        transition_values(d, 0, 2, [1.0])
    cs = corona_spectrum(complete_graph(2), [empty_graph(1)] * 2)
    with pytest.raises(ValueError):
        corona_transition_values(cs, d, 2, 0, [1.0])
    for u, v in ((1.5, 0), (0, 0.5), (np.float64(1.0), 0)):  # used to raise IndexError
        with pytest.raises(ValueError, match="must be integers"):
            transition_values(d, u, v, [1.0])
        with pytest.raises(ValueError, match="must be integers"):
            corona_transition_values(cs, d, u, v, [1.0])
    assert transition_values(d, np.int64(0), np.int64(1), [1.0]) == transition_values(d, 0, 1, [1.0])


def _subset_coronas():
    """(base, corona spectrum, base decomposition) over bases with 2 to 16
    distinct Laplacian eigenvalues: K2, Q2, Q3, C20 and random graphs."""
    rng = np.random.default_rng(31)
    bases = [complete_graph(2), hypercube_graph(2), hypercube_graph(3), cycle_graph(20)]
    bases += [random_connected_graph(rng, n) for n in (6, 9, 13, 16)]
    coronas = []
    for m, g in enumerate(bases, start=1):
        gd = eigendecompose(laplacian(g))
        coronas.append((g, corona_spectrum(g, [empty_graph(m)] * g.n), gd))
    ks = {len(gd.eigenvalues) for _, _, gd in coronas}
    assert min(ks) == 2 and max(ks) >= 12
    return coronas


SUBSET_CORONAS = _subset_coronas()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_corona_values_do_not_depend_on_the_other_times(data):
    # pgst_search evaluates only the times its screen keeps and relies on
    # getting the bits a full chunk would give them.
    g, cs, gd = data.draw(st.sampled_from(SUBSET_CORONAS))
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    n = data.draw(st.integers(1, 600))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ts = 4.0 * math.pi * rng.integers(1, 10**6, n).astype(float)
    ts[::2] = rng.uniform(0.0, 1e4, len(ts[::2]))
    full = corona_transition_values(cs, gd, u, v, ts).view(np.uint64)
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    subset = corona_transition_values(cs, gd, u, v, ts[rows]).view(np.uint64)
    assert np.array_equal(subset, full.reshape(n, 2)[rows].ravel())  # signed zeros too
    i = data.draw(st.integers(0, n - 1))
    single = corona_transition_values(cs, gd, u, v, [ts[i]]).view(np.uint64)
    assert np.array_equal(single, full[2 * i : 2 * i + 2])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_phase_screen_bounds_every_grid_point(data):
    # fig3 screens a linspace grid with the helper pgst_search uses: one row
    # of `width` points from each t0 in grid[::width], the last row ragged
    # unless width divides the point count.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(2, 8))
    omega = rng.uniform(-10.0, 10.0, k)
    omega[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0)  # t_max*max|omega| >= 20 >> k
    amps = rng.uniform(-1.0, 1.0, k)
    t_max = data.draw(st.floats(20.0, 3000.0))
    grid = np.linspace(0.0, t_max, data.draw(st.integers(2, 5000)))
    width = data.draw(st.integers(1, 700))

    screen, tol = _phase_screen(amps, omega, grid[1], width, grid[-1])
    screened = screen(grid[::width]).ravel()[: grid.size]
    exact = np.abs(np.exp(-1j * np.outer(grid, omega)) @ amps) ** 2  # transition_values' sum
    assert np.max(np.abs(screened - exact)) <= tol

    # The grid's maximum is screened at or above max(screen) - 2*tol, so the
    # first maximum among those candidates is the dense argmax, unless two
    # points tie to within rounding and the argmax is rounding's choice.
    top = np.sort(exact)[-2:]
    assume(top[1] - top[0] > 8 * np.spacing(top[1]))
    cands = np.flatnonzero(screened >= screened.max() - 2.0 * tol)
    values = np.abs(np.exp(-1j * np.outer(grid[cands], omega)) @ amps) ** 2
    assert cands[np.argmax(values)] == np.argmax(exact)


def test_phase_screen_tol_is_its_stated_bound():
    # tol = 64 eps S^2 t_max max|omega|, pinned where S = 1 and max|omega| = 10,
    # so that neither factor can drop out unnoticed.
    _, tol = _phase_screen(np.array([0.5, 0.5]), np.array([1.0, 10.0]), 0.1, 4, 1e6)
    assert tol == 64.0 * np.finfo(float).eps * 1e6 * 10.0 == 1.4210854715202004e-07


def _evaluators() -> dict:
    """Each public evaluator as a call on one time t: K2 for transition_values
    and evolve_operator, K2 corona O3 between the base vertices for the corona."""
    d = eigendecompose(laplacian(complete_graph(2)))
    cs, gd = _corona_walk(complete_graph(2), [empty_graph(3)] * 2)
    return {
        "transition_values": lambda t: transition_values(d, 0, 1, [0.0, t]),
        "evolve_operator": lambda t: evolve_operator(d, t),
        "corona_transition_values": lambda t: corona_transition_values(cs, gd, 0, 1, [t, 1.0]),
    }


@pytest.mark.parametrize("t", [1e300, 1e308, -1e300, math.inf, -math.inf, math.nan])
def test_evaluators_refuse_unusable_times(t):
    # Phases t*lambda past 2**52 are rounding noise, and non-finite times give
    # nan: each evaluator refuses them itself, and no numpy warning (an error
    # under this suite's filterwarnings) comes first. A finite time is too
    # large; a non-finite one is named as such, not as too large.
    message = r"^time \S+ is too large: .* reaches 2\*\*52$" if math.isfinite(t) else r"^time (inf|nan) is not finite$"
    for call in _evaluators().values():
        with pytest.raises(ValueError, match=message):
            call(t)


def test_evaluators_refuse_from_their_own_scale():
    # K2's largest eigenvalue is 2, the bound the CLI's fidelity test pins.
    evaluators = _evaluators()
    for call in (evaluators["transition_values"], evaluators["evolve_operator"]):
        call(2.0**51 - 1)
        call(-(2.0**51 - 1))
        with pytest.raises(ValueError):
            call(2.0**51)
    # On the corona the scale is the largest lambda_+, K2 corona O3's 3 + sqrt(7)
    # from the class (c) entries; t is the largest time with t * scale < 2**52.
    cs, gd = _corona_walk(complete_graph(2), [empty_graph(3)] * 2)
    scale = max(entry.lam_plus for entry in cs.class_c)
    assert abs(scale - (3.0 + math.sqrt(7.0))) < 1e-12
    t = 2.0**52 / scale
    while t * scale >= 2.0**52:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) * scale < 2.0**52:
        t = math.nextafter(t, math.inf)
    assert np.isfinite(corona_transition_values(cs, gd, 0, 1, [t, -t])).all()
    with pytest.raises(ValueError, match="reaches 2"):
        corona_transition_values(cs, gd, 0, 1, [0.0, math.nextafter(t, math.inf)])
    with pytest.raises(ValueError, match="reaches 2"):
        corona_transition_values(cs, gd, 0, 1, [-math.nextafter(t, math.inf)])
