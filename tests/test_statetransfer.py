import cmath
import dataclasses
import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    MIXED3,
    PGST_BOUNDS,
    fixture_corona,
    random_connected_graph,
    random_graph,
    scalar_fidelity_phase,
    witness_values_non_integral,
)

from coronawalk import (
    CospectralityReport,
    Graph,
    IndeterminateVerdictError,
    PstConditions,
    SpectralDecomposition,
    SupportInfo,
    antipodal_sign_check,
    check_pst,
    cocktail_party_graph,
    cocktail_pgst,
    complete_graph,
    corona,
    corona_eigenprojectors,
    corona_no_pst_witness,
    corona_spectrum,
    cycle_graph,
    eigendecompose,
    eigenvalue_support,
    empty_graph,
    evolve_operator,
    hypercube_graph,
    integer_eigenvalue,
    laplacian,
    path_graph,
    pgst_search,
    squarefree_split,
    strongly_cospectral,
    support_gcd_and_valuation,
)
from coronawalk import cli, spectral, statetransfer, walk
from coronawalk.corona_spectrum import _class_c_arrays, _corona_walk, _lifted_measure
from coronawalk.spectral import SUPPORT_TOL
from coronawalk.walk import _fidelity, _phases, corona_transition_values, transition_values


def decomp(g):
    return eigendecompose(laplacian(g))


# ---------------------------------------------------------------- check_pst


def test_pst_positive_pairs():
    cases = [
        (complete_graph(2), 0, 1),
        (hypercube_graph(2), 0, 3),
        (hypercube_graph(3), 0, 7),
        (cocktail_party_graph(2), 0, 2),
    ]
    for g, u, v in cases:
        verdict = check_pst(decomp(g), u, v)
        assert verdict.pst
        assert verdict.conditions.strongly_cospectral
        assert verdict.conditions.integer_support
        assert verdict.conditions.sign_pattern_ok
        assert verdict.g == 2
        assert abs(verdict.t0 - math.pi / 2) < 1e-15
        assert verdict.fidelity_at_t0 >= 1.0 - 1e-9
        assert abs(abs(verdict.phase) - 1.0) < 1e-12
        assert verdict.witness is None


@pytest.mark.parametrize(
    "g, u, v",
    [(hypercube_graph(k), 0, 2**k - 1) for k in (3, 4, 5, 6)] + [(cocktail_party_graph(n), 0, n) for n in (2, 4, 6, 8)],
    ids=[f"q{k}" for k in (3, 4, 5, 6)] + [f"cp{n}" for n in (2, 4, 6, 8)],
)
def test_pst_t0_value_comes_from_transition_values(g, u, v):
    # The re-check at t0 is transition_values squared by _fidelity, bit for
    # bit; evolve_operator, a different sum, agrees within rounding.
    d = decomp(g)
    verdict = check_pst(d, u, v)
    assert verdict.pst
    value = transition_values(d, u, v, [verdict.t0])
    fidelity = _fidelity(value).tolist()
    assert verdict.fidelity_at_t0 == fidelity[0]
    assert [verdict.phase] == _phases(value, fidelity)
    direct = evolve_operator(d, verdict.t0)[u, v]
    assert abs(verdict.fidelity_at_t0 - abs(direct) ** 2) <= 1e-12
    assert abs(verdict.phase - direct / abs(direct)) <= 1e-12


def test_certified_conditions_with_a_low_t0_fidelity_raise(monkeypatch):
    # K2 with its eigenvector rows halved: the norms stay above SUPPORT_TOL,
    # the residuals at 0 and the signs are those of K2, so every condition
    # certifies PST, but <0|U(pi/2)|1> = 1/8 + 1/8 has fidelity 1/16.
    d = decomp(complete_graph(2))
    halved = SpectralDecomposition(d.eigenvalues, d.vectors / 2.0, d.multiplicities)
    with pytest.raises(ArithmeticError, match="conditions certify PST but fidelity at t0 is 0.062500000000000"):
        check_pst(halved, 0, 1)
    # Q3's certified antipodes, given a t0 value of fidelity 0.5.
    d = decomp(hypercube_graph(3))
    assert check_pst(d, 0, 7).pst
    monkeypatch.setattr(statetransfer, "_measure_transition_values", lambda measure, ts: np.array([0.5 + 0.5j]))
    with pytest.raises(ArithmeticError, match="^conditions certify PST but fidelity at t0 is 0.500000000000000$"):
        check_pst(d, 0, 7)


def test_p3_endpoints_fail_sign_pattern():
    verdict = check_pst(decomp(path_graph(3)), 0, 2)
    assert not verdict.pst
    assert verdict.conditions.strongly_cospectral
    assert verdict.conditions.integer_support
    assert not verdict.conditions.sign_pattern_ok
    assert verdict.support == (0, 1, 3)
    assert verdict.g == 1
    assert verdict.t0 is None and verdict.fidelity_at_t0 is None
    assert verdict.witness is None


def test_cocktail_three_antipodes_fail_sign_pattern():
    # eigenvalues 0, 4, 6 give g = 2; the pair entry at 4 is negative while
    # 4/g is even, so condition (iii) refutes the antipodal pair.
    verdict = check_pst(decomp(cocktail_party_graph(3)), 0, 3)
    assert not verdict.pst
    assert verdict.conditions.strongly_cospectral
    assert verdict.conditions.integer_support
    assert not verdict.conditions.sign_pattern_ok
    assert verdict.support == (0, 4, 6)
    assert verdict.g == 2


def test_k3_fails_strong_cospectrality():
    verdict = check_pst(decomp(complete_graph(3)), 0, 1)
    assert not verdict.pst
    assert not verdict.conditions.strongly_cospectral


def test_non_integer_support_witness():
    verdict = check_pst(decomp(cycle_graph(5)), 0, 2)
    assert not verdict.pst
    assert not verdict.conditions.integer_support
    assert verdict.witness is not None
    assert "non-integer support eigenvalue" in verdict.witness
    assert any(isinstance(x, float) and abs(x - round(x)) > 1e-3 for x in verdict.support)
    assert verdict.g is None


def test_same_vertex_rejected():
    with pytest.raises(ValueError):
        check_pst(decomp(complete_graph(2)), 1, 1)


def tiny_entry_decomposition(entry):
    """Hand-built decomposition: a strongly cospectral pair (0, 1) with
    eigenvalues 0, 2, 4 and a PST sign pattern, whose first projector entry
    <0|F|1> is the row product eps * eps = entry, while the row norm keeps
    eigenvalue 0 inside the support."""
    eps = math.sqrt(entry)
    x1 = np.array([eps, eps, math.sqrt(1.0 - 2.0 * eps * eps)])
    x2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    x3 = np.cross(x1, x2)
    return SpectralDecomposition(
        eigenvalues=np.array([0.0, 2.0, 4.0]),
        vectors=np.column_stack([x1, x2, x3]),
        multiplicities=(1, 1, 1),
    )


def test_tiny_projector_entry_is_indeterminate():
    with pytest.raises(IndeterminateVerdictError) as exc:
        check_pst(tiny_entry_decomposition(0.1 * statetransfer.SIGN_TOL), 0, 1)
    assert exc.value.lam == 0
    verdict = check_pst(tiny_entry_decomposition(10.0 * statetransfer.SIGN_TOL), 0, 1)
    assert verdict.pst and verdict.fidelity_at_t0 >= 1.0 - statetransfer.PST_FIDELITY_TOL
    # An entry of magnitude SIGN_TOL is signable, one ulp below it is not:
    # the rule the PGST residual targets share.
    assert statetransfer._signable(statetransfer.SIGN_TOL)
    assert not statetransfer._signable(np.nextafter(statetransfer.SIGN_TOL, 0.0))


def oracle_stack(d):
    """The (k, dim, dim) projector stack, symmetrised, built here from the
    eigenvector columns of d: the oracle the row reads are checked against."""
    blocks = np.split(d.vectors, np.cumsum(d.multiplicities)[:-1], axis=1)
    return np.array([(b @ b.T + (b @ b.T).T) / 2.0 for b in blocks])


def loop_eigenvalue_support(stack, u):
    """Reference for eigenvalue_support: column norms and diagonal entries of
    the stack, one entry at a time."""
    norms = np.linalg.norm(stack[:, :, u], axis=1)
    support = tuple(int(i) for i in np.nonzero(norms > SUPPORT_TOL)[0])
    weights = tuple(float(proj[u, u]) for proj in stack)
    return SupportInfo(vertex=u, support=support, weights=weights)


def loop_strongly_cospectral(stack, u, v):
    """Reference for strongly_cospectral: the per-eigenvalue loop over the
    stack's columns, plus min(res+, res-) per eigenvalue (None outside the
    joint support)."""
    signs, residuals, ok = [], [], True
    for proj in stack:
        a, b = proj[:, u], proj[:, v]
        if np.linalg.norm(a) <= SUPPORT_TOL and np.linalg.norm(b) <= SUPPORT_TOL:
            signs.append(None)
            residuals.append(None)
            continue
        res_plus, res_minus = float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b))
        signs.append(1 if res_plus <= res_minus else -1)
        residuals.append(min(res_plus, res_minus))
        ok = ok and residuals[-1] <= SUPPORT_TOL
    return CospectralityReport(u=u, v=v, strongly_cospectral=ok, signs=tuple(signs)), residuals


def loop_check_pst(d, stack, u, v):
    """Reference for check_pst's conditions, support and g: the loop pieces
    above, the joint support as the union of the two vertex supports, and
    one stack entry per support eigenvalue."""
    report, _ = loop_strongly_cospectral(stack, u, v)
    joint = sorted(set(loop_eigenvalue_support(stack, u).support) | set(loop_eigenvalue_support(stack, v).support))
    values = [float(d.eigenvalues[i]) for i in joint]
    ints = [integer_eigenvalue(x) for x in values]
    integer_support = None not in ints
    g = support_gcd_and_valuation(ints)[0] if integer_support and any(ints) else None
    sign_ok = report.strongly_cospectral and g is not None
    if sign_ok:
        for idx, lam in zip(joint, ints):
            w = float(stack[idx, u, v])
            if abs(w) < statetransfer.SIGN_TOL:
                raise IndeterminateVerdictError(lam, u, v)
            if (w > 0) != ((lam // g) % 2 == 0):
                sign_ok = False
                break
    conditions = PstConditions(report.strongly_cospectral, integer_support, sign_ok)
    return conditions, tuple(ints) if integer_support else tuple(values), g


def oracle_graphs():
    rng = np.random.default_rng(4242)
    graphs = [hypercube_graph(k) for k in (1, 2, 3, 4)]
    graphs += [cocktail_party_graph(n) for n in (2, 3, 4, 5)]
    graphs += [random_graph(rng, int(rng.integers(3, 10))) for _ in range(8)]
    graphs += [
        corona(base, sats).flat
        for base, sats in [
            (complete_graph(2), [empty_graph(3)] * 2),
            (path_graph(3), [complete_graph(2)] * 3),
            (cycle_graph(4), [path_graph(2)] * 4),
            (hypercube_graph(2), MIXED3),
        ]
    ]
    return graphs


# A weight is a row sum of squares in the verdict and a dgemm entry in the
# oracle. Both lie in [0, 1] and sum at most 16 products here, so they may
# round apart by a few ulps of 1.0 (half an ulp on these graphs), never by
# more than WEIGHT_ULPS.
WEIGHT_ULPS = 4


def test_whole_stack_reads_equal_the_loops():
    for g in oracle_graphs():
        d = decomp(g)
        stack = oracle_stack(d)
        for u in range(g.n):
            info, want_info = eigenvalue_support(d, u), loop_eigenvalue_support(stack, u)
            assert (info.vertex, info.support) == (want_info.vertex, want_info.support)
            gap = np.max(np.abs(np.array(info.weights) - np.array(want_info.weights)))
            assert gap <= WEIGHT_ULPS * np.finfo(float).eps
            for v in range(u + 1, g.n):
                report = strongly_cospectral(d, u, v)
                want, residuals = loop_strongly_cospectral(stack, u, v)
                assert report.strongly_cospectral == want.strongly_cospectral
                assert [x is None for x in report.signs] == [x is None for x in want.signs]
                # Elsewhere the sign may be a rounding tie (F e_u orthogonal to F e_v).
                for got, sign, res in zip(report.signs, want.signs, residuals):
                    if res is not None and res <= SUPPORT_TOL:
                        assert got == sign
                verdict = check_pst(d, u, v)
                conditions, support, gcd = loop_check_pst(d, stack, u, v)
                assert (verdict.conditions, verdict.support, verdict.g) == (conditions, support, gcd)
                assert verdict.pst == all(dataclasses.astuple(conditions))


def test_antipodal_rows_equal_the_stack_rule():
    # The stack rule: the matching maps each projector to (-1)^j times itself,
    # read as the row norms ||F_j e_{i+n} - (-1)^j F_j e_i|| against SUPPORT_TOL.
    for n in range(2, 9):
        g = cocktail_party_graph(n)
        antipode = np.r_[n : 2 * n, 0:n]
        stack = oracle_stack(decomp(g))
        want = [
            bool(np.max(np.linalg.norm(proj[antipode] - ((-1) ** j) * proj, axis=1)) <= SUPPORT_TOL)
            for j, proj in enumerate(stack)
        ]
        assert want == [True] * 3
        assert antipodal_sign_check(g) == want


def test_antipodal_sign_check_refuses_a_perturbed_decomposition(monkeypatch):
    # Rotate two eigenvectors of different eigenvalues into each other by
    # 1e-6: the columns stay orthonormal, but both projectors lose the sign
    # the matching gives them, by far more than SUPPORT_TOL.
    g = cocktail_party_graph(3)
    d = decomp(g)
    vectors = d.vectors.copy()
    a, b = 0, d.multiplicities[0]  # the first columns of blocks 0 and 1
    c, s = math.cos(1e-6), math.sin(1e-6)
    vectors[:, [a, b]] = vectors[:, [a, b]] @ np.array([[c, -s], [s, c]])
    perturbed = SpectralDecomposition(eigenvalues=d.eigenvalues, vectors=vectors, multiplicities=d.multiplicities)
    monkeypatch.setattr(statetransfer, "eigendecompose", lambda mat: perturbed)
    assert antipodal_sign_check(g) == [False, False, True]


def test_verdicts_build_no_projector_stack(monkeypatch, tmp_path, capsys):
    def refuse(self, obj, objtype=None):
        if obj is None:
            return None
        raise AssertionError("a library path read the projector stack")

    monkeypatch.setattr(spectral._Projectors, "__get__", refuse)
    d = decomp(hypercube_graph(3))
    assert check_pst(d, 0, 7).pst  # the sign and t0 re-check paths run
    assert not check_pst(d, 0, 1).pst
    assert eigenvalue_support(d, 0).support == (0, 1, 2, 3)
    assert strongly_cospectral(d, 0, 7).strongly_cospectral
    assert all(antipodal_sign_check(cocktail_party_graph(4)))
    assert corona_no_pst_witness(cycle_graph(5), 2, 0).delta_sq is None
    assert abs(transition_values(d, 0, 7, [math.pi / 2])[0]) > 1.0 - 1e-12
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    assert corona_transition_values(cs, gd, 0, 3, [1.0]).shape == (1,)
    # ell_max above the first chunk and a target neither family meets by
    # then: both scans run the screen to ell_max.
    for family in ("four_pi_ell", "shifted"):
        assert not pgst_search(cs, gd, 0, 3, family, ell_max=5000, target=0.9999).target_met
    assert cli.main(["figures", "all", "--outdir", str(tmp_path)]) == 0
    assert set(json.loads(capsys.readouterr().out)["summaries"]) == {"fig2", "fig3", "fig4"}


def count_block_sums(monkeypatch) -> list:
    """The caller of every _block_sums call, by function name, in call order."""
    callers = []
    block_sums = spectral._block_sums

    def counting(d, rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return block_sums(d, rows)

    monkeypatch.setattr(spectral, "_block_sums", counting)
    monkeypatch.setattr(statetransfer, "_block_sums", counting)
    return callers


def test_each_pair_call_reads_one_measure(monkeypatch):
    # One reduction per pair measure: check_pst reads its cospectrality, its
    # signs and its t0 value from one. A search builds its own, and runs
    # another in the checking wrapper of its first run; the shifted family
    # applies check_pst's rule to the search's own.
    callers = count_block_sums(monkeypatch)
    d = decomp(hypercube_graph(3))
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    calls = [
        (lambda: check_pst(d, 0, 7).pst, 1),  # certified: the sign and t0 paths run
        (lambda: not check_pst(d, 0, 1).pst, 1),
        (lambda: not check_pst(d, 0, 3).conditions.strongly_cospectral, 1),
        (lambda: strongly_cospectral(d, 0, 7).strongly_cospectral, 1),
        (lambda: eigenvalue_support(d, 0).support == (0, 1, 2, 3), 1),
        (lambda: transition_values(d, 0, 7, [1.0]).shape == (1,), 1),
        (lambda: corona_transition_values(cs, gd, 0, 3, [1.0]).shape == (1,), 1),
        (lambda: pgst_search(cs, gd, 0, 3, "four_pi_ell", ell_max=5000, target=0.9999), 2),
        (lambda: pgst_search(cs, gd, 0, 3, "shifted", ell_max=5000, target=0.9999), 2),
    ]
    for call, reductions in calls:
        callers.clear()
        assert call()
        assert callers == ["_pair_measure"] * reductions


def test_verdicts_at_dim_3100_stay_small():
    # dim 3,100 and k = 131 distinct eigenvalues: the projector stack would
    # take 131 * 3100^2 * 8 B = 10.1 GB, where a verdict reads a few rows.
    m = 30
    d = corona_eigenprojectors(cycle_graph(100), [path_graph(m)] * 100)
    assert (d.dim, len(d.eigenvalues)) == (3100, 131)
    u, v = 0, m + 1  # base vertices 0 and 1
    tracemalloc.start()
    try:
        verdict = check_pst(d, u, v)
        info = eigenvalue_support(d, u)
        report = strongly_cospectral(d, u, v)
        values = transition_values(d, u, v, np.linspace(0.0, 10.0, 5))
        repr(d)  # what pytest prints for a failing assert that names d
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.__dict__["_projectors"] is None
    assert peak < 2 * 2**20
    assert not verdict.pst and not verdict.conditions.strongly_cospectral
    assert 0 in info.support and abs(sum(info.weights) - 1.0) < 1e-12
    assert not report.strongly_cospectral
    assert abs(values[0]) < 1e-12 and np.all(np.abs(values) <= 1.0 + 1e-12)  # <u|v> = 0 at t = 0


# ------------------------------------------------- corona_no_pst_witness


def test_witness_k2_small_and_large_m():
    w1 = corona_no_pst_witness(complete_graph(2), 1, 0)
    assert w1.delta_sq == 8
    assert abs(w1.lam - 2.0) < 1e-9
    assert abs(w1.lam_plus - (2 + math.sqrt(2))) < 1e-12
    assert abs(w1.lam_minus - (2 - math.sqrt(2))) < 1e-12
    assert "8" in w1.reason and "not a perfect square" in w1.reason
    assert all(x > 1e-3 for x in w1.support_weights)

    w6 = corona_no_pst_witness(complete_graph(2), 6, 1)
    assert w6.delta_sq == 73
    assert w6.base_vertex == 1 and w6.m == 6


def test_witness_hypercube():
    w = corona_no_pst_witness(hypercube_graph(2), 3, 0)
    assert abs(w.lam - 2.0) < 1e-9
    assert w.delta_sq == 28


def test_witness_non_integer_base():
    w = corona_no_pst_witness(cycle_graph(5), 2, 0)
    assert w.delta_sq is None
    assert "not an integer" in w.reason
    assert integer_eigenvalue(w.lam) is None


def test_witness_values_are_never_integers():
    for g in (complete_graph(2), hypercube_graph(2), path_graph(3), cycle_graph(5)):
        for m in (1, 2, 5):
            assert witness_values_non_integral(corona_no_pst_witness(g, m, 0))
    # At m = 10**8 the float lam_plus = m + 3 - 1/m + O(1/m^2) rounds to within
    # INTEGRALITY_TOL of m + 3: only the exact delta_sq shows it is no integer.
    w = corona_no_pst_witness(complete_graph(2), 10**8, 0)
    assert integer_eigenvalue(w.lam_plus) == 10**8 + 3
    assert w.delta_sq == (10**8 + 1) ** 2 + 4 * 10**8 and witness_values_non_integral(w)


def test_witness_weights_match_assembled_projectors():
    # support_weights are (<(u,0)|F|(u,0)> at lambda_plus, at lambda_minus): the
    # closed-form corona decomposition's diagonal, read through its pair measure.
    k4_minus_e = Graph(4, complete_graph(4).edges - {(0, 1)})  # eigenvalue 4 is double
    for g in (complete_graph(2), path_graph(4), cycle_graph(5), k4_minus_e, hypercube_graph(2)):
        for m in (1, 2, 3, 5):
            d = corona_eigenprojectors(g, [empty_graph(m)] * g.n)
            for u in range(g.n):
                w = corona_no_pst_witness(g, m, u)
                diagonal = spectral._pair_measure(d, u * (m + 1), u * (m + 1)).uv
                assert w.lam_plus > 1.0 > w.lam_minus
                for value, weight in zip((w.lam_plus, w.lam_minus), w.support_weights):
                    idx = int(np.argmin(np.abs(d.eigenvalues - value)))
                    assert abs(d.eigenvalues[idx] - value) < 1e-9
                    assert abs(diagonal[idx] - weight) < 1e-12


def test_witness_reads_the_corona_spectrum_entry():
    # One class (c) builder: each witness field is the bits of the ClassC entry
    # corona_spectrum gives its lam, whatever the satellites.
    k4_minus_e = Graph(4, complete_graph(4).edges - {(0, 1)})
    bases = [path_graph(4), cycle_graph(5), k4_minus_e, hypercube_graph(2)]
    bases.append(random_connected_graph(np.random.default_rng(27), 7))
    for g in bases:
        for m in (1, 2, 5):
            entries = {c.lam: c for c in _corona_walk(g, [empty_graph(m)] * g.n)[0].class_c}
            for u in range(g.n):
                w = corona_no_pst_witness(g, m, u)
                c = entries[w.lam]
                assert (w.lam_plus, w.lam_minus, w.delta_sq) == (c.lam_plus, c.lam_minus, c.delta_sq)


def test_witness_validation():
    with pytest.raises(ValueError):
        corona_no_pst_witness(empty_graph(2), 1, 0)  # disconnected
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(1), 1, 0)  # too small
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(2), 0, 0)  # m < 1
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(2), 1, 2)  # vertex range


def test_witness_refuses_an_m_past_the_exact_range():
    # Every Laplacian eigenvalue is at most n, so (m+n-1)^2 + 4m <= 2**63 - 1
    # keeps every (m+lam-1)^2 + 4m in squarefree_split's range. On K2 the
    # bound is met by lam = 2 itself: the largest m passing it still splits.
    top = 2**63 - 1
    m = math.isqrt(top + 8) - 3  # (m+1)^2 + 4m = (m+3)^2 - 8
    assert (m + 1) ** 2 + 4 * m <= top < (m + 2) ** 2 + 4 * (m + 1)
    assert corona_no_pst_witness(complete_graph(2), m, 0).delta_sq == (m + 1) ** 2 + 4 * m
    for g, too_large in ((complete_graph(2), m + 1), (path_graph(3), m), (complete_graph(2), 10**10)):
        message = rf"^satellite order m={too_large} is too large: \(m\+n-1\)\^2 \+ 4m exceeds 2\*\*63 - 1$"
        with pytest.raises(ValueError, match=message):
            corona_no_pst_witness(g, too_large, 0)


def crafted_decomposition(g, vectors):
    """decomp(g) with its eigenvector columns replaced by vectors."""
    d = decomp(g)
    return SpectralDecomposition(eigenvalues=d.eigenvalues, vectors=vectors, multiplicities=d.multiplicities)


def test_witness_skips_a_support_eigenvalue_whose_corona_weights_vanish(monkeypatch):
    # P3 (eigenvalues 0, 1, 3) with the vectors of 1 and 3 rotated so that vertex 0
    # keeps weight 2e-16 on eigenvalue 1: in its support (sqrt > SUPPORT_TOL), but the
    # lambda_minus weight (1 - x)^2 / ((1 - x)^2 + m) * 2e-16 is below SUPPORT_TOL**2,
    # so eigenvalue 1 is skipped and the witness comes from eigenvalue 3.
    g = path_graph(3)
    w1, w2 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0), np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0)
    s = math.sqrt(2e-16) / w2[0]
    c = math.sqrt(1.0 - s * s)
    crafted = crafted_decomposition(g, np.column_stack((np.ones(3) / math.sqrt(3.0), c * w1 + s * w2, c * w2 - s * w1)))
    assert eigenvalue_support(crafted, 0).support == (0, 1, 2)
    assert corona_no_pst_witness(g, 1, 0).delta_sq == 5  # the true P3: eigenvalue 1 is the witness
    monkeypatch.setattr(statetransfer, "eigendecompose", lambda mat: crafted)
    w = corona_no_pst_witness(g, 1, 0)
    assert integer_eigenvalue(w.lam) == 3 and w.delta_sq == 13
    assert min(w.support_weights) > SUPPORT_TOL**2


def test_witness_refuses_a_support_with_no_certified_eigenvalue(monkeypatch):
    # K2 with its eigenvectors rotated so that vertex 0 keeps weight 4e-16 on
    # eigenvalue 2: the one nonzero support eigenvalue is skipped, no witness is left.
    g = complete_graph(2)
    s = 2e-8
    c = math.sqrt(1.0 - s * s)
    crafted = crafted_decomposition(g, np.array([[c, -s], [s, c]]))
    assert eigenvalue_support(crafted, 0).support == (0, 1)
    monkeypatch.setattr(statetransfer, "eigendecompose", lambda mat: crafted)
    with pytest.raises(ArithmeticError, match="no certified positive support eigenvalue found"):
        corona_no_pst_witness(g, 1, 0)


def test_witness_refuses_a_perfect_square_discriminant(monkeypatch):
    # (m+lam-1)^2 + 4m is never a perfect square for integers m >= 1 and lam > 0;
    # an entry claiming square-free part c = 1 would break the witness's proof.
    entries = statetransfer._class_c_entries
    assert corona_no_pst_witness(complete_graph(2), 1, 0).delta_sq == 8
    monkeypatch.setattr(
        statetransfer, "_class_c_entries", lambda *args: tuple(dataclasses.replace(e, c=1) for e in entries(*args))
    )
    with pytest.raises(ArithmeticError, match="^unexpected perfect square 8$"):
        corona_no_pst_witness(complete_graph(2), 1, 0)


def test_non_integer_vertices_and_orders_rejected():
    g = complete_graph(2)
    d = decomp(g)
    cs = corona_spectrum(g, [empty_graph(1)] * 2)
    for call in (
        lambda: check_pst(d, 0.5, 1),
        lambda: eigenvalue_support(d, 0.5),
        lambda: strongly_cospectral(d, 0, 1.5),
        lambda: pgst_search(cs, d, 0.5, 1, "four_pi_ell"),
        lambda: corona_no_pst_witness(g, 2, 1.5),
        lambda: corona_no_pst_witness(g, 2.5, 0),
        lambda: pgst_search(cs, d, 0, 1, "four_pi_ell", ell_max=2.5),  # used to die in range()
        lambda: pgst_search(cs, d, 0, 1, "shifted", r=1.0),
        lambda: cocktail_pgst(2.5),
        # operator.index accepts booleans; a vertex count or id does not
        lambda: Graph(True, ()),
        lambda: Graph(2, [(True, False)]),
        lambda: corona_no_pst_witness(g, True, 0),
        lambda: corona_no_pst_witness(g, 2, False),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            call()
    # numpy integer ids keep working, and the witness records plain ints
    assert check_pst(d, np.int64(0), np.int64(1)).pst
    witness = corona_no_pst_witness(g, np.int64(2), np.int64(1))
    assert witness == corona_no_pst_witness(g, 2, 1)
    assert type(witness.m) is int and type(witness.base_vertex) is int


# ------------------------------------------------------------ pgst_search


def search_setup(g, hs):
    return corona_spectrum(g, hs), decomp(g)


def test_search_target_zero_stops_immediately():
    cs, gd = search_setup(complete_graph(2), [empty_graph(1)] * 2)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.0)
    assert result.target_met
    assert result.best.ell == 1
    assert result.best.t == 4.0 * math.pi


def test_search_pendant_pair_first_hit():
    cs, gd = search_setup(complete_graph(2), [empty_graph(1)] * 2)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.999)
    assert result.target_met
    assert result.best.ell == 67
    assert result.best.fidelity >= 0.999
    fids = [rec.fidelity for rec in result.history]
    assert fids == sorted(fids) and len(set(fids)) == len(fids)
    ells = [rec.ell for rec in result.history]
    assert ells == sorted(ells) and ells[-1] == 67
    assert result.best == result.history[-1]

    again = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.999)
    assert again.history == result.history


def test_search_respects_ell_max():
    cs, gd = search_setup(complete_graph(2), [empty_graph(1)] * 2)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.999, ell_max=10)
    assert not result.target_met
    assert result.best.ell <= 10
    assert result.best.fidelity < 0.999


def first_refused_ell(cs, shift):
    """The smallest ell_max whose time (4*ell_max + shift)*pi reaches 2**52
    against the largest corona eigenvalue lambda_+."""
    scale = max(entry.lam_plus for entry in cs.class_c)
    ell = int(2.0**52 / (4.0 * math.pi * scale))
    while (4.0 * ell + shift) * math.pi * scale < 2.0**52:
        ell += 1
    while (4.0 * (ell - 1) + shift) * math.pi * scale >= 2.0**52:
        ell -= 1
    return ell


class Evaluated(Exception):
    """Raised by a patched evaluator: the search got past its checks."""


def refuse_evaluations(monkeypatch):
    def refuse(*args):
        raise Evaluated

    monkeypatch.setattr(statetransfer, "corona_transition_values", refuse)
    monkeypatch.setattr(statetransfer, "_corona_kernel", refuse)


def search_screen_tol(cs, gd, u, v, shift, ell_max):
    """The tol of the phase screen pgst_search builds for ell_max, from the
    bits it hands _phase_screen: the lifted pair measure's amplitudes on
    omega = (lam -/+ Delta)/2."""
    delta, _, _, _ = _class_c_arrays(gd.eigenvalues, cs.m)
    omega = 0.5 * np.concatenate((gd.eigenvalues - delta, gd.eigenvalues + delta))
    amps = _lifted_measure(spectral._pair_measure(gd, u, v), cs.m).uv
    t_max = (4.0 * ell_max + shift) * math.pi
    _, tol = statetransfer._phase_screen(amps, omega, 4.0 * math.pi, statetransfer._SEARCH_CHUNK, t_max)
    return tol


REFUSAL_CASES = pytest.mark.parametrize(
    "g, hs, u, v, family, shift",
    [
        (cycle_graph(6), [complete_graph(1)] * 6, 0, 3, "four_pi_ell", 0.0),
        (hypercube_graph(2), MIXED3, 0, 3, "shifted", 1.0),
    ],
    ids=["c6_k1", "q2_mixed3_shifted"],
)


@REFUSAL_CASES
def test_search_refuses_noise_phases_before_evaluating(monkeypatch, g, hs, u, v, family, shift):
    # Past |t| * lambda_+ = 2**52 the phases are rounding noise: C6 corona K1
    # to ell_max = 1e14 used to run for minutes. The check runs before any
    # evaluation, and before the screen's own refusal, which is what stops
    # a search one ell below the limit.
    refuse_evaluations(monkeypatch)
    cs, gd = search_setup(g, hs)
    limit = first_refused_ell(cs, shift)
    for ell_max in (limit, 10**14, 2**1024, 10**400):  # the last two overflow a float
        with pytest.raises(ValueError, match=rf"^ell_max={ell_max} is too large: .* reaches 2\*\*52$"):
            pgst_search(cs, gd, u, v, family, ell_max=ell_max, target=0.9)
    with pytest.raises(ValueError, match=rf"^ell_max={limit - 1} is too large: the fidelity screen's tol"):
        pgst_search(cs, gd, u, v, family, ell_max=limit - 1, target=0.9)


@REFUSAL_CASES
def test_search_refuses_a_screen_that_prunes_nothing(monkeypatch, g, hs, u, v, family, shift):
    # From tol >= 1 every screened value clears min(best, target) - tol, so
    # every ell would run the exact kernel; on C6 corona K1 that starts near
    # ell = 1.3e12, far below the 2**52 refusal. The refusal comes before any
    # evaluation, so no ell near the limit is scanned here.
    refuse_evaluations(monkeypatch)
    cs, gd = search_setup(g, hs)
    lo, hi = statetransfer._SEARCH_CHUNK, first_refused_ell(cs, shift)
    assert search_screen_tol(cs, gd, u, v, shift, lo) < 1.0 <= search_screen_tol(cs, gd, u, v, shift, hi - 1)
    while hi - lo > 1:  # hi: the smallest ell_max whose screen has tol >= 1
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if search_screen_tol(cs, gd, u, v, shift, mid) >= 1.0 else (mid, hi)
    with pytest.raises(ValueError, match=rf"^ell_max={hi} is too large: the fidelity screen's tol \S+ reaches 1$"):
        pgst_search(cs, gd, u, v, family, ell_max=hi, target=0.9)
    with pytest.raises(Evaluated):
        pgst_search(cs, gd, u, v, family, ell_max=hi - 1, target=0.9)


def test_search_to_ell_1e7_still_runs():
    cs, gd = search_setup(cycle_graph(6), [complete_graph(1)] * 6)
    result = pgst_search(cs, gd, 0, 3, "four_pi_ell", ell_max=10**7, target=0.9)
    assert not result.target_met and 1 <= result.best.ell <= 10**7


def test_shifted_family_hits_mixed_satellites():
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    result = pgst_search(cs, gd, 0, 3, "shifted", target=0.99)
    assert result.target_met
    assert result.best.r == 1
    assert abs(result.best.t - (4 * result.best.ell + 1) * math.pi) < 1e-9
    # the unimodular prefactor is exactly 1 on this family when 4 | m+1
    pref = cmath.exp(-0.5j * (cs.m + 1) * result.best.t)
    assert abs(pref - 1.0) <= 1e-9
    # residual for the base eigenvalue 0 vanishes identically: Delta = m+1
    assert result.best.residuals[0] == 0.0
    assert all(res is not None for res in result.best.residuals)


def test_shifted_family_infers_r():
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    a = pgst_search(cs, gd, 0, 3, "shifted", target=0.5)
    b = pgst_search(cs, gd, 0, 3, "shifted", r=1, target=0.5)
    assert a.best == b.best
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 3, "shifted", r=2, target=0.5)


def test_shifted_family_requirements():
    cs, gd = search_setup(cycle_graph(5), [empty_graph(3)] * 5)
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "shifted")  # irrational support
    cs2, gd2 = search_setup(complete_graph(2), [empty_graph(1)] * 2)
    with pytest.raises(ValueError):
        pgst_search(cs2, gd2, 0, 1, "shifted")  # 4 does not divide m+1 = 2
    # P3's endpoints have integer support {0, 1, 3} but fail the sign
    # pattern; the search used to run with r = 0 and hit at ell = 21.
    cs3, gd3 = search_setup(path_graph(3), [empty_graph(1)] * 3)
    with pytest.raises(ValueError, match="needs PST"):
        pgst_search(cs3, gd3, 0, 2, "shifted", target=0.9)


def test_search_validation():
    cs, gd = search_setup(complete_graph(2), [empty_graph(1)] * 2)
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "sixpi")
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "four_pi_ell", ell_max=0)
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "four_pi_ell", target=1.0)
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "four_pi_ell", target=-0.1)
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 1, "four_pi_ell", r=2)  # r belongs to the shifted family
    with pytest.raises(ValueError):
        pgst_search(cs, gd, 0, 0, "four_pi_ell")  # a return probability, not a transfer
    for u, v in ((0, 5), (5, 0), (-1, 1)):
        with pytest.raises(ValueError, match="out of range for dim 2"):
            pgst_search(cs, gd, u, v, "four_pi_ell")


def plain_scan(cs, gd, u, v, family, r, ell_max, target):
    """Reference for pgst_search: the unscreened scan it replaced. Every
    chunk of 2048 ell goes through the exact kernel and a per-ell loop picks
    the records and the hit by the scalar fidelity rule, the fidelity a
    record reports. Returns ((ell, t, fidelity, phase) per record, target met)."""
    best, records = -1.0, []
    for start in range(1, ell_max + 1, 2048):
        ells = np.arange(start, min(start + 2048, ell_max + 1)).astype(float)
        if family == "four_pi_ell":
            ts = 4.0 * math.pi * ells
        else:
            ts = (4.0 * ells + 2.0 ** (1 - r)) * math.pi
        values = corona_transition_values(cs, gd, u, v, ts)
        for ell, t, value in zip(ells.tolist(), ts.tolist(), values):
            fidelity, phase = scalar_fidelity_phase(value)
            if fidelity > best:
                best = fidelity
                records.append((int(ell), t, fidelity, phase))
            if fidelity >= target:
                return records, True
    return records, False


def _screen_cases():
    """name -> (base, satellites, u, v, family, r, ell_max, target)."""
    cases = {}
    for case in PGST_BOUNDS["cases"]:
        g, hs = fixture_corona(case["name"])
        cases[case["name"]] = (g, hs, case["u"], case["v"], case["family"], case["r"], 20_000, 0.9999)
    rng = np.random.default_rng(5)
    k2 = complete_graph(2)
    cases.update(
        # irrational Laplacian eigenvalues 2 -/+ sqrt(2)
        p4_random_sats=(path_graph(4), [random_graph(rng, 3) for _ in range(4)], 0, 3, "four_pi_ell", None,
                        20_000, 0.9999),
        q2_shifted_deep=(hypercube_graph(2), MIXED3, 0, 3, "shifted", 1, 30_000, 0.999999),
        one_row_last_chunk=(k2, [empty_graph(1)] * 2, 0, 1, "four_pi_ell", None, 2 * 2048 + 1, 0.999999999),
        below_one_chunk=(k2, [empty_graph(2)] * 2, 0, 1, "four_pi_ell", None, 2000, 0.9999999),
        target_zero=(cocktail_party_graph(3), [complete_graph(1)] * 6, 0, 3, "four_pi_ell", None, 20_000, 0.0),
        # np.abs(values) ** 2 reaches this target at ell = 199, where the
        # reported fidelity 0.9999430714061667 falls 1 ulp short of it.
        ulps_below_target=(k2, [empty_graph(2)] * 2, 0, 1, "four_pi_ell", None, 2048, 0.9999430714061668),
        # A hit inside each exact run of the first chunk: [1, 128], [129, 512], [513, 2048].
        hit_in_run1=(k2, [empty_graph(2)] * 2, 0, 1, "four_pi_ell", None, 20_000, 0.999),  # ell 4
        hit_in_run2=(k2, [empty_graph(2)] * 2, 0, 1, "four_pi_ell", None, 20_000, 0.99999),  # ell 264
        hit_in_run3=(k2, [empty_graph(3)] * 2, 0, 1, "four_pi_ell", None, 20_000, 0.999999),  # ell 1271
    )
    # ell_max on each side of the run edges, on a search that has not hit by ell 513.
    for ell_max in (1, 128, 129, 512, 513):
        cases[f"ell_max_{ell_max}"] = (
            cocktail_party_graph(3), [complete_graph(1)] * 6, 0, 3, "four_pi_ell", None, ell_max, 0.9999
        )
    return cases


SCREEN_CASES = _screen_cases()


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screened_search_equals_plain_scan(name):
    g, hs, u, v, family, r, ell_max, target = SCREEN_CASES[name]
    cs, gd = search_setup(g, hs)
    result = pgst_search(cs, gd, u, v, family, ell_max=ell_max, target=target)
    records, met = plain_scan(cs, gd, u, v, family, r, ell_max, target)
    assert [(rec.ell, rec.t, rec.fidelity, rec.phase) for rec in result.history] == records
    assert result.target_met == met
    assert result.best == result.history[-1]
    assert result.target_met == (result.best.fidelity >= target)
    fidelities = [rec.fidelity for rec in result.history]
    assert all(a < b for a, b in zip(fidelities, fidelities[1:]))


def count_exact_ell(monkeypatch):
    """Patch pgst_search's two exact evaluators to record the times of each
    call: {"checked": [...], "kernel": [...]} in call order."""
    evaluated = {"checked": [], "kernel": []}

    def counting(name, fn):
        def counted(*args):
            evaluated[name].append(np.asarray(args[-1]))
            return fn(*args)

        return counted

    monkeypatch.setattr(statetransfer, "corona_transition_values", counting("checked", corona_transition_values))
    monkeypatch.setattr(statetransfer, "_corona_kernel", counting("kernel", statetransfer._corona_kernel))
    return evaluated


def test_screen_skips_chunks_without_records(monkeypatch):
    # The unscreened scan runs all 200,000 ell of this search through the
    # exact kernel; the screen leaves the first chunk, whose first run goes
    # through corona_transition_values, and the few ell that come close to
    # a record.
    evaluated = count_exact_ell(monkeypatch)
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    pgst_search(cs, gd, 0, 3, "shifted", ell_max=200_000, target=0.999999)
    assert [len(ts) for ts in evaluated["checked"]] == [128]  # the first run, [1, 128]
    kernel = evaluated["kernel"]
    assert [len(ts) for ts in kernel[:2]] == [384, 1536]  # the rest of the first chunk: [129, 512], [513, 2048]
    screened = [np.rint((ts / math.pi - 1.0) / 4.0).astype(int) for ts in kernel[2:]]  # t = (4 ell + 1) pi
    assert screened, "no screened ell reached the patched kernel"
    assert sum(map(len, screened)) <= 64
    # A screened block's candidates run together: one run per block.
    blocks = [set(((ells - 2049) // (2048 * 8)).tolist()) for ells in screened]
    assert all(len(b) == 1 for b in blocks) and len(set().union(*blocks)) == len(blocks)


@pytest.mark.parametrize(
    "satellites, target, hit, exact",
    [
        (empty_graph(2), 0.999, 4, 128),  # a hit in the first run leaves the other two unevaluated
        (empty_graph(3), 0.999999, 1271, 2048),  # a hit in the third run evaluates the whole first chunk
    ],
)
def test_early_hit_evaluates_only_its_runs(monkeypatch, satellites, target, hit, exact):
    evaluated = count_exact_ell(monkeypatch)
    cs, gd = search_setup(complete_graph(2), [satellites] * 2)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", ell_max=200_000, target=target)
    assert result.target_met and result.best.ell == hit
    assert [len(ts) for ts in evaluated["checked"]] == [128]
    assert sum(len(ts) for runs in evaluated.values() for ts in runs) == exact


@pytest.mark.parametrize("name", ["cocktail3_k1", "p4_random_sats"])
def test_each_evaluated_ell_is_squared_once(monkeypatch, name):
    # A record's phase comes with the fidelity the search decided on, so no
    # value is squared twice. Both cases are on the four_pi_ell family, whose
    # search runs no check_pst (that squares its t0 value). The screen squares
    # its (rows, width) products through _fidelity too: those are counted
    # apart, as they are no exact values.
    evaluated = count_exact_ell(monkeypatch)
    squared, screened = [], []

    def counting(values):
        (squared if values.ndim == 1 else screened).append(values.size)
        return _fidelity(values)

    monkeypatch.setattr(walk, "_fidelity", counting)
    monkeypatch.setattr(statetransfer, "_fidelity", counting)
    g, hs, u, v, family, _, ell_max, target = SCREEN_CASES[name]
    cs, gd = search_setup(g, hs)
    result = pgst_search(cs, gd, u, v, family, ell_max=ell_max, target=target)
    assert len(result.history) > 1 and screened
    assert sum(squared) == sum(len(ts) for runs in evaluated.values() for ts in runs)


@pytest.mark.parametrize("name", ["q2_mixed3", "cocktail3_k1", "cocktail5_k1"])
def test_screen_stays_within_its_bound(monkeypatch, name):
    case = next(c for c in PGST_BOUNDS["cases"] if c["name"] == name)
    g, hs = fixture_corona(name)
    cs, gd = search_setup(g, hs)
    shift = 0.0 if case["family"] == "four_pi_ell" else 2.0 ** (1 - case["r"])

    def ell_of(t):
        return round((t / math.pi - shift) / 4.0)

    screened = {}  # first ell of a screened chunk -> the chunk's screened fidelities
    bounds = []
    make_screen = statetransfer._phase_screen

    def recording_screen(*args):
        screen, tol = make_screen(*args)
        bounds.append(tol)

        def recorded(t0s):
            rows = screen(t0s)
            screened.update(zip(map(ell_of, t0s.tolist()), rows))
            return rows

        return recorded, tol

    exact = {}  # ell -> exact fidelity
    kernel = statetransfer._corona_kernel

    def recording_kernel(*args):
        values = kernel(*args)
        exact.update(zip(map(ell_of, args[-1].tolist()), _fidelity(values).tolist()))
        return values

    monkeypatch.setattr(statetransfer, "_phase_screen", recording_screen)
    monkeypatch.setattr(statetransfer, "_corona_kernel", recording_kernel)
    pgst_search(cs, gd, case["u"], case["v"], case["family"], ell_max=300_000, target=0.999999)
    (tol,) = bounds
    assert tol == search_screen_tol(cs, gd, case["u"], case["v"], shift, 300_000)  # the helper's bits
    gaps = [
        abs(float(screened[start][ell - start]) - f)
        for ell, f in exact.items()
        if (start := ell - (ell - 1) % 2048) in screened
    ]
    assert gaps, "no ell was both screened and evaluated"
    gap = max(gaps)
    # tol / 8 is the rounding bound itself, before the screen's headroom.
    assert gap < tol / 8


def test_vanishing_pair_entry_gets_no_residual_target():
    # P3 endpoint-to-center: <0|F_1|1> = 0, so that eigenvalue has no cosine
    # target and its residual is None.
    cs, gd = search_setup(path_graph(3), [empty_graph(2)] * 3)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.0)
    assert result.best.residuals[1] is None
    # Set by hand, an entry of magnitude SIGN_TOL gets a target (check_pst
    # signs it) and one ulp below it does not; SIGN_TOL itself used to get none.
    for w, signable in ((statetransfer.SIGN_TOL, True), (np.nextafter(statetransfer.SIGN_TOL, 0.0), False)):
        given = pair_entry_decomposition(gd.eigenvalues, w)
        assert spectral._pair_measure(given, 0, 1).uv[1] == w
        residual = pgst_search(cs, given, 0, 1, "four_pi_ell", target=0.0).best.residuals[1]
        assert (residual is not None) == signable


def pair_entry_decomposition(eigenvalues, entry):
    """Hand-built orthonormal decomposition on 3 vertices with simple
    eigenvalues whose entry <0|F_1|1> is exactly entry: rows 0 and 1 of the
    second eigenvector are 2^-17 and entry * 2^17, a product without rounding."""
    x1 = np.array([2.0**-17, entry * 2.0**17, 0.0])
    x1[2] = math.sqrt(1.0 - x1[0] ** 2 - x1[1] ** 2)
    x0 = np.array([x1[1], -x1[0], 0.0]) / math.hypot(x1[0], x1[1])
    return SpectralDecomposition(
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        vectors=np.column_stack([x0, x1, np.cross(x0, x1)]),
        multiplicities=(1, 1, 1),
    )


# ------------------------------------------- antipodal machinery and PGST


def test_antipodal_sign_check_small_sizes():
    for n in range(2, 6):
        flags = antipodal_sign_check(cocktail_party_graph(n))
        assert len(flags) == 3
        assert all(flags)


def test_antipodal_sign_check_rejects_other_graphs():
    with pytest.raises(ValueError, match=r"antipode map is i <-> i\+n"):
        antipodal_sign_check(path_graph(4))
    with pytest.raises(ValueError, match=r"antipode map is i <-> i\+n"):
        antipodal_sign_check(complete_graph(4))
    for n in range(2, 6):
        cp = cocktail_party_graph(n)
        swap_1_n = {1: n, n: 1}  # moves the antipode of 0 from n to 1
        near_misses = [
            Graph(2 * n, cp.edges - {(0, 1)}),  # one edge short
            # Edge (0, 1) traded for the antipodal pair (0, n): same order and size, another matching.
            Graph(2 * n, cp.edges - {(0, 1)} | {(0, n)}),
            Graph(2 * n, {(swap_1_n.get(u, u), swap_1_n.get(v, v)) for u, v in cp.edges}),  # relabelled
        ]
        for g in near_misses:
            with pytest.raises(ValueError, match=r"antipode map is i <-> i\+n"):
                antipodal_sign_check(g)
        # a relabelling that keeps every antipodal pair is CP(n) itself
        swap_0_n = {0: n, n: 0}
        same = Graph(2 * n, {(swap_0_n.get(u, u), swap_0_n.get(v, v)) for u, v in cp.edges})
        assert same == cp and all(antipodal_sign_check(same))
    with pytest.raises(ValueError, match="not a cocktail party graph$"):
        antipodal_sign_check(path_graph(3))
    with pytest.raises(ValueError, match="not a cocktail party graph$"):
        antipodal_sign_check(complete_graph(2))


def test_antipodal_sign_check_accepts_only_the_cocktail_party_graph():
    # Every graph on 4 vertices, and every 12-edge graph on 6: only CP(2) and CP(3) pass.
    pairs4, pairs6 = list(itertools.combinations(range(4), 2)), list(itertools.combinations(range(6), 2))
    candidates = [Graph(4, edges) for k in range(7) for edges in itertools.combinations(pairs4, k)]
    candidates += [Graph(6, edges) for edges in itertools.combinations(pairs6, 12)]
    accepted = []
    for g in candidates:
        try:
            flags = antipodal_sign_check(g)
        except ValueError:
            continue
        accepted.append(g)
        assert all(flags)
    assert accepted == [cocktail_party_graph(2), cocktail_party_graph(3)]


def test_frozen_bounds_regenerate_byte_for_byte(tmp_path, capsys):
    # The fixture's one writer is the freeze tool: its fresh output must be
    # the committed file, every ell and every fidelity bit.
    root = Path(__file__).parents[1]
    fixture = root / "tests" / "fixtures" / "pgst_bounds.json"
    spec = importlib.util.spec_from_file_location("freeze_pgst_bounds", root / "tools" / "freeze_pgst_bounds.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "pgst_bounds.json"
    tool.main([str(out)])
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    assert out.read_bytes() == fixture.read_bytes()


def test_cocktail_pgst_frozen_case():
    record = cocktail_pgst(3)
    assert record.ell == 342
    assert record.fidelity >= 0.99
    assert abs(record.t - 4 * math.pi * 342) < 1e-9
    # n = 2, the smallest cocktail party graph, is the fixture's cocktail2_k1 (pair 0, 2).
    case = next(c for c in PGST_BOUNDS["cases"] if c["name"] == "cocktail2_k1")
    assert (case["u"], case["v"], case["family"], case["target"]) == (0, 2, "four_pi_ell", 0.99)
    record = cocktail_pgst(2)
    assert (record.ell, record.fidelity, record.t) == (case["ell"], case["fidelity"], case["t"])
    with pytest.raises(ValueError):
        cocktail_pgst(1)


def test_cocktail_pgst_decomposes_the_base_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat.shape[0]) or eigh(mat))
    cocktail_pgst(3)
    assert calls == [1, 6]  # the K1 satellite, then the base


def test_cocktail_pendant_delta_pair_stays_incommensurable():
    # Delta^2 values 4((n-1)^2+1) and 4(n^2+1) for the two positive base
    # eigenvalues: their square-free parts always differ, so the two cosines
    # never lock to a common period.
    for n in range(2, 21):
        c1 = squarefree_split(4 * ((n - 1) ** 2 + 1)).c
        c2 = squarefree_split(4 * (n**2 + 1)).c
        assert c1 != c2
