import cmath
import dataclasses
import math

import numpy as np
import pytest
from conftest import MIXED3, PGST_BOUNDS, fixture_corona, random_graph, scalar_fidelity_phase

from coronawalk import (
    CospectralityReport,
    IndeterminateVerdictError,
    PstConditions,
    SpectralDecomposition,
    SupportInfo,
    antipodal_sign_check,
    check_pgst_hypothesis,
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
    hypercube_graph,
    integer_eigenvalue,
    laplacian,
    path_graph,
    pgst_search,
    squarefree_split,
    strongly_cospectral,
    support_gcd_and_valuation,
)
from coronawalk import statetransfer
from coronawalk.spectral import STRONG_COSPECTRAL_TOL, SUPPORT_TOL
from coronawalk.walk import corona_transition_values


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


def test_tiny_projector_entry_is_indeterminate():
    # Hand-built decomposition: strongly cospectral pair with integer
    # eigenvalues whose first projector entry <0|F|1> = eps^2 sits below the
    # sign threshold but whose column norm keeps it inside the support.
    eps = math.sqrt(1e-11)
    x1 = np.array([eps, eps, math.sqrt(1.0 - 2.0 * eps * eps)])
    x2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    x3 = np.cross(x1, x2)
    d = SpectralDecomposition(
        dim=3,
        eigenvalues=np.array([0.0, 2.0, 4.0]),
        vectors=np.column_stack([x1, x2, x3]),
        multiplicities=(1, 1, 1),
    )
    with pytest.raises(IndeterminateVerdictError) as exc:
        check_pst(d, 0, 1)
    assert exc.value.lam == 0


def loop_eigenvalue_support(d, u):
    """Reference for eigenvalue_support: its weights read one entry at a
    time."""
    norms = np.linalg.norm(d.projectors[:, :, u], axis=1)
    support = tuple(int(i) for i in np.nonzero(norms > SUPPORT_TOL)[0])
    weights = tuple(float(d.projectors[i, u, u]) for i in range(len(d.eigenvalues)))
    return SupportInfo(vertex=u, support=support, weights=weights)


def loop_strongly_cospectral(d, u, v):
    """Reference for strongly_cospectral: the per-eigenvalue loop it ran,
    plus min(res+, res-) per eigenvalue (None outside the joint support)."""
    signs, residuals, ok = [], [], True
    for proj in d.projectors:
        a, b = proj[:, u], proj[:, v]
        if np.linalg.norm(a) <= SUPPORT_TOL and np.linalg.norm(b) <= SUPPORT_TOL:
            signs.append(None)
            residuals.append(None)
            continue
        res_plus, res_minus = float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b))
        signs.append(1 if res_plus <= res_minus else -1)
        residuals.append(min(res_plus, res_minus))
        ok = ok and residuals[-1] <= STRONG_COSPECTRAL_TOL
    return CospectralityReport(u=u, v=v, strongly_cospectral=ok, signs=tuple(signs)), residuals


def loop_check_pst(d, u, v):
    """Reference for check_pst's conditions, support and g: the loop pieces
    above, the joint support as the union of the two vertex supports, and
    one projector read per support eigenvalue."""
    report, _ = loop_strongly_cospectral(d, u, v)
    joint = sorted(set(loop_eigenvalue_support(d, u).support) | set(loop_eigenvalue_support(d, v).support))
    values = [float(d.eigenvalues[i]) for i in joint]
    ints = [integer_eigenvalue(x) for x in values]
    integer_support = None not in ints
    g = support_gcd_and_valuation(ints)[0] if integer_support and any(ints) else None
    sign_ok = report.strongly_cospectral and g is not None
    if sign_ok:
        for idx, lam in zip(joint, ints):
            w = float(d.projectors[idx, u, v])
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


def test_whole_stack_reads_equal_the_loops():
    for g in oracle_graphs():
        d = decomp(g)
        for u in range(g.n):
            assert eigenvalue_support(d, u) == loop_eigenvalue_support(d, u)
            for v in range(u + 1, g.n):
                report = strongly_cospectral(d, u, v)
                want, residuals = loop_strongly_cospectral(d, u, v)
                assert report.strongly_cospectral == want.strongly_cospectral
                assert [x is None for x in report.signs] == [x is None for x in want.signs]
                # Elsewhere the sign may be a rounding tie (F e_u orthogonal to F e_v).
                for got, sign, res in zip(report.signs, want.signs, residuals):
                    if res is not None and res <= STRONG_COSPECTRAL_TOL:
                        assert got == sign
                verdict = check_pst(d, u, v)
                conditions, support, gcd = loop_check_pst(d, u, v)
                assert (verdict.conditions, verdict.support, verdict.g) == (conditions, support, gcd)
                assert verdict.pst == all(dataclasses.astuple(conditions))


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
            w = corona_no_pst_witness(g, m, 0)
            assert integer_eigenvalue(w.lam_plus) is None
            assert integer_eigenvalue(w.lam_minus) is None


def test_witness_weights_match_assembled_projectors():
    g, m = complete_graph(2), 3
    w = corona_no_pst_witness(g, m, 0)
    d = corona_eigenprojectors(g, [empty_graph(m)] * 2)
    for value, expect in zip((w.lam_plus, w.lam_minus), w.support_weights):
        idx = int(np.argmin(np.abs(d.eigenvalues - value)))
        assert abs(d.eigenvalues[idx] - value) < 1e-9
        assert abs(d.projectors[idx][0, 0] - expect) < 1e-10


def test_witness_validation():
    with pytest.raises(ValueError):
        corona_no_pst_witness(empty_graph(2), 1, 0)  # disconnected
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(1), 1, 0)  # too small
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(2), 0, 0)  # m < 1
    with pytest.raises(ValueError):
        corona_no_pst_witness(complete_graph(2), 1, 2)  # vertex range


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


def test_shifted_family_hits_mixed_satellites():
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    result = pgst_search(cs, gd, 0, 3, "shifted", r=1, target=0.99)
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
    the records. Returns ((ell, t, fidelity, phase) per record, target met)."""
    best, records = -1.0, []
    for start in range(1, ell_max + 1, 2048):
        ells = np.arange(start, min(start + 2048, ell_max + 1)).astype(float)
        if family == "four_pi_ell":
            ts = 4.0 * math.pi * ells
        else:
            ts = (4.0 * ells + 2.0 ** (1 - r)) * math.pi
        values = corona_transition_values(cs, gd, u, v, ts)
        fidelities = np.abs(values) ** 2
        for i in range(len(ells)):
            if fidelities[i] > best:
                best = float(fidelities[i])
                records.append((int(ells[i]), float(ts[i]), *scalar_fidelity_phase(values[i])))
            if fidelities[i] >= target:
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
    )
    return cases


SCREEN_CASES = _screen_cases()


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screened_search_equals_plain_scan(name):
    g, hs, u, v, family, r, ell_max, target = SCREEN_CASES[name]
    cs, gd = search_setup(g, hs)
    result = pgst_search(cs, gd, u, v, family, r=r, ell_max=ell_max, target=target)
    records, met = plain_scan(cs, gd, u, v, family, r, ell_max, target)
    assert [(rec.ell, rec.t, rec.fidelity, rec.phase) for rec in result.history] == records
    assert result.target_met == met
    assert result.best == result.history[-1]


def test_screen_skips_chunks_without_records(monkeypatch):
    # The unscreened scan runs all 98 chunks of this search through the
    # exact kernel; the screen leaves the first chunk and the few that hold
    # a record.
    calls = []

    def counted(cs, gd, u, v, ts):
        calls.append(len(ts))
        return corona_transition_values(cs, gd, u, v, ts)

    monkeypatch.setattr(statetransfer, "corona_transition_values", counted)
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    pgst_search(cs, gd, 0, 3, "shifted", r=1, ell_max=200_000, target=0.999999)
    assert len(calls) <= 6


@pytest.mark.parametrize("name", ["q2_mixed3", "cocktail3_k1", "cocktail5_k1"])
def test_screen_stays_within_its_bound(monkeypatch, name):
    case = next(c for c in PGST_BOUNDS["cases"] if c["name"] == name)
    g, hs = fixture_corona(name)
    cs, gd = search_setup(g, hs)
    screened = {}
    bounds = []
    make_screen = statetransfer._fidelity_screen

    def recording_screen(*args):
        screen, tol = make_screen(*args)
        bounds.append(tol)

        def recorded(t0, n):
            screened[t0] = screen(t0, n)
            return screened[t0]

        return recorded, tol

    exact = {}

    def recording_kernel(cs, gd, u, v, ts):
        values = corona_transition_values(cs, gd, u, v, ts)
        exact[float(ts[0])] = np.abs(values) ** 2
        return values

    monkeypatch.setattr(statetransfer, "_fidelity_screen", recording_screen)
    monkeypatch.setattr(statetransfer, "corona_transition_values", recording_kernel)
    pgst_search(cs, gd, case["u"], case["v"], case["family"], r=case["r"], ell_max=300_000, target=0.999999)
    (tol,) = bounds
    evaluated = sorted(set(screened) & set(exact))
    assert evaluated, "no chunk was both screened and evaluated"
    gap = max(float(np.max(np.abs(screened[t0] - exact[t0]))) for t0 in evaluated)
    # tol / 8 is the rounding bound itself, before the screen's headroom.
    assert gap < tol / 8


def test_vanishing_pair_entry_gets_no_residual_target():
    # P3 endpoint-to-center: <0|F_1|1> = 0, so that eigenvalue has no cosine
    # target and its residual is None.
    cs, gd = search_setup(path_graph(3), [empty_graph(2)] * 3)
    result = pgst_search(cs, gd, 0, 1, "four_pi_ell", target=0.0)
    assert result.best.residuals[1] is None


# ------------------------------------------------- check_pgst_hypothesis


def test_hypothesis_hypercube_with_m3():
    h = check_pgst_hypothesis(decomp(hypercube_graph(2)), 0, 3)
    assert h.pst_pair == 3
    assert h.r == 1
    assert h.divisibility_ok


def test_hypothesis_k2_with_m1():
    h = check_pgst_hypothesis(decomp(complete_graph(2)), 0, 1)
    assert h.pst_pair == 1
    assert h.r == 1
    assert not h.divisibility_ok  # 2^2 does not divide m+1 = 2


def test_hypothesis_without_pst_pair():
    h = check_pgst_hypothesis(decomp(path_graph(3)), 0, 1)
    assert h.pst_pair is None
    assert h.r == 0
    assert h.divisibility_ok  # 2^1 divides m+1 = 2
    with pytest.raises(ValueError):
        check_pgst_hypothesis(decomp(path_graph(3)), 0, 0)


# ------------------------------------------- antipodal machinery and PGST


def test_antipodal_sign_check_small_sizes():
    for n in range(2, 6):
        flags = antipodal_sign_check(cocktail_party_graph(n))
        assert len(flags) == 3
        assert all(flags)


def test_antipodal_sign_check_rejects_other_graphs():
    with pytest.raises(ValueError):
        antipodal_sign_check(path_graph(4))
    with pytest.raises(ValueError):
        antipodal_sign_check(complete_graph(4))
    with pytest.raises(ValueError):
        antipodal_sign_check(path_graph(3))
    with pytest.raises(ValueError):
        antipodal_sign_check(complete_graph(2))


def test_cocktail_pgst_frozen_case():
    record = cocktail_pgst(3)
    assert record.ell == 342
    assert record.fidelity >= 0.99
    assert abs(record.t - 4 * math.pi * 342) < 1e-9
    with pytest.raises(ValueError):
        cocktail_pgst(1)


def test_cocktail_pendant_delta_pair_stays_incommensurable():
    # Delta^2 values 4((n-1)^2+1) and 4(n^2+1) for the two positive base
    # eigenvalues: their square-free parts always differ, so the two cosines
    # never lock to a common period.
    for n in range(2, 21):
        c1 = squarefree_split(4 * ((n - 1) ** 2 + 1)).c
        c2 = squarefree_split(4 * (n**2 + 1)).c
        assert c1 != c2
