import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import MIXED3, PGST_BOUNDS, fixture_corona, random_graph, scalar_fidelity_phase

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
    hypercube_graph,
    integer_eigenvalue,
    laplacian,
    path_graph,
    pgst_search,
    squarefree_split,
    strongly_cospectral,
    support_gcd_and_valuation,
)
from coronawalk import cli, spectral, statetransfer
from coronawalk.spectral import SUPPORT_TOL
from coronawalk.walk import corona_transition_values, transition_values


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
    # The stack rule: the matching maps each projector to (-1)^j times itself.
    for n in range(2, 9):
        g = cocktail_party_graph(n)
        antipode = np.r_[n : 2 * n, 0:n]
        stack = oracle_stack(decomp(g))
        want = [
            bool(np.max(np.abs(proj[antipode] - ((-1) ** j) * proj)) <= statetransfer.ANTIPODAL_TOL)
            for j, proj in enumerate(stack)
        ]
        assert want == [True] * 3
        assert antipodal_sign_check(g) == want


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
        lambda: cocktail_pgst(3, ell_max=2.5),
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
    # The unscreened scan runs all 200,000 ell of this search through the
    # exact kernel; the screen leaves the first chunk, which runs through
    # corona_transition_values, and the few ell that come close to a record.
    evaluated = {"checked": [], "kernel": []}

    def counting(name, fn):
        def counted(*args):
            evaluated[name].append(len(args[-1]))
            return fn(*args)

        return counted

    monkeypatch.setattr(statetransfer, "corona_transition_values", counting("checked", corona_transition_values))
    monkeypatch.setattr(statetransfer, "_corona_kernel", counting("kernel", statetransfer._corona_kernel))
    cs, gd = search_setup(hypercube_graph(2), MIXED3)
    pgst_search(cs, gd, 0, 3, "shifted", r=1, ell_max=200_000, target=0.999999)
    assert evaluated["checked"] == [2048]  # the first chunk, whole
    assert evaluated["kernel"], "no screened ell reached the patched kernel"
    assert 2048 + sum(evaluated["kernel"]) <= 2048 + 64


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
    make_screen = statetransfer._fidelity_screen

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
        exact.update(zip(map(ell_of, args[-1].tolist()), (np.abs(values) ** 2).tolist()))
        return values

    monkeypatch.setattr(statetransfer, "_fidelity_screen", recording_screen)
    monkeypatch.setattr(statetransfer, "_corona_kernel", recording_kernel)
    pgst_search(cs, gd, case["u"], case["v"], case["family"], r=case["r"], ell_max=300_000, target=0.999999)
    (tol,) = bounds
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
        assert spectral._pair_weights(given, 0, 1)[1] == w
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
    # Edge (0, 1) traded for the antipodal pair (0, 3): same order and size, another matching.
    shifted = Graph(6, cocktail_party_graph(3).edges - {(0, 1)} | {(0, 3)})
    with pytest.raises(ValueError, match=r"antipode map is i <-> i\+n"):
        antipodal_sign_check(shifted)
    with pytest.raises(ValueError, match="not a cocktail party graph$"):
        antipodal_sign_check(path_graph(3))
    with pytest.raises(ValueError, match="not a cocktail party graph$"):
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
