"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py` (output capture is disabled in the
project config so the lines appear inline).
"""

import math

import numpy as np
from conftest import (
    MIXED3,
    PGST_BOUNDS,
    class_c_pair,
    fixture_corona,
    random_connected_graph,
    random_graph,
    random_satellites,
    witness_values_non_integral,
)

from coronawalk import (
    antipodal_sign_check,
    check_pst,
    cocktail_party_graph,
    complete_graph,
    corona,
    corona_eigenprojectors,
    corona_no_pst_witness,
    corona_spectrum,
    corona_transition_values,
    eigendecompose,
    empty_graph,
    evolve_operator,
    hypercube_graph,
    is_perfect_square,
    laplacian,
    path_graph,
    pgst_search,
    transition_values,
    walk_matrix,
)
from coronawalk import cli
from coronawalk.corona_spectrum import _lifted_measure
from coronawalk.spectral import _pair_measure


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_closed_form_spectrum_vs_oracle():
    rng = np.random.default_rng(2026)
    worst_eval = worst_proj = worst_lift = 0.0
    base_pairs = 0
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        g = random_connected_graph(rng, n)
        hs = random_satellites(rng, n, m)
        closed = corona_eigenprojectors(g, hs)
        cg = corona(g, hs)
        flat_laplacian = laplacian(cg.flat)
        oracle = eigendecompose(flat_laplacian)

        ok = ok and sum(closed.multiplicities) == n * (m + 1)
        ok = ok and corona_spectrum(g, hs).total_multiplicity() == n * (m + 1)
        ok = ok and closed.multiplicities == oracle.multiplicities
        if not ok:
            break
        expanded_closed = np.repeat(closed.eigenvalues, closed.multiplicities)
        expanded_oracle = np.repeat(oracle.eigenvalues, oracle.multiplicities)
        worst_eval = max(worst_eval, float(np.max(np.abs(expanded_closed - expanded_oracle))))
        worst_proj = max(worst_proj, float(np.max(np.abs(closed.projectors - oracle.projectors))))
        # Base pairs: the lifted base measure is the flat measure on the lambda_pm, which
        # come first and last in the flat order, and the flat measure vanishes elsewhere.
        g_decomp = eigendecompose(laplacian(g))
        k, dim_k = len(g_decomp.multiplicities), len(oracle.multiplicities)
        lifted_at = np.r_[0:k, dim_k - k : dim_k]
        scale = np.finfo(float).eps * float(np.abs(flat_laplacian).max())
        for u in range(n):
            for v in range(u, n):
                lifted = _lifted_measure(_pair_measure(g_decomp, u, v), m)
                flat = _pair_measure(oracle, cg.flat_index(u, 0), cg.flat_index(v, 0))
                flat_rows = np.vstack((flat.uv, flat.norms))
                deviation = np.abs(flat_rows[:, lifted_at] - np.vstack((lifted.uv, lifted.norms)))
                elsewhere = np.abs(np.delete(flat_rows, lifted_at, axis=1))
                worst_lift = max(worst_lift, float(deviation.max()) / scale, float(elsewhere.max(initial=0.0)) / scale)
                base_pairs += 1
    ok = ok and worst_eval <= 1e-9 and worst_proj <= 1e-8 and worst_lift <= 64.0
    report(
        1,
        ok,
        "closed-form corona spectrum matches dense oracle on 50 seeded coronas "
        f"(max eigenvalue dev {worst_eval:.2e} <= 1e-9, max projector dev {worst_proj:.2e} <= 1e-8, "
        f"multiplicities total n(m+1)); the lifted base measure matches the flat one on all {base_pairs} "
        f"base pairs (max dev {worst_lift:.1f} <= 64 eps*max|L|)",
    )


def test_criterion_2_transition_element_equivalence():
    rng = np.random.default_rng(2028)
    ts = rng.uniform(0.0, 100.0, size=100)
    worst = 0.0
    for g, hs in [
        (complete_graph(2), [empty_graph(3)] * 2),
        (hypercube_graph(2), MIXED3),
    ]:
        cs = corona_spectrum(g, hs)
        g_decomp = eigendecompose(laplacian(g))
        cg = corona(g, hs)
        oracle = eigendecompose(laplacian(corona(g, hs).flat))
        for u in range(g.n):
            for v in range(u, g.n):
                a = corona_transition_values(cs, g_decomp, u, v, ts)
                b = transition_values(oracle, cg.flat_index(u, 0), cg.flat_index(v, 0), ts)
                worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-9
    report(
        2,
        ok,
        "closed-form transition element matches direct evolution at 100 seeded times "
        f"for both reference coronas (max dev {worst:.2e} <= 1e-9)",
    )


def test_criterion_3_pst_controls():
    positives = [
        ("K2", complete_graph(2), 0, 1),
        ("Q2", hypercube_graph(2), 0, 3),
        ("Q3", hypercube_graph(3), 0, 7),
        ("cocktail_party(2)", cocktail_party_graph(2), 0, 2),
    ]
    negatives = [
        ("P3 endpoints", path_graph(3), 0, 2),
        ("cocktail_party(3)", cocktail_party_graph(3), 0, 3),
    ]
    ok = True
    for _, g, u, v in positives:
        verdict = check_pst(eigendecompose(laplacian(g)), u, v)
        ok = ok and verdict.pst
        ok = ok and verdict.t0 is not None and abs(verdict.t0 - math.pi / 2) < 1e-12
        ok = ok and verdict.fidelity_at_t0 >= 1.0 - 1e-9
    for _, g, u, v in negatives:
        verdict = check_pst(eigendecompose(laplacian(g)), u, v)
        ok = ok and not verdict.pst
    report(
        3,
        ok,
        "PST certified for K2, Q2, Q3, cocktail_party(2) at t0 = pi/2 with fidelity >= 1-1e-9; "
        "refuted for P3 endpoints and cocktail_party(3)",
    )


def test_criterion_4_no_pst_in_coronas():
    rng = np.random.default_rng(2030)
    ok = True
    pairs_checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        g = random_connected_graph(rng, n)
        hs = random_satellites(rng, n, m)
        d = eigendecompose(laplacian(corona(g, hs).flat))
        for u in range(d.dim):
            for v in range(u + 1, d.dim):
                verdict = check_pst(d, u, v)
                ok = ok and not verdict.pst
                pairs_checked += 1
        for b in range(g.n):
            w = corona_no_pst_witness(g, m, b)
            ok = ok and witness_values_non_integral(w)
            ok = ok and min(w.support_weights) > 0.0
        if not ok:
            break
    square_free = all(
        not is_perfect_square((m + lam - 1) ** 2 + 4 * m)
        for m in range(1, 201)
        for lam in range(1, 201)
    )
    ok = ok and square_free
    report(
        4,
        ok,
        f"all {pairs_checked} vertex pairs of 50 seeded coronas refuted, witnesses certify "
        "non-integer support eigenvalues, and (m+lam-1)^2+4m is non-square for all 1 <= m, lam <= 200",
    )


def test_criterion_5_pgst_frozen_bounds():
    ok = True
    names = []
    for case in PGST_BOUNDS["cases"]:
        g, hs = fixture_corona(case["name"])
        cs = corona_spectrum(g, hs)
        g_decomp = eigendecompose(laplacian(g))
        result = pgst_search(
            cs,
            g_decomp,
            case["u"],
            case["v"],
            case["family"],
            ell_max=case["ell"],
            target=case["target"],
        )
        ok = ok and result.target_met
        ok = ok and result.best.r == case["r"]
        ok = ok and result.best.ell == case["ell"]
        ok = ok and abs(result.best.fidelity - case["fidelity"]) <= 1e-9
        ok = ok and result.best.fidelity >= case["target"]
        if case["family"] == "four_pi_ell":
            ok = ok and abs(result.best.t - 4.0 * math.pi * result.best.ell) < 1e-9
        else:
            ok = ok and abs(result.best.t - (4.0 * result.best.ell + 1.0) * math.pi) < 1e-9
        names.append(f"{case['name']} (ell={case['ell']})")
    report(
        5,
        ok,
        "frozen PGST bounds reproduced at their targets: " + ", ".join(names),
    )


def test_criterion_6_antipodal_matching_signs():
    ok = True
    for n in range(2, 9):
        flags = antipodal_sign_check(cocktail_party_graph(n))
        ok = ok and all(flags)
    report(
        6,
        ok,
        "antipodal matching acts as (-1)^j on every eigenprojector of "
        "cocktail_party(n) for n = 2..8 (every ||F_j e_(i+n) - (-1)^j F_j e_i|| <= SUPPORT_TOL)",
    )


def test_criterion_7_adjacency_contrast(tmp_path):
    g = complete_graph(2)
    hs = [empty_graph(6)] * 2
    cs = corona_spectrum(g, hs)
    g_decomp = eigendecompose(laplacian(g))
    lap = pgst_search(cs, g_decomp, 0, 1, "four_pi_ell", ell_max=34, target=0.999)

    # fig3's screened maximum over the grid; test_cli pins it against every
    # one of the 200,000 grid points.
    summary, _, _ = cli._fig3(tmp_path, {})
    assert summary["adjacency_grid"] == {"t_max": 2000.0, "points": 200_000}
    adjacency_max = summary["adjacency_max_fidelity"]

    ok = lap.target_met and adjacency_max < lap.best.fidelity
    report(
        7,
        ok,
        f"K2 corona O6 adjacency walk max fidelity {adjacency_max:.9f} over t in [0, 2000] "
        f"(200000-point grid) stays below the Laplacian best {lap.best.fidelity:.9f}",
    )


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(2034)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.9)))
        kind = "laplacian" if rng.integers(2) else "adjacency"
        d = eigendecompose(walk_matrix(g, kind))

        total = np.sum(d.projectors, axis=0)
        ok = ok and np.max(np.abs(total - np.eye(n))) <= 1e-9
        for i, fi in enumerate(d.projectors):
            for j, fj in enumerate(d.projectors):
                expect = fi if i == j else 0.0
                ok = ok and np.max(np.abs(fi @ fj - expect)) <= 1e-9

        t = float(rng.uniform(0.0, 50.0))
        u_mat = evolve_operator(d, t)
        ok = ok and np.max(np.abs(u_mat @ u_mat.conj().T - np.eye(n))) <= 1e-9
        uu, vv = rng.integers(0, n, size=2)
        ok = ok and abs(abs(u_mat[uu, vv]) - abs(u_mat[vv, uu])) <= 1e-12

        lam = float(rng.uniform(0.0, 12.0))
        m = int(rng.integers(1, 9))
        plus, minus = class_c_pair(lam, m)
        delta_sq = (m + lam - 1.0) ** 2 + 4.0 * m
        ok = ok and abs(plus + minus - (m + lam + 1.0)) <= 1e-12
        ok = ok and abs(plus * minus - lam) <= 1e-12
        ok = ok and abs((1.0 - plus) * (1.0 - minus) + m) <= 1e-9
        ok = ok and abs(((1.0 - plus) ** 2 + m) * ((1.0 - minus) ** 2 + m) - m * delta_sq) <= 1e-9
        if not ok:
            break
    report(
        8,
        ok,
        "invariants hold over 100 seeded instances: projector algebra, unitarity, "
        "fidelity symmetry, and the class (c) pair's sum/product/(1-x) identities",
    )
