"""State-transfer verdicts for Laplacian walks: perfect-state-transfer
certification, no-PST witnesses for coronas, and pretty-good-state-transfer
time searches.

PST between u and v holds iff (i) the pair is strongly cospectral, (ii)
every eigenvalue in their support is an integer, and (iii) with g the gcd of
the nonzero support eigenvalues, <u|F_lam|v> is positive exactly when lam/g
is even. The minimum transfer time is then t0 = pi/g.

Coronas over a connected base on >= 2 vertices never admit PST: each base
vertex keeps both lambda_pm in its support, and at least one of them is
never an integer (exact arithmetic when the base eigenvalue is integral).
PGST can survive; the searches here scan the time families t = 4*pi*ell
and t = (4*ell + 2^(1-r))*pi for the smallest ell meeting a fidelity
target. A phase-table screen bounds each chunk of the scan and skips the
chunks that cannot hold a record or a hit; the rest run the exact kernel
as a whole, so every result keeps the bits of an unscreened scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corona_spectrum import CoronaSpectrum, _class_c, _delta, corona_spectrum
from .graphs import Graph, cocktail_party_graph, complete_graph, is_connected, laplacian
from .numtheory import integer_eigenvalue, support_gcd_and_valuation
from .spectral import (
    SUPPORT_TOL,
    SpectralDecomposition,
    eigendecompose,
    eigenvalue_support,
    strongly_cospectral,
)
from .walk import _check_vertex, _fidelity_phase, corona_transition_values, transition_values

# |<u|F_lam|v>| below this cannot be signed reliably.
SIGN_TOL = 1e-10

# A certified PST verdict must reproduce this fidelity at t0.
PST_FIDELITY_TOL = 1e-9

# Tolerance for the antipodal matching to act as (-1)^j on eigenprojectors.
ANTIPODAL_TOL = 1e-9

PGST_FAMILIES = ("four_pi_ell", "shifted")

_SEARCH_CHUNK = 2048


class IndeterminateVerdictError(ValueError):
    """A sign test hit a projector entry too small to classify."""

    def __init__(self, lam: float, u: int, v: int):
        self.lam = lam
        super().__init__(
            f"cannot sign <{u}|F|{v}> at eigenvalue {lam:.12g}: magnitude below {SIGN_TOL}"
        )


@dataclass(frozen=True)
class PstConditions:
    strongly_cospectral: bool
    integer_support: bool
    sign_pattern_ok: bool


@dataclass(frozen=True)
class TransferVerdict:
    """PST certificate or refutation for one vertex pair.

    support holds the joint support eigenvalues, as exact integers when all
    are integral (that is what condition (ii) reports) and as floats
    otherwise. g, t0, phase and fidelity_at_t0 are populated as soon as they
    are defined: g whenever the support is integral with a nonzero entry,
    the rest only for a certified pair. witness names a non-integer support
    eigenvalue when condition (ii) is the refuter.
    """

    u: int
    v: int
    pst: bool
    conditions: PstConditions
    support: tuple
    g: int | None
    t0: float | None
    phase: complex | None
    fidelity_at_t0: float | None
    witness: str | None


def _joint_support(d: SpectralDecomposition, *vertices) -> tuple[list, list, list]:
    """The joint eigenvalue support of the vertices: its eigenvalue indices
    ascending, their eigenvalues, and each eigenvalue as an exact integer or
    None when it is not one."""
    joint = sorted(set().union(*(eigenvalue_support(d, x).support for x in vertices)))
    values = d.eigenvalues[joint].tolist()
    return joint, values, [integer_eigenvalue(x) for x in values]


def check_pst(d: SpectralDecomposition, u: int, v: int) -> TransferVerdict:
    """Decide Laplacian PST between u and v from a spectral decomposition.

    The decomposition must come from a Laplacian; the criterion is not
    valid for adjacency walks. A certified verdict is re-verified by direct
    evolution at t0 and an ArithmeticError is raised if the fidelity falls
    short, since that would mean the numerics contradict the certificate.
    """
    if u == v:
        raise ValueError("PST is a property of distinct vertices")
    report = strongly_cospectral(d, u, v)
    # The report signs exactly the joint support: it tests the norms that
    # eigenvalue_support tests against SUPPORT_TOL.
    joint = [i for i, sign in enumerate(report.signs) if sign is not None]
    values = d.eigenvalues[joint].tolist()
    ints = [integer_eigenvalue(x) for x in values]
    integer_support = all(k is not None for k in ints)
    support = tuple(ints) if integer_support else tuple(values)

    witness = None
    if not integer_support:
        bad = next(x for x, k in zip(values, ints) if k is None)
        witness = f"non-integer support eigenvalue {bad:.12g}"

    g = None
    if integer_support and any(k != 0 for k in ints):
        g, _ = support_gcd_and_valuation(ints)

    sign_ok = False
    if report.strongly_cospectral and integer_support and g is not None:
        sign_ok = True
        for lam, w in zip(ints, d.projectors[joint, u, v].tolist()):
            if abs(w) < SIGN_TOL:
                raise IndeterminateVerdictError(lam, u, v)
            if (w > 0) != ((lam // g) % 2 == 0):
                sign_ok = False
                break

    pst = report.strongly_cospectral and integer_support and sign_ok
    t0 = phase = fidelity = None
    if pst:
        t0 = math.pi / g
        (fidelity,), (phase,) = _fidelity_phase(transition_values(d, u, v, [t0]))
        if fidelity < 1.0 - PST_FIDELITY_TOL:
            raise ArithmeticError(
                f"conditions certify PST but fidelity at t0 is {fidelity:.15f}"
            )
    return TransferVerdict(
        u=u,
        v=v,
        pst=pst,
        conditions=PstConditions(
            strongly_cospectral=report.strongly_cospectral,
            integer_support=integer_support,
            sign_pattern_ok=sign_ok,
        ),
        support=support,
        g=g,
        t0=t0,
        phase=phase,
        fidelity_at_t0=fidelity,
        witness=witness,
    )


@dataclass(frozen=True)
class NoPstWitness:
    """A positive base eigenvalue whose lambda_pm pair refutes corona PST.

    support_weights are the diagonal projector entries
    <(u,0)|F_{lambda_pm}|(u,0)> certifying that both values stay in the
    support of the base vertex u inside any corona of satellite order m.
    """

    base_vertex: int
    m: int
    lam: float
    lam_plus: float
    lam_minus: float
    delta_sq: int | None
    support_weights: tuple
    reason: str


def corona_no_pst_witness(g: Graph, m: int, base_vertex: int) -> NoPstWitness:
    """Witness that G corona (H_1..H_n) has no Laplacian PST at base_vertex.

    Holds for every choice of satellites of order m: the witness eigenvalue
    pair lambda_pm depends only on (lam, m) and its membership in the
    support of (base_vertex, 0) follows from the class (c) projector
    diagonal. Non-integrality is decided exactly when lam is an integer
    ((m+lam-1)^2 + 4m is never a perfect square), and follows from
    lambda_plus + lambda_minus = m + lam + 1 otherwise.
    """
    if g.n < 2 or not is_connected(g):
        raise ValueError("witness needs a connected base graph on >= 2 vertices")
    if m < 1:
        raise ValueError("satellite order m must be >= 1")
    if not (0 <= base_vertex < g.n):
        raise ValueError(f"base vertex {base_vertex} out of range")

    d = eigendecompose(laplacian(g))
    info = eigenvalue_support(d, base_vertex)
    for idx in info.support:
        if idx == 0:
            continue  # the zero eigenvalue of the connected base
        weight = info.weights[idx]
        pair = _class_c(float(d.eigenvalues[idx]), m, 1)
        lam, plus, minus = pair.lam, pair.lam_plus, pair.lam_minus
        weights = tuple(
            (1.0 - x) ** 2 / ((1.0 - x) ** 2 + m) * weight for x in (plus, minus)
        )
        if min(weights) <= SUPPORT_TOL**2:
            continue

        if pair.delta_sq is not None:
            if pair.c == 1:
                raise ArithmeticError(f"unexpected perfect square {pair.delta_sq}")
            reason = (
                f"(m+lam-1)^2 + 4m = {pair.delta_sq} is not a perfect square, so "
                f"lambda_pm = ({m + round(lam) + 1} +/- sqrt({pair.delta_sq}))/2 are irrational "
                f"support eigenvalues of ({base_vertex},0)"
            )
        else:
            bad = [x for x in (plus, minus) if integer_eigenvalue(x) is None]
            reason = (
                f"base eigenvalue {lam:.12g} is not an integer, so the support "
                f"eigenvalue(s) {', '.join(f'{x:.12g}' for x in bad)} of "
                f"({base_vertex},0) cannot be integers"
            )
        return NoPstWitness(
            base_vertex=base_vertex,
            m=m,
            lam=lam,
            lam_plus=plus,
            lam_minus=minus,
            delta_sq=pair.delta_sq,
            support_weights=weights,
            reason=reason,
        )
    raise ArithmeticError("no certified positive support eigenvalue found")


@dataclass(frozen=True)
class PgstRecord:
    """One evaluated search time. residuals[i] is |cos(t*Delta_i/2) - target|
    for the i-th distinct base eigenvalue (ascending), None where the pair
    projector entry is too small to set a target."""

    family: str
    r: int | None
    ell: int
    t: float
    fidelity: float
    phase: complex | None
    residuals: tuple


@dataclass(frozen=True)
class PgstSearchResult:
    best: PgstRecord
    history: tuple
    target_met: bool


def pgst_search(
    cs: CoronaSpectrum,
    g_decomp: SpectralDecomposition,
    u: int,
    v: int,
    family: str,
    r: int | None = None,
    ell_max: int = 10_000,
    target: float = 0.99,
) -> PgstSearchResult:
    """Scan a PGST time family for the smallest ell meeting a fidelity
    target between base vertices (u,0) and (v,0) of the corona.

    family "four_pi_ell" uses t = 4*pi*ell; with integer base eigenvalues
    every unimodular prefactor is 1 there, so the fidelity approaches 1 when
    each cos(t*Delta_lam/2) approaches the sign of <u|F_lam|v>. family
    "shifted" uses t = (4*ell + 2^(1-r))*pi with 2^r the largest power of
    two dividing the support gcd; it needs integer support, a PST pair in
    the base, and 2^(r+1) | m+1, and its cosine targets are all +1.

    The scan runs in chunks of _SEARCH_CHUNK consecutive ell and stops at
    the first hit; history records the strictly improving fidelities along
    the way. Past the first chunk a phase-table screen (_fidelity_screen)
    bounds every fidelity of a chunk to within tol, and a chunk is skipped
    when no value in it can be a record or a hit. Every other chunk goes
    through corona_transition_values whole, exactly as in an unscreened
    scan, so the records keep their bits: a product over a subset of rows
    would round differently.
    """
    if family not in PGST_FAMILIES:
        raise ValueError(f"family must be one of {PGST_FAMILIES}, got {family!r}")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if not (0.0 <= target < 1.0):
        raise ValueError("target must lie in [0, 1)")
    _check_vertex(g_decomp, u)
    _check_vertex(g_decomp, v)
    if u == v:
        raise ValueError("PGST is a property of distinct vertices")
    m = cs.m

    if family == "shifted":
        _, _, ints = _joint_support(g_decomp, u, v)
        if None in ints:
            raise ValueError("shifted family needs an all-integer eigenvalue support")
        _, r_support = support_gcd_and_valuation(ints)
        if r is None:
            r = r_support
        elif r != r_support:
            raise ValueError(f"r={r} disagrees with the support value {r_support}")
        if (m + 1) % (2 ** (r + 1)) != 0:
            raise ValueError(f"shifted family needs 2^(r+1)={2 ** (r + 1)} to divide m+1={m + 1}")
    elif r is not None:
        raise ValueError("r only applies to the shifted family")

    lam = g_decomp.eigenvalues
    delta = _delta(lam, m)
    pair_weights = g_decomp.projectors[:, u, v]
    if family == "shifted":
        targets = [1.0 if abs(float(w)) > SIGN_TOL else None for w in pair_weights]
    else:
        targets = [
            (1.0 if w > 0 else -1.0) if abs(float(w)) > SIGN_TOL else None
            for w in pair_weights
        ]

    def time_of(ells: np.ndarray) -> np.ndarray:
        if family == "four_pi_ell":
            return 4.0 * math.pi * ells
        return (4.0 * ells + 2.0 ** (1 - r)) * math.pi

    best_fidelity = -1.0
    history: list[PgstRecord] = []
    screen = None
    for start in range(1, ell_max + 1, _SEARCH_CHUNK):
        stop = min(start + _SEARCH_CHUNK, ell_max + 1)
        if start > 1:
            # Built on reaching a second chunk: most searches end in the first.
            if screen is None:
                screen, tol = _fidelity_screen(lam, delta, pair_weights, m, time_of(ell_max))
            if screen(time_of(start), stop - start).max() < min(best_fidelity, target) - tol:
                continue
        ells = np.arange(start, stop)
        ts = time_of(ells.astype(float))
        values = corona_transition_values(cs, g_decomp, u, v, ts)
        fidelities = np.abs(values) ** 2
        hits = np.nonzero(fidelities >= target)[0]
        last = int(hits[0]) + 1 if hits.size else len(ells)
        running = np.maximum.accumulate(np.concatenate(([best_fidelity], fidelities[:last])))
        new = np.nonzero(fidelities[:last] > running[:-1])[0]
        for ell, t, f, p in zip(ells[new].tolist(), ts[new].tolist(), *_fidelity_phase(values[new])):
            residuals = tuple(
                None if tgt is None else float(abs(math.cos(0.5 * t * dl) - tgt))
                for dl, tgt in zip(delta, targets)
            )
            history.append(
                PgstRecord(family=family, r=r, ell=ell, t=t, fidelity=f, phase=p, residuals=residuals)
            )
        best_fidelity = float(running[-1])
        if hits.size:
            return PgstSearchResult(best=history[-1], history=tuple(history), target_met=True)
    return PgstSearchResult(best=history[-1], history=tuple(history), target_met=False)


def _fidelity_screen(lam, delta, weights, m: int, t_max: float):
    """A cheap stand-in for |corona_transition_values|^2 along a PGST time
    family up to t_max, and the bound tol on its distance from the exact
    fidelity.

    Splitting cos(x) - i c sin(x) = ((1+c) e^{-ix} + (1-c) e^{ix})/2 turns
    the element into e^{-it(m+1)/2} sum_j a_j e^{-it omega_j}, with
    omega = (lam +/- Delta)/2 and a = w (1 +/- (m+lam-1)/Delta)/2. The
    fidelity drops the prefactor, and t advances by exactly 4*pi per ell on
    both families, so screen(t0, n) reads the n fidelities from t0 on as
    |T[:n] @ (a e^{-i t0 omega})|^2 with one table T[i, j] = e^{-i 4 pi i omega_j}.

    Bound: the kernel builds a term's phase from the angles t*lam/2 and
    t*Delta/2, the screen from t0*omega_j and 4*pi*i*omega_j. Each angle is
    at most t_max*max|omega| and carries at most three roundings (Delta
    itself is shared), so a term's two phases differ by under
    4*eps*t_max*max|omega|. S = sum|a_j| = sum|w| bounds |value| on both
    sides (|c| < 1), and ||z|^2 - |z'|^2| <= 2S|z - z'|, so the fidelities
    differ by under 8*eps*S^2*t_max*max|omega|, plus O(k*eps*S^2) from the
    trig calls, products and the 2k-term sum. That remainder is negligible:
    a screen runs only past the first chunk, where t_max*max|omega| >
    4*pi*2048 (max|omega| >= Delta/2 >= sqrt(m) >= 1).
    tol takes 64 for the 8.
    """
    coef = (m + lam - 1.0) / delta
    omega = 0.5 * np.concatenate((lam + delta, lam - delta))
    amps = 0.5 * np.concatenate((weights * (1.0 + coef), weights * (1.0 - coef)))
    size = float(np.sum(np.abs(amps)))
    tol = 64.0 * np.finfo(float).eps * size * size * t_max * float(np.max(np.abs(omega)))
    table = np.exp(-1j * np.outer(4.0 * math.pi * np.arange(_SEARCH_CHUNK), omega))

    def screen(t0: float, n: int) -> np.ndarray:
        return np.abs(table[:n] @ (amps * np.exp(-1j * t0 * omega))) ** 2

    return screen, tol


@dataclass(frozen=True)
class PgstHypothesis:
    """Whether a base graph vertex satisfies the shifted-family hypotheses:
    a PST partner, the 2-adic valuation r of its support gcd, and the
    divisibility 2^(r+1) | m+1."""

    pst_pair: int | None
    r: int | None
    divisibility_ok: bool


def check_pgst_hypothesis(g_decomp: SpectralDecomposition, u: int, m: int) -> PgstHypothesis:
    if m < 1:
        raise ValueError("satellite order m must be >= 1")
    pst_pair = None
    for v in range(g_decomp.dim):
        if v != u and check_pst(g_decomp, u, v).pst:
            pst_pair = v
            break
    _, _, ints = _joint_support(g_decomp, u)
    r = None
    divisibility_ok = False
    if None not in ints and any(ints):
        _, r = support_gcd_and_valuation(ints)
        divisibility_ok = (m + 1) % (2 ** (r + 1)) == 0
    return PgstHypothesis(pst_pair=pst_pair, r=r, divisibility_ok=divisibility_ok)


def antipodal_sign_check(g: Graph) -> list:
    """Verify that the antipodal matching acts as (-1)^j on the j-th
    eigenprojector of a cocktail party graph.

    Projectors are ordered by ascending Laplacian eigenvalue, which for
    this regular graph is descending adjacency order. Returns one boolean
    per distinct eigenvalue.
    """
    if g.n < 4 or g.n % 2 != 0:
        raise ValueError("not a cocktail party graph")
    n = g.n // 2
    if g.edges != cocktail_party_graph(n).edges:
        raise ValueError("not a cocktail party graph (antipode map is i <-> i+n)")
    matching = np.zeros((g.n, g.n))
    for i in range(n):
        matching[i, i + n] = matching[i + n, i] = 1.0
    d = eigendecompose(laplacian(g))
    return [
        bool(np.max(np.abs(matching @ proj - ((-1) ** j) * proj)) <= ANTIPODAL_TOL)
        for j, proj in enumerate(d.projectors)
    ]


def cocktail_pgst(n: int, ell_max: int = 10_000, target: float = 0.99) -> PgstRecord:
    """Best t = 4*pi*ell record for the cocktail party graph on 2n vertices
    with one pendant vertex per site, between an antipodal base pair."""
    if n < 2:
        raise ValueError("cocktail party PGST needs n >= 2")
    g = cocktail_party_graph(n)
    hs = [complete_graph(1)] * g.n
    cs = corona_spectrum(g, hs)
    g_decomp = eigendecompose(laplacian(g))
    result = pgst_search(cs, g_decomp, 0, n, "four_pi_ell", ell_max=ell_max, target=target)
    return result.best
