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
PGST can survive; the searches here scan the time families t = 4*pi*ell and
t = (4*ell + 2^(1-r))*pi for the smallest ell meeting a fidelity target. The
shifted family is searched only from a base pair that check_pst's rule,
_pst_verdict, certifies on the search's own pair measure, with r the 2-adic
valuation of its support gcd. The first chunk of ell runs exactly, in three
growing runs that stop at a hit. Past it, the screen walk._phase_screen
(which the CLI's fig3 also uses) leaves the exact kernel only the ell that
may hold a record or a hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corona_spectrum import CoronaSpectrum, _class_c_arrays, _class_c_entries, _corona_walk, _lifted_measure
from .graphs import Graph, _index, cocktail_party_graph, complete_graph, is_connected, laplacian
from .numtheory import MAX_EXACT, integer_eigenvalue, support_gcd_and_valuation
from .spectral import (
    SUPPORT_TOL, SpectralDecomposition, _block_sums, _cospectrality, _pair_measure, _PairMeasure, eigendecompose,
)
from .walk import (
    _check_phase_range, _corona_kernel, _fidelity, _fidelity_phase, _measure_transition_values, _phase_screen,
    _phases, corona_transition_values,
)

# |<u|F_lam|v>| below this cannot be signed reliably.
SIGN_TOL = 1e-10

# A certified PST verdict must reproduce this fidelity at t0.
PST_FIDELITY_TOL = 1e-9

PGST_FAMILIES = ("four_pi_ell", "shifted")

_SEARCH_CHUNK = 2048
# Where the exact runs over the first _SEARCH_CHUNK ell end: most searches
# hit early, so the first run is short and each run after it longer.
_FIRST_RUN_ENDS = (128, 512, _SEARCH_CHUNK)
# Chunks screened per product: the block's values take about 256 KB.
_SCREEN_BLOCK = 8


def _signable(w: float) -> bool:
    """The one sign rule: a projector entry can be signed iff |w| >= SIGN_TOL."""
    return abs(w) >= SIGN_TOL


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


def check_pst(d: SpectralDecomposition, u: int, v: int) -> TransferVerdict:
    """Decide Laplacian PST between u and v from a spectral decomposition.

    The decomposition must come from a Laplacian; the criterion is not
    valid for adjacency walks. It reads one _pair_measure (rows of d.vectors,
    never the projector stack) for its cospectrality, its signs and its t0
    value: a fidelity below 1 - PST_FIDELITY_TOL at t0 contradicts a
    certified verdict and raises ArithmeticError.
    """
    if u == v:
        raise ValueError("PST is a property of distinct vertices")
    return _pst_verdict(_pair_measure(d, u, v), u, v)


def _pst_verdict(measure: _PairMeasure, u: int, v: int) -> TransferVerdict:
    """check_pst's verdict from the pair's measure: the one PST rule."""
    report = _cospectrality(measure, u, v)
    # The report signs exactly the joint support: it tests the norms that
    # eigenvalue_support tests against SUPPORT_TOL.
    joint = [i for i, sign in enumerate(report.signs) if sign is not None]
    values = measure.eigenvalues[joint].tolist()
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
    if report.strongly_cospectral and g is not None:  # g is set only on an integer support
        sign_ok = True
        for lam, w in zip(ints, measure.uv[joint].tolist()):
            if not _signable(w):
                raise IndeterminateVerdictError(lam, u, v)
            if (w > 0) != ((lam // g) % 2 == 0):
                sign_ok = False
                break

    t0 = phase = fidelity = None
    if sign_ok:
        t0 = math.pi / g
        (fidelity,), (phase,) = _fidelity_phase(_measure_transition_values(measure, [t0]))
        if fidelity < 1.0 - PST_FIDELITY_TOL:
            raise ArithmeticError(
                f"conditions certify PST but fidelity at t0 is {fidelity:.15f}"
            )
    return TransferVerdict(
        u=u,
        v=v,
        pst=sign_ok,
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

    support_weights are the diagonal projector entries <(u,0)|F|(u,0)> at
    (lambda_plus, lambda_minus), in that order, in any corona of satellite
    order m; both norms ||F e_(u,0)|| exceed SUPPORT_TOL, so both values stay
    in the support of the base vertex u. lam_plus and lam_minus are float64
    roundings, which near-integral values can defeat (over K2 at m = 10**8,
    lam_plus is 100000002.99999997, within INTEGRALITY_TOL of an integer);
    delta_sq, exact and never a perfect square when lam is an integer, and
    reason carry the exact claim."""

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
    pair lambda_pm depends only on (lam, m). lam is the smallest positive
    base eigenvalue whose lambda_pm both pass eigenvalue_support's rule,
    lifted norm > SUPPORT_TOL, on the lifted measure of (base_vertex, 0),
    which also gives the (lambda_plus, lambda_minus) support_weights.
    Non-integrality is decided exactly when lam is an integer ((m+lam-1)^2 +
    4m is never a perfect square), and follows from lambda_plus +
    lambda_minus = m + lam + 1 otherwise. Laplacian eigenvalues are at most
    n, so an m with (m+n-1)^2 + 4m > 2**63 - 1, past squarefree_split's
    range, raises ValueError first.
    """
    m, base_vertex = _index(m), _index(base_vertex)
    if g.n < 2 or not is_connected(g):
        raise ValueError("witness needs a connected base graph on >= 2 vertices")
    if m < 1:
        raise ValueError("satellite order m must be >= 1")
    if (m + g.n - 1) ** 2 + 4 * m > MAX_EXACT:
        raise ValueError(f"satellite order m={m} is too large: (m+n-1)^2 + 4m exceeds 2**63 - 1")
    if not (0 <= base_vertex < g.n):
        raise ValueError(f"base vertex {base_vertex} out of range")

    d = eigendecompose(laplacian(g))
    lifted = _lifted_measure(_pair_measure(d, base_vertex, base_vertex), m)
    # Row 0 is every lambda_minus, row 1 every lambda_plus; column 0 is lam = 0.
    certified = np.flatnonzero((lifted.norms[0].reshape(2, -1)[:, 1:] > SUPPORT_TOL).all(axis=0))
    if not certified.size:
        raise ArithmeticError("no certified positive support eigenvalue found")
    idx = int(certified[0]) + 1
    (pair,) = _class_c_entries(d.eigenvalues[idx : idx + 1], d.multiplicities[idx : idx + 1], m)
    if pair.delta_sq is not None:
        if pair.c == 1:
            raise ArithmeticError(f"unexpected perfect square {pair.delta_sq}")
        reason = (
            f"(m+lam-1)^2 + 4m = {pair.delta_sq} is not a perfect square, so "
            f"lambda_pm = ({m + round(pair.lam) + 1} +/- sqrt({pair.delta_sq}))/2 are irrational "
            f"support eigenvalues of ({base_vertex},0)"
        )
    else:
        bad = [x for x in (pair.lam_plus, pair.lam_minus) if integer_eigenvalue(x) is None]
        reason = (
            f"base eigenvalue {pair.lam:.12g} is not an integer, so the support "
            f"eigenvalue(s) {', '.join(f'{x:.12g}' for x in bad)} of "
            f"({base_vertex},0) cannot be integers"
        )
    weights = tuple(lifted.uv.reshape(2, -1)[::-1, idx].tolist())  # (lambda_plus, lambda_minus)
    return NoPstWitness(
        base_vertex=base_vertex, m=m, lam=pair.lam, lam_plus=pair.lam_plus, lam_minus=pair.lam_minus,
        delta_sq=pair.delta_sq, support_weights=weights, reason=reason,
    )


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
    two dividing the support gcd, and its cosine targets are all +1. It
    raises ValueError unless check_pst's rule, read on the search's own pair
    measure, certifies PST between u and v in the base and 2^(r+1) | m+1; r
    is derived from the verdict's support, and an r passed in must equal
    it. An entry |<u|F_lam|v>| below SIGN_TOL sets no target: _signable is
    the rule check_pst signs by.

    The scan stops at the first hit; history records the strictly improving
    fidelities along the way. Hits and records are decided on the fidelity
    they report, walk._fidelity, so a hit's reported fidelity meets the
    target. The first _SEARCH_CHUNK ell run exactly, in runs ending at
    _FIRST_RUN_ENDS, so a search that hits early evaluates only the runs
    up to its hit; a run whose largest fidelity is no record skips the
    record pass. Past them, walk._phase_screen on the lifted pair measure
    bounds every fidelity to within tol, one product per _SCREEN_BLOCK
    chunks, and only the ell screened at or above min(best, target) - tol
    (best as of the block's start) run the exact kernel, a block's survivors
    together, in ascending runs of at most _SEARCH_CHUNK. No other ell can be a record
    or a hit, and the kernel gives a time the bits it has in any call, so
    the result is an unscreened scan's. An ell_max whose screen has tol >= 1,
    which rules out no ell, raises ValueError before any evaluation.

    float64 loses about t*eps in the phase t*Delta/2: against 50-digit mpmath
    on cocktail_party(3) with pendant vertices, pair (0, 3), at t = 4*pi*ell
    for ell = 342, 1e6 and 1e7, the value errs by 1.5e-12, 3.0e-9 and 7.6e-8
    and the fidelity by 4.1e-13, 2.9e-9 and 7.1e-8.
    """
    if family not in PGST_FAMILIES:
        raise ValueError(f"family must be one of {PGST_FAMILIES}, got {family!r}")
    ell_max = _index(ell_max)
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if not (0.0 <= target < 1.0):
        raise ValueError("target must lie in [0, 1)")
    measure = _pair_measure(g_decomp, u, v)
    if u == v:
        raise ValueError("PGST is a property of distinct vertices")
    m, pair_weights = cs.m, measure.uv

    if family == "shifted":
        verdict = _pst_verdict(measure, u, v)
        if not verdict.pst:
            raise ValueError(f"shifted family needs PST between base vertices {u} and {v}")
        _, r_support = support_gcd_and_valuation(verdict.support)
        if r is not None and _index(r) != r_support:
            raise ValueError(f"r={r} disagrees with the support value {r_support}")
        r = r_support
        if (m + 1) % (2 ** (r + 1)) != 0:
            raise ValueError(f"shifted family needs 2^(r+1)={2 ** (r + 1)} to divide m+1={m + 1}")
    elif r is not None:
        raise ValueError("r only applies to the shifted family")

    shift = 0.0 if r is None else 2.0 ** (1 - r)
    def time_of(ells: np.ndarray) -> np.ndarray:
        return (4.0 * ells + shift) * math.pi

    lam = g_decomp.eigenvalues
    delta, coef, pluses, _ = _class_c_arrays(lam, m)
    # Every ell_max >= 2**52 fails the range check (lambda_+ > 1), and a larger int overflows a float.
    t_max = time_of(ell_max) if ell_max < 2**52 else math.inf
    _check_phase_range(t_max, float(pluses.max()), f"ell_max={ell_max}")  # lambda_+ >= every rate
    targets = [
        (1.0 if family == "shifted" or w > 0 else -1.0) if _signable(w) else None
        for w in pair_weights.tolist()
    ]
    deltas = delta.tolist()  # the residual loop's Python floats, the bits of delta
    if ell_max > _SEARCH_CHUNK:  # the screen past the exact runs: with tol >= 1 it would prune nothing
        # The lifted amplitudes a_j at lambda_-/+ = (m+1)/2 + omega_j split the kernel's value by
        # cos(x) - i c sin(x) = ((1+c) e^{-ix} + (1-c) e^{ix})/2; the fidelity drops e^{-it(m+1)/2}; S = sum|a_j| =
        # sum|w| as |coef| < 1. t steps 4*pi per ell, so screen(t0s) reads _SEARCH_CHUNK fidelities per chunk start t0.
        # The O(k*eps*S^2) remainder is negligible: t_max*max|omega| > 4*pi*2048, as max|omega| >= Delta/2 >= 1.
        omega = 0.5 * np.concatenate((lam - delta, lam + delta))
        screen, tol = _phase_screen(_lifted_measure(measure, m).uv, omega, 4.0 * math.pi, _SEARCH_CHUNK, t_max)
        if tol >= 1.0:
            raise ValueError(f"ell_max={ell_max} is too large: the fidelity screen's tol {tol:.3g} reaches 1")

    def candidates():
        """Ascending runs of at most _SEARCH_CHUNK ell that may hold a record or a hit."""
        start = 1
        for end in _FIRST_RUN_ENDS:
            yield np.arange(start, min(end, ell_max) + 1)
            if ell_max <= end:
                return  # ell_max ends in this run: no screen is built
            start = end + 1
        block = _SEARCH_CHUNK * _SCREEN_BLOCK
        for start in range(1 + _SEARCH_CHUNK, ell_max + 1, block):
            starts = np.arange(start, min(start + block, ell_max + 1), _SEARCH_CHUNK)
            # best_fidelity is read on resuming, after every smaller ell ran.
            keep = screen(time_of(starts.astype(float))) >= min(best_fidelity, target) - tol
            keep[-1, ell_max + 1 - starts[-1] :] = False
            ells = start + np.flatnonzero(keep)  # keep[i, j] is ell start + i*_SEARCH_CHUNK + j
            for i in range(0, len(ells), _SEARCH_CHUNK):
                yield ells[i : i + _SEARCH_CHUNK]

    best_fidelity = -1.0
    history: list[PgstRecord] = []
    for ells in candidates():
        ts = time_of(ells.astype(float))
        if ells[0] == 1:  # the checking wrapper: the corona is checked against the base once per search
            values = corona_transition_values(cs, g_decomp, u, v, ts)
        else:
            values = _corona_kernel(m, lam, delta, coef, pair_weights, ts)
        fidelities = _fidelity(values)
        if fidelities.max() <= best_fidelity:
            continue  # no record, so no hit: best_fidelity < target
        hits = np.nonzero(fidelities >= target)[0]
        last = int(hits[0]) + 1 if hits.size else len(ells)
        running = np.maximum.accumulate(np.concatenate(([best_fidelity], fidelities[:last])))
        new = np.nonzero(fidelities[:last] > running[:-1])[0]
        record_fidelities = fidelities[new].tolist()
        phases = _phases(values[new], record_fidelities)
        for ell, t, f, p in zip(ells[new].tolist(), ts[new].tolist(), record_fidelities, phases):
            residuals = tuple(
                None if tgt is None else abs(math.cos(0.5 * t * dl) - tgt) for dl, tgt in zip(deltas, targets)
            )
            history.append(
                PgstRecord(family=family, r=r, ell=ell, t=t, fidelity=f, phase=p, residuals=residuals)
            )
        best_fidelity = float(running[-1])
        if hits.size:
            break
    return PgstSearchResult(best=history[-1], history=tuple(history), target_met=best_fidelity >= target)


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
    # Of the n(2n-1) vertex pairs, all but the n antipodal pairs (i, i+n) are edges of CP(n):
    # 2n(n-1) edges with none antipodal (u < v, so v - u == n) make exactly CP(n).
    if len(g.edges) != 2 * n * (n - 1) or any(v - u == n for u, v in g.edges):
        raise ValueError("not a cocktail party graph (antipode map is i <-> i+n)")
    # The matching is the row permutation i <-> i+n: P F_j = (-1)^j F_j iff every
    # ||F_j e_{i+n} - (-1)^j F_j e_i||, the block norm of V[i+n] - (-1)^j V[i], is
    # zero, decided by SUPPORT_TOL as every per-block norm is.
    antipode = np.r_[n : 2 * n, 0:n]
    d = eigendecompose(laplacian(g))
    signs = np.repeat((-1.0) ** np.arange(len(d.multiplicities)), d.multiplicities)
    residuals = np.sqrt(_block_sums(d, (d.vectors[antipode] - signs * d.vectors) ** 2))
    return (residuals.max(axis=0) <= SUPPORT_TOL).tolist()


def cocktail_pgst(n: int) -> PgstRecord:
    """Best t = 4*pi*ell record, ell <= 10,000, toward fidelity 0.99 for the
    cocktail party graph on 2n vertices with one pendant vertex per site,
    between an antipodal base pair."""
    n = _index(n)
    if n < 2:
        raise ValueError("cocktail party PGST needs n >= 2")
    g = cocktail_party_graph(n)
    hs = [complete_graph(1)] * g.n
    return pgst_search(*_corona_walk(g, hs), 0, n, "four_pi_ell", ell_max=10_000, target=0.99).best
