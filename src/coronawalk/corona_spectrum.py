"""Closed-form Laplacian spectrum and eigenprojectors of corona products.

For G on n vertices with equal-order satellites H_1..H_n (each on m >= 1
vertices), the corona Laplacian eigenvalues split into three classes:

  (a) the value 1, present iff some satellite is disconnected, with one
      eigenvector per extra satellite component;
  (b) mu + 1 for every nonzero satellite eigenvalue mu, with eigenvectors
      confined to that satellite cell;
  (c) the pair lambda_pm = (m + lam + 1 +/- Delta) / 2 for each eigenvalue
      lam of L(G), where Delta = sqrt((m + lam - 1)^2 + 4m).

Multiplicities always total n(m+1). The classes are ordered: since
(1 - lambda_plus)(1 - lambda_minus) = -m and lambda_pm increase strictly in
lam, every lambda_minus < 1 < mu + 1 <= m + 1 <= lambda_plus. The only values
that can coincide are mu = m from class (b) and lambda_plus(0) = m + 1; their
eigenvectors span one eigenspace.

corona_spectrum and corona_eigenprojectors share one setup, _corona_parts;
eigenvalue_list and corona_eigenprojectors merge values by one rule,
_merge_pieces, so the two agree exactly. Delta, (m+lam-1)/Delta and
lambda_pm are evaluated in one place, _class_c_arrays, for every class (c)
reader here and in walk and statetransfer, and _class_c_entries alone builds
ClassC entries, for corona_spectrum and the no-PST witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corona import common_satellite_order
from .graphs import Graph, component_count, laplacian
from .numtheory import integer_eigenvalue, squarefree_split
from .spectral import SpectralDecomposition, _cluster, eigendecompose


@dataclass(frozen=True)
class ClassA:
    """Eigenvalue 1 from disconnected satellites; multiplicity is the total
    number of satellite components beyond one per cell."""

    multiplicity: int


@dataclass(frozen=True)
class ClassB:
    """Eigenvalue mu + 1 from a nonzero satellite eigenvalue mu; satellites
    lists the (0-based) base vertices whose satellite carries mu."""

    mu: float
    value: float
    satellites: tuple
    multiplicity: int


@dataclass(frozen=True)
class ClassC:
    """Eigenvalue pair lambda_pm for one distinct eigenvalue lam of L(G).

    Each of lam_plus, lam_minus inherits the multiplicity of lam. When lam
    is an integer, delta_sq = (m+lam-1)^2 + 4m is kept exactly and split as
    delta_sq = s^2 * c with c square-free, so Delta = s*sqrt(c); otherwise
    those three fields are None.
    """

    lam: float
    lam_plus: float
    lam_minus: float
    multiplicity: int
    delta_sq: int | None
    s: int | None
    c: int | None


@dataclass(frozen=True)
class CoronaSpectrum:
    """The three eigenvalue classes of a corona Laplacian.

    class_b is ordered by ascending value, class_c by ascending lam.
    """

    m: int
    class_a: ClassA
    class_b: tuple
    class_c: tuple

    def total_multiplicity(self) -> int:
        return (
            self.class_a.multiplicity
            + sum(b.multiplicity for b in self.class_b)
            + 2 * sum(c.multiplicity for c in self.class_c)
        )

    def eigenvalue_list(self) -> list:
        """(value, multiplicity) pairs ascending, merged by _merge_pieces: the
        rule corona_eigenprojectors uses, so the list equals that
        decomposition's eigenvalues and multiplicities exactly."""
        b = [(x.mu, x.multiplicity) for x in self.class_b]
        c = [(x.lam_plus, x.lam_minus, x.multiplicity) for x in self.class_c]
        return _merge_pieces(self.m, self.class_a.multiplicity, b, c)


def _class_c_arrays(lam, m: int):
    """(Delta, coef, lambda_plus, lambda_minus) for a float or an array of
    base eigenvalues lam: Delta = sqrt((m + lam - 1)^2 + 4m), coef =
    (m + lam - 1)/Delta, and lambda_minus as 2*lam / (m + lam + 1 + Delta),
    which agrees with (m + lam + 1 - Delta)/2 via lambda_plus * lambda_minus
    = lam but avoids cancellation for small lam. Every step is one correctly
    rounded ufunc, so an entry has the same bits alone or in any array."""
    lam = np.asarray(lam, dtype=float)
    shifted = m + lam - 1.0
    delta = np.sqrt(np.square(shifted) + 4.0 * m)
    total = m + lam + 1.0 + delta
    return delta, shifted / delta, 0.5 * total, 2.0 * lam / total


def lambda_pm(lam: float, m: int) -> tuple[float, float]:
    """The class (c) eigenvalue pair (lambda_plus, lambda_minus), from
    _class_c_arrays."""
    if m < 1:
        raise ValueError("satellite order m must be >= 1")
    _, _, plus, minus = _class_c_arrays(lam, m)
    return float(plus), float(minus)


def _class_c_entries(d: SpectralDecomposition, m: int) -> tuple:
    """The class (c) entry of every distinct eigenvalue lam of the base
    decomposition d, ascending: its lambda_pm pair from _class_c_arrays, and
    delta_sq = (m+lam-1)^2 + 4m kept exactly and split square-free when lam
    is an integer."""
    _, _, plus, minus = _class_c_arrays(d.eigenvalues, m)
    entries = []
    for lam, p, q, k in zip(d.eigenvalues.tolist(), plus.tolist(), minus.tolist(), d.multiplicities):
        lam_int = integer_eigenvalue(lam)
        delta_sq = s = c = None
        if lam_int is not None:
            delta_sq = (m + lam_int - 1) ** 2 + 4 * m
            split = squarefree_split(delta_sq)
            s, c = split.s, split.c
        entries.append(ClassC(lam=lam, lam_plus=p, lam_minus=q, multiplicity=k, delta_sq=delta_sq, s=s, c=c))
    return tuple(entries)


def _satellite_decompositions(hs) -> tuple:
    """Decompose the Laplacian of each distinct satellite once.

    Returns the map from every distinct satellite (Graph equality compares n
    and edges) to eigendecompose(laplacian(h)), and the largest entry of
    those Laplacians, which is the largest satellite degree. Each
    decomposition is checked to hold the zero eigenvalue at index 0 with
    multiplicity the exact component count.
    """
    out = {}
    norm = 0.0
    for h in hs:
        if h in out:
            continue
        lap = laplacian(h)
        norm = max(norm, float(np.max(lap)))
        d = eigendecompose(lap)
        if integer_eigenvalue(d.eigenvalues[0]) != 0:
            raise ArithmeticError("satellite Laplacian kernel not found")
        if d.multiplicities[0] != component_count(h):
            raise ArithmeticError("satellite kernel multiplicity disagrees with component count")
        out[h] = d
    return out, norm


def _class_b_pieces(sat_decomps, norm: float):
    """Nonzero satellite eigenvalues pooled across cells: list of
    (mu, [(cell, projector_index)], multiplicity), clustered on mu by
    _cluster at the gap of a matrix of max-norm norm."""
    entries = sorted(
        (float(d.eigenvalues[i]), ell, i, d.multiplicities[i])
        for ell, d in enumerate(sat_decomps)
        for i in range(1, len(d.eigenvalues))
    )
    mus, mults, index = _cluster([e[0] for e in entries], [e[3] for e in entries], norm)
    members = [[] for _ in mus]
    for (_, ell, i, _), k in zip(entries, index):
        members[k].append((ell, i))
    return list(zip(mus, members, mults))


def _corona_parts(g: Graph, hs):
    """The setup of both corona functions, each step run once: the satellites,
    their order m, the distinct satellite decompositions, the class (a)
    multiplicity, the class (b) pieces and g_decomp. Class (b) pools at the
    gap eigendecompose gives the direct sum of the satellite Laplacians."""
    hs = tuple(hs)
    m = common_satellite_order(g, hs)
    by_graph, norm = _satellite_decompositions(hs)
    sat_decomps = [by_graph[h] for h in hs]
    a_mult = sum(d.multiplicities[0] - 1 for d in sat_decomps)
    b_pieces = _class_b_pieces(sat_decomps, norm)
    g_decomp = eigendecompose(laplacian(g))
    return hs, m, by_graph, a_mult, b_pieces, g_decomp


def _merge_pieces(m: int, a_mult: int, b, c) -> list:
    """The one merge rule for corona eigenvalues, from (mu, mult) per class
    (b) piece ascending and (plus, minus, mult) per base eigenvalue ascending.
    Returns the (value, mult) pairs ascending, in class order: every minus,
    then (1, a_mult) if a_mult > 0, each mu + 1, then every plus.

    The one coincidence, mu = m with lambda_plus(0) = m + 1, is decided
    exactly: the two pieces merge, at their mults-weighted mean, iff the
    last mu rounds to m. mu = m iff the satellite's complement is
    disconnected; otherwise lambda_max(H) = m - a(complement) <= m - 4/m^2 by
    Mohar's bound a >= 4/(n diam) on the algebraic connectivity, which is
    more than INTEGRALITY_TOL below m for every m <= 6000."""
    pairs = [(minus, k) for _, minus, k in c] + ([(1.0, a_mult)] if a_mult > 0 else [])
    pairs += [(mu + 1.0, k) for mu, k in b]
    plus = [(x, k) for x, _, k in c]
    if b and integer_eigenvalue(b[-1][0]) == m:
        (v, k), (w, q) = pairs.pop(), plus.pop(0)
        pairs.append(((v * k + w * q) / (k + q), k + q))
    return pairs + plus


def _corona_walk(g: Graph, hs) -> tuple:
    """The pair corona walks are evaluated from: corona_spectrum(g, hs) and
    g_decomp, the L(G) decomposition it was built from, at one base eigensolve."""
    _, m, _, a_mult, b_pieces, g_decomp = _corona_parts(g, hs)
    class_b = []
    for mu, members, k in b_pieces:
        cells = tuple(sorted({ell for ell, _ in members}))
        class_b.append(ClassB(mu=mu, value=mu + 1.0, satellites=cells, multiplicity=k))
    class_c = _class_c_entries(g_decomp, m)
    class_a = ClassA(multiplicity=a_mult)
    return CoronaSpectrum(m=m, class_a=class_a, class_b=tuple(class_b), class_c=class_c), g_decomp


def corona_spectrum(g: Graph, hs) -> CoronaSpectrum:
    """Enumerate the closed-form corona eigenvalue classes."""
    return _corona_walk(g, hs)[0]


def corona_eigenprojectors(g: Graph, hs) -> SpectralDecomposition:
    """Closed-form spectral decomposition of the corona Laplacian.

    Writes the eigenvector columns of each class into one zeroed dim x dim
    array through its (cell, w, column) view: (a) per disconnected satellite
    cell, an orthonormal basis of its satellite kernel with the all-ones
    direction projected out, at value 1; (b) the eigenvector block of
    F_mu(H_l) in its cell's satellite rows, at value mu + 1; (c) B_lam (x)
    w/||w|| with B_lam the base eigenvector block of lam and w = (1 -
    lambda_pm, 1, ..., 1), at value lambda_pm, one broadcast per side over
    every base column. The parts come from _corona_parts, the setup of
    corona_spectrum, and the values are merged by _merge_pieces, the rule of
    CoronaSpectrum.eigenvalue_list. The only colliding pieces, mu = m and
    lambda_plus(0), share one eigenspace, so the result is a genuine
    decomposition into distinct eigenvalues; its projectors are built only
    when read. Nothing is kept between calls.
    """
    hs, m, by_graph, a_mult, b_pieces, g_decomp = _corona_parts(g, hs)
    n, stride = g.n, m + 1
    dim = n * stride
    sat_blocks = {h: d.blocks() for h, d in by_graph.items()}
    _, _, plus, minus = _class_c_arrays(g_decomp.eigenvalues, m)
    vectors = np.zeros((dim, dim))
    cells = vectors.reshape(n, stride, dim)  # cells[ell, w] is the row of vertex (ell, w)

    def class_c_side(values, cols: slice) -> None:
        w = np.ones((stride, n))
        w[0] = np.repeat(1.0 - values, g_decomp.multiplicities)
        cells[:, :, cols] = g_decomp.vectors[:, None, :] * (w / np.linalg.norm(w, axis=0))

    # Columns in the class order of _merge_pieces: a merged eigenspace is two
    # adjacent pieces, so the columns are written in turn.
    class_c_side(minus, slice(0, n))
    col = n
    for ell, h in enumerate(hs):
        kernel = sat_blocks[h][0]
        if kernel.shape[1] > 1:
            # Class (a): the ones direction in kernel coordinates; complete it
            # to an orthonormal basis and keep the other columns.
            ones = kernel.T @ np.full(m, 1.0 / np.sqrt(m))
            basis = np.linalg.qr(ones[:, None], mode="complete")[0][:, 1:]
            cells[ell, 1:, col : col + basis.shape[1]] = kernel @ basis
            col += basis.shape[1]
    for _, members, _ in b_pieces:
        for ell, i in members:
            block = sat_blocks[hs[ell]][i]
            cells[ell, 1:, col : col + block.shape[1]] = block
            col += block.shape[1]
    class_c_side(plus, slice(col, dim))

    c_values = list(zip(plus.tolist(), minus.tolist(), g_decomp.multiplicities))  # walked twice
    values, mults = zip(*_merge_pieces(m, a_mult, [(mu, mult) for mu, _, mult in b_pieces], c_values))
    return SpectralDecomposition(
        eigenvalues=np.array(values),
        vectors=vectors,
        multiplicities=mults,
    )
