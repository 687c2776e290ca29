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

corona_spectrum and corona_eigenprojectors share one setup, _corona_parts:
one eigensolve of L(G), and one np.linalg.eigh over the (k, m, m) stack of
the k distinct satellite Laplacians, each row clustered by the rule of
eigendecompose and pooled into class (b) from those arrays. eigenvalue_list
and corona_eigenprojectors merge values by one rule, _merge_pieces, so the
two agree exactly. Delta, (m+lam-1)/Delta and lambda_pm are evaluated in one
place, _class_c_arrays, for every class (c) reader here and in walk and
statetransfer; ClassC entries only in _class_c_entries (corona_spectrum, the
no-PST witness); and a base pair's measure lifted onto lambda_pm only in
_lifted_measure (the no-PST witness, the PGST screen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corona import _satellite_order
from .graphs import Graph, _laplacian_stack, component_count, laplacian
from .numtheory import integer_eigenvalue, squarefree_split
from .spectral import SpectralDecomposition, _cluster, _eigh, _PairMeasure, eigendecompose


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


def _lifted_measure(measure: _PairMeasure, m: int) -> _PairMeasure:
    """The measure of base vertices (u, 0), (v, 0) in a corona of satellite order m from the base
    pair's, on every lambda_minus, then every lambda_plus: B_lam (x) w/||w|| gives <u|F_lam|v> the
    share (1 -/+ coef)/2 = (1 - x)^2/((1 - x)^2 + m) at x = lambda_pm, and the norms its square root.
    The lambda_minus share is m/(Delta^2 (1 + coef)/2), as 1 - coef cancels when lam grows."""
    delta, coef, plus, minus = _class_c_arrays(measure.eigenvalues, m)
    share = 0.5 * (1.0 + coef)
    share = np.concatenate((m / (np.square(delta) * share), share))
    uv, norms = (np.concatenate((x, x), axis=-1) for x in (measure.uv, measure.norms))
    return _PairMeasure(np.concatenate((minus, plus)), uv * share, norms * np.sqrt(share))


def _class_c_entries(lams: np.ndarray, mults, m: int) -> tuple:
    """The class (c) entry of each distinct base eigenvalue lams[i] of
    multiplicity mults[i]: its lambda_pm pair from _class_c_arrays, and
    delta_sq = (m+lam-1)^2 + 4m kept exactly and split square-free when lam
    is an integer."""
    _, _, plus, minus = _class_c_arrays(lams, m)
    entries = []
    for lam, p, q, k in zip(lams.tolist(), plus.tolist(), minus.tolist(), mults):
        lam_int = integer_eigenvalue(lam)
        delta_sq = s = c = None
        if lam_int is not None:
            delta_sq = (m + lam_int - 1) ** 2 + 4 * m
            split = squarefree_split(delta_sq)
            s, c = split.s, split.c
        entries.append(ClassC(lam=lam, lam_plus=p, lam_minus=q, multiplicity=k, delta_sq=delta_sq, s=s, c=c))
    return tuple(entries)


class _Satellites(NamedTuple):
    """The distinct satellites, decomposed by one stacked eigensolve: cell
    ell's satellite is stack row rows[ell], and row r holds
    eigendecompose(laplacian(h)) bit for bit, as vectors[r] and the distinct
    eigenvalues and multiplicities at first[r]:first[r + 1]. norm is the
    largest satellite degree, the largest entry of the Laplacians."""

    rows: np.ndarray
    vectors: np.ndarray
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    first: np.ndarray
    norm: float


class _Pooled(NamedTuple):
    """The class (b) pieces. Entry e, in (mu, cell, index) order, is the
    satellite eigenvalue clusters[e] of cell cells[e]; piece j, of value
    mus[j] and multiplicity multiplicities[j], holds entries bounds[j]:bounds[j + 1]."""

    mus: np.ndarray
    multiplicities: np.ndarray
    bounds: np.ndarray
    cells: np.ndarray
    clusters: np.ndarray


def _satellite_decompositions(hs, m: int) -> _Satellites:
    """One eigensolve over the stacked Laplacians of the distinct satellites
    (Graph equality compares n and edges), each checked to hold the zero
    eigenvalue at index 0 with multiplicity the exact component count."""
    stack_rows = {}
    rows = np.array([stack_rows.setdefault(h, len(stack_rows)) for h in hs])
    w, vectors, norm = _eigh(_laplacian_stack(list(stack_rows), m))
    eigenvalues, mults, bounds = _cluster(w, norm[:, None])
    first = bounds.searchsorted(np.arange(0, w.size + 1, m))  # each row starts a cluster
    for h, zero, k in zip(stack_rows, eigenvalues[first[:-1]].tolist(), mults[first[:-1]].tolist()):
        if integer_eigenvalue(zero) != 0:
            raise ArithmeticError("satellite Laplacian kernel not found")
        if k != component_count(h):
            raise ArithmeticError("satellite kernel multiplicity disagrees with component count")
    return _Satellites(rows, vectors, eigenvalues, mults, first, max(norm.tolist()))


def _class_b_pieces(sats: _Satellites) -> _Pooled:
    """Nonzero satellite eigenvalues pooled across cells, sorted by
    (mu, cell, index) and clustered on mu at the gap of max-norm sats.norm."""
    if sats.eigenvalues.size == sats.first.size - 1:  # one eigenvalue per satellite: all edgeless
        none = np.zeros(0, dtype=int)
        return _Pooled(np.zeros(0), none, np.zeros(1, dtype=int), none, none)
    firsts = sats.first[sats.rows]
    counts = sats.first[sats.rows + 1] - firsts - 1  # nonzero eigenvalues per cell
    cells, offsets = (np.arange(counts.max()) < counts[:, None]).nonzero()  # in (cell, index) order
    clusters = firsts[cells] + offsets + 1
    order = sats.eigenvalues[clusters].argsort(kind="stable")  # ties keep (cell, index) order
    cells, clusters = cells[order], clusters[order]
    means, totals, bounds = _cluster(sats.eigenvalues[clusters], sats.norm, sats.multiplicities[clusters])
    return _Pooled(means, totals, bounds, cells, clusters)


def _corona_parts(g: Graph, hs):
    """The setup of both corona functions, each step run once: the satellite
    order m, the distinct satellite decompositions, the class (a)
    multiplicity, the class (b) pieces and g_decomp. Class (b) pools at the
    gap eigendecompose gives the direct sum of the satellite Laplacians."""
    hs = tuple(hs)
    m = _satellite_order(g, hs)
    sats = _satellite_decompositions(hs, m)
    a_mult = int(sats.multiplicities[sats.first[sats.rows]].sum()) - len(hs)
    pooled = _class_b_pieces(sats)
    g_decomp = eigendecompose(laplacian(g))
    return m, sats, a_mult, pooled, g_decomp


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
    m, _, a_mult, pooled, g_decomp = _corona_parts(g, hs)
    bounds, cells = pooled.bounds.tolist(), pooled.cells.tolist()
    class_b = tuple(
        ClassB(mu=mu, value=mu + 1.0, satellites=tuple(sorted(set(cells[a:b]))), multiplicity=k)
        for mu, k, a, b in zip(pooled.mus.tolist(), pooled.multiplicities.tolist(), bounds, bounds[1:])
    )
    class_c = _class_c_entries(g_decomp.eigenvalues, g_decomp.multiplicities, m)
    class_a = ClassA(multiplicity=a_mult)
    return CoronaSpectrum(m=m, class_a=class_a, class_b=class_b, class_c=class_c), g_decomp


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
    m, sats, a_mult, pooled, g_decomp = _corona_parts(g, hs)
    n, stride = g.n, m + 1
    dim = n * stride
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
    kernel_mults = sats.multiplicities[sats.first[:-1]].tolist()
    class_a = {}  # stack row r -> its class (a) columns, shared by every cell of that satellite
    for ell, r in enumerate(sats.rows.tolist()):
        if kernel_mults[r] > 1:
            if r not in class_a:
                # Class (a): the ones direction in kernel coordinates; complete it
                # to an orthonormal basis and keep the other columns.
                kernel = sats.vectors[r, :, : kernel_mults[r]]
                ones = kernel.T @ np.full(m, 1.0 / np.sqrt(m))
                class_a[r] = kernel @ np.linalg.qr(ones[:, None], mode="complete")[0][:, 1:]
            cells[ell, 1:, col : col + kernel_mults[r] - 1] = class_a[r]
            col += kernel_mults[r] - 1
    # Class (b): each entry's satellite eigenvector columns, in one write.
    # Flat stack column j is vectors[j // m, :, j % m]; a cluster's are consecutive.
    b_mults = sats.multiplicities[pooled.clusters]
    starts = (sats.multiplicities.cumsum() - sats.multiplicities)[pooled.clusters]
    source = np.arange(b_mults.sum()) + np.repeat(starts - (b_mults.cumsum() - b_mults), b_mults)
    cols = np.arange(col, col + len(source))
    cells[np.repeat(pooled.cells, b_mults), 1:, cols] = sats.vectors[source // m, :, source % m]
    class_c_side(plus, slice(col + len(source), dim))

    c_values = list(zip(plus.tolist(), minus.tolist(), g_decomp.multiplicities))  # walked twice
    b_values = list(zip(pooled.mus.tolist(), pooled.multiplicities.tolist()))
    values, mults = zip(*_merge_pieces(m, a_mult, b_values, c_values))
    return SpectralDecomposition(
        eigenvalues=np.array(values),
        vectors=vectors,
        multiplicities=mults,
    )
