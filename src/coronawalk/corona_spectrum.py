"""Closed-form Laplacian spectrum and eigenprojectors of corona products.

For G on n vertices with equal-order satellites H_1..H_n (each on m >= 1
vertices), the corona Laplacian eigenvalues split into three classes:

  (a) the value 1, present iff some satellite is disconnected, with one
      eigenvector per extra satellite component;
  (b) mu + 1 for every nonzero satellite eigenvalue mu, with eigenvectors
      confined to that satellite cell;
  (c) the pair lambda_pm = (m + lam + 1 +/- Delta) / 2 for each eigenvalue
      lam of L(G), where Delta = sqrt((m + lam - 1)^2 + 4m).

Multiplicities always total n(m+1). Distinct classes can land on the same
value (e.g. mu = m from class (b) meets lambda_plus(0) = m + 1); projectors
of colliding values are summed into one eigenspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corona import common_satellite_order
from .graphs import Graph, component_count, degrees, laplacian
from .numtheory import integer_eigenvalue, squarefree_split
from .spectral import CLUSTER_TOL_SCALE, SpectralDecomposition, eigendecompose

# A satellite Laplacian kernel eigenvalue must sit this close to zero.
_KERNEL_TOL = 1e-7


@dataclass(frozen=True)
class ClassA:
    """Eigenvalue 1 from disconnected satellites; multiplicity is the total
    number of satellite components beyond one per cell."""

    present: bool
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

    @property
    def classes(self) -> tuple:
        """All contributing entries: class (a) when present, then (b), (c)."""
        head = (self.class_a,) if self.class_a.present else ()
        return head + self.class_b + self.class_c

    def total_multiplicity(self) -> int:
        return (
            self.class_a.multiplicity
            + sum(b.multiplicity for b in self.class_b)
            + 2 * sum(c.multiplicity for c in self.class_c)
        )

    def eigenvalue_list(self, merge_tol: float = 1e-9) -> list:
        """(value, multiplicity) pairs ascending, colliding values merged."""
        raw = []
        if self.class_a.present:
            raw.append((1.0, self.class_a.multiplicity))
        for b in self.class_b:
            raw.append((b.value, b.multiplicity))
        for c in self.class_c:
            raw.append((c.lam_minus, c.multiplicity))
            raw.append((c.lam_plus, c.multiplicity))
        raw.sort()
        merged = []
        for value, mult in raw:
            if merged and value - merged[-1][0] <= merge_tol:
                prev_v, prev_m = merged[-1]
                total = prev_m + mult
                merged[-1] = ((prev_v * prev_m + value * mult) / total, total)
            else:
                merged.append((value, mult))
        return merged


def lambda_pm(lam: float, m: int) -> tuple[float, float]:
    """The class (c) eigenvalue pair (lambda_plus, lambda_minus).

    lambda_minus is evaluated as 2*lam / (m + lam + 1 + Delta), which agrees
    with (m + lam + 1 - Delta)/2 via lambda_plus * lambda_minus = lam but
    avoids cancellation for small lam.
    """
    if m < 1:
        raise ValueError("satellite order m must be >= 1")
    lam = float(lam)
    delta = math.sqrt((m + lam - 1.0) ** 2 + 4.0 * m)
    plus = 0.5 * (m + lam + 1.0 + delta)
    minus = 2.0 * lam / (m + lam + 1.0 + delta)
    return plus, minus


def _satellite_decompositions(hs) -> dict:
    """Decompose the Laplacian of each distinct satellite once.

    Maps every distinct satellite (Graph equality ignores labels) to
    eigendecompose(laplacian(h)). Each decomposition is checked to hold the
    zero eigenvalue at index 0 with multiplicity the exact component count.
    """
    out = {}
    for h in hs:
        if h in out:
            continue
        d = eigendecompose(laplacian(h))
        if abs(float(d.eigenvalues[0])) > _KERNEL_TOL:
            raise ArithmeticError("satellite Laplacian kernel not found")
        if d.multiplicities[0] != component_count(h):
            raise ArithmeticError("satellite kernel multiplicity disagrees with component count")
        out[h] = d
    return out


def _class_b_pieces(sat_decomps, cluster_tol: float):
    """Nonzero satellite eigenvalues pooled across cells: list of
    (mu, [(cell, projector_index)], multiplicity), clustered on mu."""
    entries = []
    for ell, d in enumerate(sat_decomps):
        for i in range(1, len(d.eigenvalues)):
            entries.append((float(d.eigenvalues[i]), ell, i, d.multiplicities[i]))
    entries.sort()
    clusters = []
    for mu, ell, i, mult in entries:
        if clusters and mu - clusters[-1][-1][0] <= cluster_tol:
            clusters[-1].append((mu, ell, i, mult))
        else:
            clusters.append([(mu, ell, i, mult)])
    out = []
    for group in clusters:
        total = sum(mult for _, _, _, mult in group)
        mu = sum(mu * mult for mu, _, _, mult in group) / total
        out.append((mu, [(ell, i) for _, ell, i, _ in group], total))
    return out


def _corona_cluster_tol(g: Graph, satellites, m: int) -> float:
    """Default cluster tolerance, scaled by the max-norm of the corona
    Laplacian (its largest degree), from the degrees of the base and of the
    distinct satellites alone."""
    base = float(np.max(degrees(g))) + m
    sat = max(float(np.max(degrees(h))) for h in satellites) + 1.0
    return CLUSTER_TOL_SCALE * max(1.0, base, sat)


def corona_spectrum(g: Graph, hs) -> CoronaSpectrum:
    """Enumerate the closed-form corona eigenvalue classes."""
    hs = tuple(hs)
    m = common_satellite_order(g, hs)
    by_graph = _satellite_decompositions(hs)
    sat_decomps = [by_graph[h] for h in hs]
    a_mult = sum(d.multiplicities[0] - 1 for d in sat_decomps)
    class_a = ClassA(present=a_mult > 0, multiplicity=a_mult)

    cluster_tol = _corona_cluster_tol(g, by_graph, m)
    class_b = []
    for mu, members, mult in _class_b_pieces(sat_decomps, cluster_tol):
        cells = tuple(sorted({ell for ell, _ in members}))
        class_b.append(ClassB(mu=mu, value=mu + 1.0, satellites=cells, multiplicity=mult))

    g_decomp = eigendecompose(laplacian(g))
    class_c = []
    for lam, mult in zip(g_decomp.eigenvalues, g_decomp.multiplicities):
        plus, minus = lambda_pm(float(lam), m)
        lam_int = integer_eigenvalue(float(lam))
        if lam_int is not None:
            delta_sq = (m + lam_int - 1) ** 2 + 4 * m
            split = squarefree_split(delta_sq)
            s, c = split.s, split.c
        else:
            delta_sq = s = c = None
        class_c.append(
            ClassC(
                lam=float(lam),
                lam_plus=plus,
                lam_minus=minus,
                multiplicity=mult,
                delta_sq=delta_sq,
                s=s,
                c=c,
            )
        )
    return CoronaSpectrum(m=m, class_a=class_a, class_b=tuple(class_b), class_c=tuple(class_c))


def corona_eigenprojectors(g: Graph, hs, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Closed-form spectral decomposition of the corona Laplacian.

    Assembles, per class: (a) blocks F_0(H_l) - J_m/m on each disconnected
    satellite cell at value 1; (b) F_mu(H_l) on its cell at value mu + 1;
    (c) F_lam(G) (x) w w^T/||w||^2 with w = (1 - lambda_pm, 1, ..., 1) at
    value lambda_pm. Values that land together within cluster_tol are merged
    into a single eigenspace, so the result is a genuine decomposition into
    distinct eigenvalues.

    The values are clustered first, then the (k, dim, dim) projector stack is
    allocated once and every piece is written or added into its slab in
    place, in ascending value order; no dim x dim temporary is formed. Each
    distinct satellite is eigendecomposed once per call, and nothing is kept
    between calls.
    """
    hs = tuple(hs)
    m = common_satellite_order(g, hs)
    n = g.n
    stride = m + 1
    dim = n * stride
    by_graph = _satellite_decompositions(hs)
    sat_decomps = [by_graph[h] for h in hs]
    if cluster_tol is None:
        cluster_tol = _corona_cluster_tol(g, by_graph, m)
    elif cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")

    # (value, multiplicity, satellite blocks [(cell, m x m)], class (c) factors)
    pieces = []

    a_mult = sum(d.multiplicities[0] - 1 for d in sat_decomps)
    if a_mult > 0:
        blocks = [
            (ell, d.projectors[0] - 1.0 / m)
            for ell, d in enumerate(sat_decomps)
            if d.multiplicities[0] > 1
        ]
        pieces.append((1.0, a_mult, blocks, None))

    for mu, members, mult in _class_b_pieces(sat_decomps, cluster_tol):
        # Sum one cell's projectors before adding them to the slab, so the
        # additions happen in the same order as summing whole pieces.
        cells = {}
        for ell, i in members:
            proj = sat_decomps[ell].projectors[i]
            cells[ell] = cells[ell] + proj if ell in cells else proj
        pieces.append((mu + 1.0, mult, list(cells.items()), None))

    g_decomp = eigendecompose(laplacian(g))
    for lam, mult, f_lam in zip(g_decomp.eigenvalues, g_decomp.multiplicities, g_decomp.projectors):
        for value in lambda_pm(float(lam), m):
            w = np.ones(stride)
            w[0] = 1.0 - value
            pieces.append((value, mult, (), (f_lam, np.outer(w, w) / (w @ w))))

    pieces.sort(key=lambda p: p[0])
    values, mults, slab_of = [], [], []
    for value, mult, _, _ in pieces:
        if values and value - values[-1] <= cluster_tol:
            total = mults[-1] + mult
            values[-1] = (values[-1] * mults[-1] + value * mult) / total
            mults[-1] = total
        else:
            values.append(value)
            mults.append(mult)
        slab_of.append(len(values) - 1)

    projectors = np.zeros((len(values), dim, dim))
    for j, ((_, _, blocks, factors), k) in enumerate(zip(pieces, slab_of)):
        slab = projectors[k]
        for ell, block in blocks:
            cell = slice(ell * stride + 1, (ell + 1) * stride)
            slab[cell, cell] += block
        if factors is None:
            continue
        f_lam, ww = factors
        view = slab.reshape(n, stride, n, stride)
        if j == 0 or slab_of[j - 1] != k:
            np.multiply(f_lam[:, None, :, None], ww[None, :, None, :], out=view)
        else:
            for u in range(n):  # one base row at a time: no dim x dim temporary
                view[u] += f_lam[u, None, :, None] * ww[:, None, :]

    return SpectralDecomposition(
        dim=dim,
        eigenvalues=np.array(values),
        projectors=projectors,
        multiplicities=tuple(mults),
    )
