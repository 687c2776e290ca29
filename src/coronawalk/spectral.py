"""Symmetric eigendecomposition into distinct eigenvalues and blocks of
orthonormal eigenvectors, plus eigenvalue supports and strong cospectrality
of vertex pairs. With F_i = B_i B_i^T, projector entries and column norms
are row sums over a block B_i (_block_sums, which reads the block starts a
decomposition computes once); every pair entry <u|F_i|v> and norm the
package reads comes from one reduction, _pair_measure, so no library
computation builds the (k, dim, dim) stack. The projectors field builds
it on demand, for `spectrum --projectors`, benchmark checks and test oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .graphs import _index

# The one zero test for a per-block norm ||F_lambda x||: the support norm ||F_lambda e_u||
# and the cospectrality residual ||F_lambda e_u -/+ F_lambda e_v||. Projector entries of
# desk-scale graphs are rationals or quadratic irrationals bounded well away from 0.
SUPPORT_TOL = 1e-8

# Eigenvalues whose gap is at most this (scaled by the matrix max-norm) are
# clustered into one eigenspace.
CLUSTER_TOL_SCALE = 1e-8


class _Projectors:
    """The projectors field of SpectralDecomposition: a stack passed to the
    constructor (or to dataclasses.replace) is kept as given; otherwise the
    first read builds it from the eigenvector blocks and caches it."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return None  # the field default: build on first read
        stack = obj.__dict__[self.slot]
        if stack is None:
            stack = np.empty((len(obj.multiplicities), obj.dim, obj.dim))
            for proj, block in zip(stack, obj.blocks()):
                full = block @ block.T
                proj[...] = (full + full.T) / 2.0
            obj.__dict__[self.slot] = stack
        return stack

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct ascending eigenvalues with orthonormal eigenvectors.

    vectors is dim x dim; its columns are grouped by ascending eigenvalue,
    multiplicities[i] of them spanning the eigenspace of eigenvalues[i].
    projectors[i] is the dim x dim symmetric projector onto that eigenspace;
    no library computation, nor repr, reads the (k, dim, dim) stack, which is
    built from vectors on first read unless one was passed in. dataclasses.replace
    reads it, so the copy carries this stack unless projectors=None is passed too.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    multiplicities: tuple
    projectors: np.ndarray = _Projectors()

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __repr__(self) -> str:  # not the dataclass repr, which reads projectors
        return f"SpectralDecomposition({self.eigenvalues!r}, {self.vectors!r}, {self.multiplicities!r})"

    @cached_property
    def _starts(self) -> np.ndarray:
        """The first column of each block, computed once per decomposition."""
        starts = np.fromiter(accumulate(self.multiplicities, initial=0), int, len(self.multiplicities))
        starts.flags.writeable = False  # one array serves every reduction and blocks()
        return starts

    def blocks(self) -> list:
        """Per eigenvalue, its dim x multiplicity block of eigenvector
        columns, as views of vectors."""
        return [self.vectors[:, a : a + mult] for a, mult in zip(self._starts.tolist(), self.multiplicities)]


@dataclass(frozen=True)
class SupportInfo:
    """Eigenvalue support of a vertex: the eigenvalue indices i with
    ||F_i e_vertex|| above SUPPORT_TOL, plus the weight <u|F_i|u> for every
    eigenvalue (the weights sum to 1)."""

    vertex: int
    support: tuple
    weights: tuple


@dataclass(frozen=True)
class CospectralityReport:
    """Per-eigenvalue sign comparison of F e_u against F e_v.

    signs[i] is +1 or -1 (the minimizer of ||F_i e_u - sign * F_i e_v||), or
    None when both projections vanish and the sign is arbitrary. Where
    F_i e_u is orthogonal to F_i e_v the two residuals are equal in exact
    arithmetic, so the sign there is a rounding tie and carries no meaning;
    such an eigenvalue always fails the residual test.
    """

    u: int
    v: int
    strongly_cospectral: bool
    signs: tuple


def _cluster(values, norm, mults=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster ascending values by single linkage: neighbours whose gap is at
    most tol = CLUSTER_TOL_SCALE * max(1, norm) share a cluster, so a chain of
    small gaps is one cluster however long it gets. norm is the max-norm of
    the matrix whose eigenvalues the values are; the rows of a 2-D values are
    clustered apart, each at its entry of the column norm. mults defaults to
    ones.

    Returns (means, totals, bounds): per cluster, in row order, the
    mults-weighted mean np.add.reduce(values[a:b] * mults[a:b]) / total
    (a one-member cluster needs no reduction) and the total multiplicity,
    and the flat index where each cluster starts, then values.size. This is
    the one clustering rule of the package. The corona merge
    (corona_spectrum._merge_pieces) needs no tolerance: it follows the class
    order.
    """
    split = values[..., 1:] - values[..., :-1] > CLUSTER_TOL_SCALE * np.maximum(1.0, norm)
    weighted = values.ravel() if mults is None else (values * mults).ravel()  # values * 1 is values
    if split.all():  # nothing merges
        totals = np.ones(values.size, dtype=int) if mults is None else mults.ravel()
        return weighted / totals, totals, np.arange(values.size + 1)
    new = np.ones(values.size + 1, dtype=bool)  # True where a cluster starts, and at the end
    new[:-1].reshape(values.shape)[..., 1:] = split
    bounds = new.nonzero()[0]
    sizes = bounds[1:] - bounds[:-1]
    totals = sizes if mults is None else np.add.reduceat(mults.ravel(), bounds[:-1])
    sums = weighted[bounds[:-1]]
    merged = (sizes > 1).nonzero()[0]
    edges = bounds.tolist()
    sums[merged] = [np.add.reduce(weighted[edges[k] : edges[k + 1]]) for k in merged.tolist()]
    return sums / totals, totals, bounds


def _block_sums(d: SpectralDecomposition, rows: np.ndarray) -> np.ndarray:
    """Per-block sums of rows (..., dim): entry i adds the columns of block i."""
    return np.add.reduceat(rows, d._starts, axis=-1)


class _PairMeasure(NamedTuple):
    """Per distinct eigenvalue i of a decomposition: uv[i] = <u|F_i|v>, and
    norms (4, k): ||F_i e_u||, ||F_i e_v||, ||F_i e_u - F_i e_v||, ||F_i e_u + F_i e_v||."""

    eigenvalues: np.ndarray
    uv: np.ndarray
    norms: np.ndarray


def _pair_measure(d: SpectralDecomposition, u: int, v: int) -> _PairMeasure:
    """The pair's measure from one reduction over five rows, O(dim); ValueError unless u and v
    are vertex ids of d. The residuals are norms of differences: a + b -/+ 2c would cancel at a
    strongly cospectral pair, leaving about sqrt(eps) > SUPPORT_TOL."""
    for x in (u, v):
        if not (0 <= _index(x) < d.dim):
            raise ValueError(f"vertex {x} out of range for dim {d.dim}")
    a, b = d.vectors[u], d.vectors[v]
    sums = _block_sums(d, np.array((a * b, a * a, b * b, (a - b) ** 2, (a + b) ** 2)))
    return _PairMeasure(d.eigenvalues, sums[0], np.sqrt(sums[1:]))


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.eigh of (M + M^T)/2 and the max-norm of each real matrix M in
    the (..., n, n) stack mats; ValueError on a NaN or infinite entry or an
    asymmetric M. One call runs LAPACK over the whole stack, with the bits of
    one call per matrix. An exactly symmetric stack, as every one the package
    builds, goes to LAPACK as given, since (M + M^T)/2 is M entry for entry;
    one passing the test inexactly is symmetrised, in a copy. Besides the
    outputs it allocates a difference array the size of mats, freed before
    LAPACK runs, which adds its own copy of each M and 2n^2 + 6n of workspace."""
    norm = np.abs(mats).max(axis=(-2, -1), initial=0.0)
    if not math.isfinite(norm.max()):  # max(1.0, nan) would read 1.0
        raise ValueError("matrix has a NaN or infinite entry")
    diff = mats - mats.swapaxes(-2, -1)
    asym = np.abs(diff, out=diff).max(axis=(-2, -1), initial=0.0)
    del diff  # freed before eigh allocates the eigenvectors
    if (asym > 1e-12 * np.maximum(1.0, norm)).any():
        raise ValueError("matrix is not symmetric")
    if asym.any():
        mats = (mats + mats.swapaxes(-2, -1)) / 2.0
    w, vecs = np.linalg.eigh(mats)
    return w, vecs, norm


def eigendecompose(mat: np.ndarray) -> SpectralDecomposition:
    """Decompose a real symmetric matrix into distinct eigenvalues and
    their eigenvector blocks.

    Numerically equal eigenvalues are merged by _cluster: single linkage over
    the ascending list, where a gap <= CLUSTER_TOL_SCALE * max(1, max|mat|)
    joins two neighbours into one eigenspace, whose eigenvalue is the mean of
    its members. Raises ValueError on a complex, NaN or infinite entry, and
    np.linalg.LinAlgError if the eigensolver fails. Besides the dim x dim
    vectors it allocates one dim x dim difference array, LAPACK its own copy
    and 2 dim^2 + 6 dim of workspace, and _eigh a symmetrised copy only for
    input that is not exactly symmetric.
    """
    if np.iscomplexobj(mat):  # a float cast would drop the imaginary parts
        raise ValueError("expected a real matrix, got complex entries")
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    w, vecs, norm = _eigh(mat)
    values, mults, _ = _cluster(w, norm)
    return SpectralDecomposition(
        eigenvalues=values,
        vectors=vecs,
        multiplicities=tuple(mults.tolist()),
    )


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """V diag(eigenvalue) V^T; recovers the decomposed matrix."""
    lam = np.repeat(d.eigenvalues, d.multiplicities)
    return (d.vectors * lam) @ d.vectors.T


def eigenvalue_support(d: SpectralDecomposition, u: int) -> SupportInfo:
    """Eigenvalues whose projector does not annihilate e_u.

    For the Laplacian of a connected graph the support always contains the
    eigenvalue 0 (its projector is the all-ones matrix / n).
    """
    measure = _pair_measure(d, u, u)  # uv[i] = <u|F_i|u> = ||F_i e_u||^2
    support = tuple(np.flatnonzero(measure.norms[0] > SUPPORT_TOL).tolist())
    return SupportInfo(vertex=u, support=support, weights=tuple(measure.uv.tolist()))


def strongly_cospectral(d: SpectralDecomposition, u: int, v: int) -> CospectralityReport:
    """Check F e_u = +/- F e_v per eigenvalue.

    The sign is the residual minimizer; when both projections vanish the
    eigenvalue is outside the joint support and the sign is reported None.
    The report is symmetric in u and v, including the signs.
    """
    if u == v:
        raise ValueError("strong cospectrality is a property of distinct vertices")
    return _cospectrality(_pair_measure(d, u, v), u, v)


def _cospectrality(measure: _PairMeasure, u: int, v: int) -> CospectralityReport:
    """strongly_cospectral's report from the pair's measure: the one rule."""
    norm_u, norm_v, res_plus, res_minus = measure.norms
    vanish = (norm_u <= SUPPORT_TOL) & (norm_v <= SUPPORT_TOL)
    ok = bool(np.all(vanish | (np.minimum(res_plus, res_minus) <= SUPPORT_TOL)))
    signs = np.where(res_plus <= res_minus, 1, -1).tolist()
    signs = tuple(None if gone else sign for gone, sign in zip(vanish.tolist(), signs))
    return CospectralityReport(u=u, v=v, strongly_cospectral=ok, signs=signs)
