"""Symmetric eigendecomposition into distinct eigenvalues and blocks of
orthonormal eigenvectors, plus eigenvalue supports and strong cospectrality
of vertex pairs. With F_i = B_i B_i^T, projector entries and column norms
are row sums over a block B_i (_block_sums); every pair entry <u|F_i|v> the
package reads comes from _pair_weights, so no library computation builds the
(k, dim, dim) stack. The projectors field builds it on demand, for
`spectrum --projectors`, benchmark checks and test oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _index

# Membership threshold for ||F_lambda e_u||, the norm of row u of its block:
# projector entries of desk-scale graphs are rationals or quadratic
# irrationals bounded well away from 0.
SUPPORT_TOL = 1e-8

# Residual tolerance for F_lambda e_u = +/- F_lambda e_v.
STRONG_COSPECTRAL_TOL = 1e-8

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
    no library computation reads the (k, dim, dim) stack, which is built from
    vectors on first read unless one was passed in. dataclasses.replace reads
    it, so the copy carries this stack unless projectors=None is passed too.
    """

    dim: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    multiplicities: tuple
    projectors: np.ndarray = _Projectors()

    def blocks(self) -> list:
        """Per eigenvalue, its dim x multiplicity block of eigenvector
        columns, as views of vectors."""
        stops = np.cumsum(self.multiplicities, dtype=int)
        return [self.vectors[:, stop - mult : stop] for mult, stop in zip(self.multiplicities, stops)]


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


def _cluster(values, mults, tol: float) -> tuple[list, list, list]:
    """Cluster ascending values by single linkage: neighbours whose gap is at
    most tol share a cluster, so a chain of small gaps is one cluster however
    long it gets.

    Returns (means, totals, index): the mults-weighted mean and the total
    multiplicity of each cluster, ascending, and the cluster index of each
    input. Each mean is np.add.reduce(values[a:b] * mults[a:b]) / total,
    which for unit mults is the arithmetic of np.mean. This is the one
    clustering rule of the package; eigendecompose, the class (b) pooling and
    the corona merge rule (corona_spectrum._merge_pieces) use it.
    """
    values = np.asarray(values, dtype=float)
    mults = np.asarray(mults, dtype=int)
    weighted = values * mults
    vals, counts = values.tolist(), mults.tolist()
    starts = [i for i in range(len(vals)) if i == 0 or vals[i] - vals[i - 1] > tol]
    means, totals, index = [], [], []
    for k, (a, b) in enumerate(zip(starts, starts[1:] + [len(vals)])):
        total = sum(counts[a:b])
        # A one-member sum is the member itself: skip the reduction call.
        head = weighted[a] if b - a == 1 else np.add.reduce(weighted[a:b])
        means.append(float(head / total))
        totals.append(total)
        index += [k] * (b - a)
    return means, totals, index


def _block_sums(d: SpectralDecomposition, rows: np.ndarray) -> np.ndarray:
    """Per-block sums of rows (..., dim): entry i adds the columns of block i."""
    return np.add.reduceat(rows, np.cumsum((0,) + d.multiplicities[:-1]), axis=-1)


def _pair_weights(d: SpectralDecomposition, u: int, v: int) -> np.ndarray:
    """Every <u|F_i|v> as the per-block sums of V[u]*V[v]: the one rule, O(dim)."""
    return _block_sums(d, d.vectors[u] * d.vectors[v])


def _check_vertices(d: SpectralDecomposition, *vertices) -> None:
    """ValueError unless every vertex is an integer vertex id of d."""
    for x in vertices:
        if not (0 <= _index(x) < d.dim):
            raise ValueError(f"vertex {x} out of range for dim {d.dim}")


def eigendecompose(mat: np.ndarray) -> SpectralDecomposition:
    """Decompose a real symmetric matrix into distinct eigenvalues and
    their eigenvector blocks.

    Numerically equal eigenvalues are merged by _cluster: single linkage over
    the ascending list, where a gap <= CLUSTER_TOL_SCALE * max(1, max|mat|)
    joins two neighbours into one eigenspace, whose eigenvalue is the mean of
    its members. Raises ValueError on a NaN or infinite entry, and
    np.linalg.LinAlgError if the eigensolver fails.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    norm = float(np.max(np.abs(mat))) if mat.size else 1.0
    if not np.isfinite(norm):  # max(1.0, nan) would read 1.0
        raise ValueError("matrix has a NaN or infinite entry")
    scale = max(1.0, norm)
    if mat.size and float(np.max(np.abs(mat - mat.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")

    dim = mat.shape[0]
    if dim == 0:
        return SpectralDecomposition(0, np.zeros(0), np.zeros((0, 0)), ())

    w, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    values, mults, _ = _cluster(w, [1] * dim, CLUSTER_TOL_SCALE * scale)
    return SpectralDecomposition(
        dim=dim,
        eigenvalues=np.array(values),
        vectors=vecs,
        multiplicities=tuple(mults),
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
    _check_vertices(d, u)
    row = d.vectors[u]
    weights = _block_sums(d, row * row)  # <u|F_i|u> = ||F_i e_u||^2
    support = tuple(np.flatnonzero(np.sqrt(weights) > SUPPORT_TOL).tolist())
    return SupportInfo(vertex=u, support=support, weights=tuple(weights.tolist()))


def strongly_cospectral(d: SpectralDecomposition, u: int, v: int) -> CospectralityReport:
    """Check F e_u = +/- F e_v per eigenvalue.

    The sign is the residual minimizer; when both projections vanish the
    eigenvalue is outside the joint support and the sign is reported None.
    The report is symmetric in u and v, including the signs.
    """
    if u == v:
        raise ValueError("strong cospectrality is a property of distinct vertices")
    _check_vertices(d, u, v)
    a, b = d.vectors[u], d.vectors[v]
    # One reduction gives the per-block ||F e_u||, ||F e_v||, ||F e_u - F e_v||, ||F e_u + F e_v||.
    rows = np.stack((a * a, b * b, (a - b) ** 2, (a + b) ** 2))
    norm_u, norm_v, res_plus, res_minus = np.sqrt(_block_sums(d, rows))
    vanish = (norm_u <= SUPPORT_TOL) & (norm_v <= SUPPORT_TOL)
    ok = bool(np.all(vanish | (np.minimum(res_plus, res_minus) <= STRONG_COSPECTRAL_TOL)))
    signs = np.where(res_plus <= res_minus, 1, -1).tolist()
    signs = tuple(None if gone else sign for gone, sign in zip(vanish.tolist(), signs))
    return CospectralityReport(u=u, v=v, strongly_cospectral=ok, signs=signs)
