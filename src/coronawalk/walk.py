"""Continuous-time walk evolution U(t) = exp(-itM) from a spectral
decomposition, plus the closed-form corona transition values.

M is either the Laplacian (XYZ model) or the adjacency matrix (XY model).
Everything is evaluated through the spectral decomposition, never a series
matrix exponential: matrix elements through projector entries, the full
operator as V diag(e^{-i lam t}) V^T from the eigenvectors, so unitarity
holds to their orthonormality.

Transition values <u|U(t)|v> come only as arrays over a time array, from
`transition_values` and `corona_transition_values`. Fidelity and phase
follow one rule, `_fidelity_phase`, for every caller: fidelity
hypot(re, im)**2, phase value/hypot(re, im), and no phase below PHASE_FLOOR.
"""

from __future__ import annotations

import numpy as np

from .corona_spectrum import CoronaSpectrum, _delta
from .graphs import Graph, adjacency, laplacian
from .spectral import SpectralDecomposition

WALK_KINDS = ("laplacian", "adjacency")

# Below this fidelity the phase value/|value| is reported as None.
PHASE_FLOOR = 1e-24


def _fidelity_phase(values) -> tuple[list, list]:
    """Fidelity |value|^2 and unit phase value/|value| of an array of
    transition values, as lists of Python floats and complexes; the phase is
    None where the fidelity is below PHASE_FLOOR.

    The modulus is np.hypot and the square np.float_power: these give the
    bits of the scalar abs(value) ** 2 on numpy scalars, where np.abs on a
    complex array and ** 2 on a float array round differently in some entries.
    """
    values = np.asarray(values, dtype=complex)
    modulus = np.hypot(values.real, values.imag)
    with np.errstate(invalid="ignore"):  # an exact zero gives nan, below the floor
        phase = values / modulus
    fidelity = np.float_power(modulus, 2.0).tolist()
    return fidelity, [p if f >= PHASE_FLOOR else None for f, p in zip(fidelity, phase.tolist())]


def walk_matrix(g: Graph, kind: str = "laplacian") -> np.ndarray:
    """The walk Hamiltonian: L(G) for kind "laplacian", A(G) for "adjacency"."""
    if kind not in WALK_KINDS:
        raise ValueError(f"kind must be one of {WALK_KINDS}, got {kind!r}")
    return laplacian(g) if kind == "laplacian" else adjacency(g)


def _check_vertex(d: SpectralDecomposition, x: int) -> None:
    if not (0 <= x < d.dim):
        raise ValueError(f"vertex {x} out of range for dim {d.dim}")


def transition_values(d: SpectralDecomposition, u: int, v: int, ts) -> np.ndarray:
    """<u|U(t)|v> = sum_lam e^{-i lam t} <u|F_lam|v> on an array of times."""
    _check_vertex(d, u)
    _check_vertex(d, v)
    ts = np.asarray(ts, dtype=float)
    weights = d.projectors[:, u, v]
    return np.exp(-1j * np.outer(ts, d.eigenvalues)) @ weights


def evolve_operator(d: SpectralDecomposition, t: float) -> np.ndarray:
    """The full unitary U(t) = sum_lam e^{-i lam t} F_lam = V diag(e^{-i lam t}) V^T."""
    phases = np.exp(-1j * float(t) * np.repeat(d.eigenvalues, d.multiplicities))
    return (d.vectors * phases) @ d.vectors.T


def _check_base_consistency(cs: CoronaSpectrum, g_decomp: SpectralDecomposition) -> None:
    lams = np.array([entry.lam for entry in cs.class_c])
    if len(lams) != len(g_decomp.eigenvalues) or not np.allclose(
        lams, g_decomp.eigenvalues, atol=1e-8, rtol=0.0
    ):
        raise ValueError("corona spectrum was built from a different base graph")
    mults = tuple(entry.multiplicity for entry in cs.class_c)
    if mults != g_decomp.multiplicities:
        raise ValueError("corona spectrum was built from a different base graph")


def corona_transition_values(
    cs: CoronaSpectrum, g_decomp: SpectralDecomposition, u: int, v: int, ts
) -> np.ndarray:
    """Closed-form <(u,0)|U(t)|(v,0)> on the corona, for base vertices u, v.

    value(t) = e^{-it(m+1)/2} * sum over eigenvalues lam of L(G) of
        e^{-it lam/2} <u|F_lam|v> (cos(t D/2) - i ((m+lam-1)/D) sin(t D/2)),
    with D = sqrt((m+lam-1)^2 + 4m). The satellites enter only through m, so
    the element between base vertices never sees their structure.
    """
    _check_base_consistency(cs, g_decomp)
    _check_vertex(g_decomp, u)
    _check_vertex(g_decomp, v)
    m = cs.m
    ts = np.asarray(ts, dtype=float)
    lam = g_decomp.eigenvalues
    weights = g_decomp.projectors[:, u, v]
    delta = _delta(lam, m)
    coef = (m + lam - 1.0) / delta
    half_t = 0.5 * ts
    osc = np.cos(np.outer(half_t, delta)) - 1j * coef[None, :] * np.sin(np.outer(half_t, delta))
    terms = np.exp(-1j * np.outer(half_t, lam)) * osc
    return np.exp(-1j * (m + 1.0) * half_t) * (terms @ weights)
