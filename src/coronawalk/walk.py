"""Continuous-time walk evolution U(t) = exp(-itM) from a spectral
decomposition, plus the closed-form corona transition values.

M is either the Laplacian (XYZ model) or the adjacency matrix (XY model).
Everything is evaluated through the spectral decomposition, never a series
matrix exponential: matrix elements through the projector entries that
spectral._pair_weights reads from two eigenvector rows, the full operator
as V diag(e^{-i lam t}) V^T, so unitarity holds to their orthonormality.

Transition values <u|U(t)|v> come only as arrays over a time array, from
`transition_values` and `corona_transition_values`. Fidelity and phase
follow one rule, `_fidelity_phase`, for every caller: fidelity
hypot(re, im)**2, phase value/hypot(re, im), and no phase below PHASE_FLOOR.
Long scans over evenly spaced times screen first with `_phase_screen`, a
bounded stand-in for the fidelity, and evaluate exactly only where it
cannot rule a time out.
"""

from __future__ import annotations

import numpy as np

from .corona_spectrum import CoronaSpectrum, _delta
from .graphs import Graph, adjacency, laplacian
from .spectral import SpectralDecomposition, _check_vertices, _pair_weights

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


def transition_values(d: SpectralDecomposition, u: int, v: int, ts) -> np.ndarray:
    """<u|U(t)|v> = sum_lam e^{-i lam t} <u|F_lam|v> on an array of times."""
    _check_vertices(d, u, v)
    ts = np.asarray(ts, dtype=float)
    return np.exp(-1j * np.outer(ts, d.eigenvalues)) @ _pair_weights(d, u, v)


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
    the element between base vertices never sees their structure. A subset
    of ts gives the bits those times have in the full call.
    """
    _check_base_consistency(cs, g_decomp)
    _check_vertices(g_decomp, u, v)
    lam = g_decomp.eigenvalues
    delta = _delta(lam, cs.m)
    return _corona_kernel(cs.m, lam, delta, (cs.m + lam - 1.0) / delta, _pair_weights(g_decomp, u, v), ts)


def _corona_kernel(m: int, lam, delta, coef, weights, ts) -> np.ndarray:
    """corona_transition_values without its checks, given Delta, coef =
    (m+lam-1)/Delta and the pair's projector entries. The eigenvalue sum adds
    one eigenvalue's row of terms at a time, left to right, so no time's bits
    depend on the other times: a matrix-vector product does not promise that."""
    half_t = 0.5 * np.asarray(ts, dtype=float)
    angle = np.outer(delta, half_t)
    terms = np.exp(-1j * np.outer(lam, half_t)) * (np.cos(angle) - 1j * coef[:, None] * np.sin(angle))
    total = terms[0] * weights[0]
    for j in range(1, len(weights)):
        total = total + terms[j] * weights[j]
    return np.exp(-1j * (m + 1.0) * half_t) * total


def _phase_screen(amps, omega, step: float, width: int, t_max: float):
    """A cheap stand-in for the fidelity |sum_j a_j e^{-i t omega_j}|^2 on
    the times t0 + step*i, i < width, from each row start t0, and the bound
    tol on its distance from an exact evaluation at any t <= t_max.

    screen(t0s) reads one row per t0 as |(a e^{-i t0s (x) omega}) @ T|^2,
    with one table T[j, i] = e^{-i omega_j step i}: a product per call where
    an exact evaluation takes an exp per time and term.

    Bound: the exact values a caller screens for build each term's phase
    from angles within a few roundings of t*omega_j, t the exact time. The
    PGST kernel builds it from t*lam/2 and t*Delta/2 (three roundings each,
    Delta is shared); transition_values on a linspace grid from 0 builds
    fl(fl(k*step)*omega_j) (two, three at the last point, which linspace
    sets to t_max). The screen builds it from t0*omega_j and
    (step*i)*omega_j, two roundings each of parts whose sizes add up to at
    most t_max*max|omega|. So each angle is at most about 5 roundings from
    the other, and a term's two phases differ by under
    5*eps*t_max*max|omega|. S = sum|a_j| bounds |value| on both sides, and
    ||z|^2 - |z'|^2| <= 2S|z - z'|, so the fidelities differ by under
    10*eps*S^2*t_max*max|omega|, plus O(k*eps*S^2) from the trig calls, the
    products, the squares and the k-term sums, whatever order they add in.
    tol takes 64 for the 10; the remainder is negligible once
    t_max*max|omega| is large against k, as on every caller.
    """
    size = float(np.sum(np.abs(amps)))
    tol = 64.0 * np.finfo(float).eps * size * size * t_max * float(np.max(np.abs(omega)))
    table = np.exp(-1j * np.outer(omega, step * np.arange(width)))

    def screen(t0s: np.ndarray) -> np.ndarray:
        values = (amps * np.exp(-1j * np.outer(t0s, omega))) @ table
        return values.real**2 + values.imag**2

    return screen, tol
