"""Continuous-time walk evolution U(t) = exp(-itM) from a spectral
decomposition, plus the closed-form corona transition values.

M is either the Laplacian (XYZ model) or the adjacency matrix (XY model).
Everything is evaluated through the spectral decomposition, never a series
matrix exponential: matrix elements through the entries <u|F|v> of the
pair's measure (spectral._pair_measure), the full operator as
V diag(e^{-i lam t}) V^T, so unitarity holds to their orthonormality.

Transition values <u|U(t)|v> come only as arrays over a time array, from
one evaluator per walk: `_measure_transition_values` on a pair's measure,
which PST verdicts re-check t0 with, and `corona_transition_values` on a
corona, with Delta and (m+lam-1)/Delta from `corona_spectrum._class_c_arrays`.
`_fidelity` squares every fidelity reported, decided on or screened, and
`_phases` gives the phase. Long scans over evenly spaced times screen with
`_phase_screen`, a bounded stand-in for the fidelity, and evaluate exactly
only where it cannot rule a time out.
"""

from __future__ import annotations

import numpy as np

from .corona_spectrum import CoronaSpectrum, _class_c_arrays
from .graphs import Graph, adjacency, laplacian
from .spectral import SpectralDecomposition, _pair_measure, _PairMeasure

WALK_KINDS = ("laplacian", "adjacency")

# Below this fidelity the phase value/|value| is reported as None.
PHASE_FLOOR = 1e-24


def _fidelity(values: np.ndarray) -> np.ndarray:
    """|value|^2 of a complex array as re*re + im*im (np.square: faster than
    x*x on strided views), the one square in the package. Barring underflow
    it is within 2u = 2^-52 relative of the exact |value|^2 (n*u for n-term
    dot products: Jeannerod and Rump 2013; Higham, section 3.1)."""
    return np.square(values.real) + np.square(values.imag)


def _check_phase_range(t_max: float, scale: float, what: str | None = None) -> None:
    """Refuse a NaN or infinite time t_max, and phases t*lambda past 2^52 (|t_max| >= every |t|, scale >=
    every |lambda|), where one ulp is a radian or more. Given `what`, the source of t_max, an infinite
    t_max is too large as well. Both tests run on Python floats, so that no numpy warning comes first."""
    t_max = abs(float(t_max))
    if what is None and not np.isfinite(t_max):
        raise ValueError(f"time {t_max:g} is not finite")
    if not t_max * float(scale) < 2.0**52:
        raise ValueError(f"{what or f'time {t_max:g}'} is too large: |t_max| * max|eigenvalue| reaches 2**52")


def _phases(values: np.ndarray, fidelity) -> list:
    """The unit phase value/|value| of complex values as Python complexes,
    None where their fidelity is below PHASE_FLOOR."""
    with np.errstate(invalid="ignore"):  # an exact zero gives nan, below the floor
        phase = values / np.hypot(values.real, values.imag)
    return [p if f >= PHASE_FLOOR else None for f, p in zip(fidelity, phase.tolist())]


def _fidelity_phase(values: np.ndarray) -> tuple[list, list]:
    """_fidelity and _phases, as lists of Python floats and complexes."""
    fidelity = _fidelity(values).tolist()
    return fidelity, _phases(values, fidelity)


def walk_matrix(g: Graph, kind: str = "laplacian") -> np.ndarray:
    """The walk Hamiltonian: L(G) for kind "laplacian", A(G) for "adjacency"."""
    if kind not in WALK_KINDS:
        raise ValueError(f"kind must be one of {WALK_KINDS}, got {kind!r}")
    return laplacian(g) if kind == "laplacian" else adjacency(g)


def transition_values(d: SpectralDecomposition, u: int, v: int, ts) -> np.ndarray:
    """<u|U(t)|v> = sum_lam e^{-i lam t} <u|F_lam|v> on an array of times."""
    _check_phase_range(np.abs(ts).max(initial=0.0), np.abs(d.eigenvalues).max(initial=0.0))
    return _measure_transition_values(_pair_measure(d, u, v), ts)


def _measure_transition_values(measure: _PairMeasure, ts) -> np.ndarray:
    """transition_values from the pair's measure."""
    return np.exp(-1j * np.outer(np.asarray(ts, dtype=float), measure.eigenvalues)) @ measure.uv


def evolve_operator(d: SpectralDecomposition, t: float) -> np.ndarray:
    """The full unitary U(t) = sum_lam e^{-i lam t} F_lam = V diag(e^{-i lam t}) V^T."""
    _check_phase_range(t, np.abs(d.eigenvalues).max(initial=0.0))
    phases = np.exp(-1j * float(t) * np.repeat(d.eigenvalues, d.multiplicities))
    return (d.vectors * phases) @ d.vectors.T


def _check_base_consistency(cs: CoronaSpectrum, g_decomp: SpectralDecomposition) -> None:
    lams = np.array([entry.lam for entry in cs.class_c])
    # Written so that a NaN fails: max propagates it and NaN <= atol is False.
    if len(lams) != len(g_decomp.eigenvalues) or not np.max(np.abs(lams - g_decomp.eigenvalues)) <= 1e-8:
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
    with D = sqrt((m+lam-1)^2 + 4m), both from corona_spectrum._class_c_arrays.
    The satellites enter only through m, so the element between base
    vertices never sees their structure. A subset of ts gives the bits those
    times have in the full call. _check_phase_range's scale is the largest lambda_+.
    """
    _check_base_consistency(cs, g_decomp)
    measure = _pair_measure(g_decomp, u, v)
    delta, coef, pluses, _ = _class_c_arrays(measure.eigenvalues, cs.m)
    _check_phase_range(np.abs(ts).max(initial=0.0), pluses.max())
    return _corona_kernel(cs.m, measure.eigenvalues, delta, coef, measure.uv, ts)


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
    tol on its distance from the _fidelity of an exact value at t <= t_max.

    screen(t0s) reads one row per t0 as |(a e^{-i t0s (x) omega}) @ T|^2,
    with one table T[j, i] = e^{-i omega_j step i}: a product per call where
    an exact evaluation takes an exp per time and term.

    Bound: the exact values a caller screens for build each term's phase
    from angles within a few roundings of t*omega_j, t the exact time. The
    PGST kernel builds it from t*lam/2 and t*Delta/2 (three roundings each,
    Delta is shared); transition_values at times k*step from 0, as fig3 and
    linspace both build them, builds fl(fl(k*step)*omega_j) (two, three at
    the last point, set to t_max). The screen builds it from t0*omega_j and
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
    size = float(np.abs(amps).sum())
    tol = 64.0 * np.finfo(float).eps * size * size * t_max * float(np.abs(omega).max())
    table = None

    def screen(t0s: np.ndarray) -> np.ndarray:
        nonlocal table
        if table is None:  # built on the first call, so a caller reading only tol pays no exp
            table = np.exp(-1j * np.outer(omega, step * np.arange(width)))
        return _fidelity((amps * np.exp(-1j * np.outer(t0s, omega))) @ table)

    return screen, tol
