"""Reference computations the output checks compare against. None of them
calls coronawalk: they work from edge lists with numpy, exact integers and
mpmath."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

MP_DIGITS = 50

# Smallest error reported, so that -log10 stays finite when outputs are exact.
ERROR_FLOOR = float(np.finfo(float).eps)


def accuracy_digits(errors) -> float:
    return -math.log10(max([ERROR_FLOOR, *errors]))


def int_laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1
        lap[u, u] += 1
        lap[v, v] += 1
    return lap


def exact_pair_weights(n: int, edges, u: int, v: int) -> dict:
    """<u|F_lam|v> as exact fractions for a Laplacian with integer spectrum.

    F_lam is the Lagrange product over the other eigenvalues mu of
    (L - mu I) / (lam - mu); the integer spectrum is confirmed exactly by
    the product of all (L - lam I) vanishing.
    """
    lap = int_laplacian(n, edges)
    values = sorted({int(round(x)) for x in np.linalg.eigvalsh(lap.astype(float))})
    eye = np.eye(n, dtype=np.int64)
    prod = eye
    for lam in values:
        prod = prod @ (lap - lam * eye)
    if np.any(prod):
        raise ValueError("Laplacian spectrum is not integral")
    weights = {}
    for lam in values:
        num = eye
        den = 1
        for mu in values:
            if mu != lam:
                num = num @ (lap - mu * eye)
                den *= lam - mu
        weights[lam] = Fraction(int(num[u, v]), den)
    return weights


def mp_corona_fidelity(weights: dict, m: int, t_over_pi) -> float:
    """|<(u,0)|U(t)|(v,0)>|^2 on a corona with satellite order m, at
    t = t_over_pi * pi exactly, evaluated with MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        t = mpmath.mpf(t_over_pi) * mpmath.pi
        half = t / 2
        total = mpmath.mpc(0)
        for lam, w in weights.items():
            if w == 0:
                continue
            delta = mpmath.sqrt((m + lam - 1) ** 2 + 4 * m)
            osc = mpmath.cos(half * delta) - 1j * ((m + lam - 1) / delta) * mpmath.sin(half * delta)
            total += mpmath.mpf(w.numerator) / w.denominator * mpmath.expj(-half * lam) * osc
        return float(abs(total) ** 2)


def dense_fidelities(n: int, edges, u: int, v: int, ts) -> np.ndarray:
    """|<u|exp(-itL)|v>|^2 over ts from a plain numpy eigensolve."""
    w, vecs = np.linalg.eigh(int_laplacian(n, edges).astype(float))
    amp = np.exp(-1j * np.outer(ts, w)) @ (vecs[u] * vecs[v])
    return np.abs(amp) ** 2


def surely_not_cospectral(n: int, edges, u: int, v: int, prime: int = 33_554_393) -> bool:
    """True when (L^k)_uu != (L^k)_vv (mod prime) for some k < n, which rules
    out cospectrality of u and v, hence strong cospectrality and PST."""
    lap = int_laplacian(n, edges) % prime
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = (power @ lap) % prime
        if power[u, u] != power[v, v]:
            return True
    return False


def squarefree_table(limit: int) -> np.ndarray:
    """table[c] is True iff c has no square factor > 1."""
    table = np.ones(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        table[p * p :: p * p] = False
    return table
