"""Exact integer utilities: perfect squares, square-free splits, gcd/2-adic
data of integer eigenvalue supports, and integrality detection for numeric
eigenvalues."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

# Numeric eigenvalues closer than this to an integer are treated as exact.
# Desk-scale Laplacians have eigenvalues that are either integers or quadratic
# irrationals bounded away from the integers by far more than this.
INTEGRALITY_TOL = 1e-7

# Exact-arithmetic range for squarefree_split.
MAX_EXACT = 2**63 - 1


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


# Covers trial division for n up to 2^32 outright; larger n fall back to odd
# stepping past the sieve limit (fine for the documented n <~ 10^12 range).
_SMALL_PRIMES = _sieve(65536)


@dataclass(frozen=True)
class SquareFreeSplit:
    """Decomposition n = s^2 * c with c square-free."""

    n: int
    s: int
    c: int


def is_perfect_square(n: int) -> bool:
    """Exact integer test for n = k^2 (n >= 0)."""
    if n < 0:
        raise ValueError("is_perfect_square expects a nonnegative integer")
    k = math.isqrt(n)
    return k * k == n


def _divisor_candidates():
    yield from _SMALL_PRIMES
    p = _SMALL_PRIMES[-1] + 2
    while True:
        yield p
        p += 2


def squarefree_split(n: int) -> SquareFreeSplit:
    """Split n = s^2 * c with c square-free, by trial division up to sqrt(n).

    Exact-arithmetic range is n in [1, 2^63 - 1]; practical for n <~ 10^12.
    """
    n = int(n)
    if n < 1 or n > MAX_EXACT:
        raise ValueError(f"squarefree_split requires 1 <= n <= {MAX_EXACT}, got {n}")
    s = 1
    c = 1
    rem = n
    for p in _divisor_candidates():
        if p * p > rem:
            break
        if rem % p:
            continue
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        s *= p ** (e >> 1)
        if e & 1:
            c *= p
    if rem > 1:
        c *= rem
    return SquareFreeSplit(n=n, s=s, c=c)


def support_gcd_and_valuation(support) -> tuple[int, int]:
    """gcd g of the nonzero entries of an integer eigenvalue support, plus the
    2-adic valuation r of g (largest r with 2^r | g).

    Zero entries are ignored (gcd(0, x) = x), so a support containing the
    Laplacian eigenvalue 0 behaves as expected; an all-zero support is
    rejected.
    """
    vals = []
    for x in support:
        xf = float(x)
        if not xf.is_integer():
            raise ValueError(f"support entries must be exact integers, got {x!r}")
        vals.append(int(xf))
    nonzero = [abs(v) for v in vals if v]
    if not nonzero:
        raise ValueError("support has no nonzero entries")
    g = reduce(math.gcd, nonzero)
    r = (g & -g).bit_length() - 1
    return g, r


def integer_eigenvalue(x: float) -> int | None:
    """Round a numeric eigenvalue to an exact integer, or None if it is not
    within INTEGRALITY_TOL of one."""
    k = round(float(x))
    return k if abs(float(x) - k) < INTEGRALITY_TOL else None
