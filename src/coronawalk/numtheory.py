"""Exact integer utilities: perfect squares, square-free splits, gcd/2-adic
data of integer eigenvalue supports, and integrality detection for numeric
eigenvalues."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

# Numeric eigenvalues closer than this to an integer are treated as exact.
# Desk-scale Laplacians have eigenvalues that are either integers or quadratic
# irrationals bounded away from the integers by far more than this.
INTEGRALITY_TOL = 1e-7

# Exact-arithmetic range for squarefree_split.
MAX_EXACT = 2**63 - 1


# squarefree_split peels the primes below this bound with gcds against their
# product (a 335-bit integer) and trial-divides by the odd numbers above it.
# n < _PEEL_BOUND^3 needs no trial division. The worst case is an n near 2^63
# without a prime factor below cbrt(n) ~ 2.1e6: measured 0.25-0.27 s a call
# (2-core Xeon VM, Python 3.11), against about 1.1 us for n < 4e5.
_PEEL_BOUND = 256
_PEEL_PRIMORIAL = math.prod(
    p for p in range(2, _PEEL_BOUND) if all(p % q for q in range(2, math.isqrt(p) + 1))
)
_TRIAL_CUBE = (_PEEL_BOUND + 1) ** 3


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


def squarefree_split(n: int) -> SquareFreeSplit:
    """Split n = s^2 * c with c square-free, exactly for n in [1, 2^63 - 1].

    The primes below _PEEL_BOUND come out without being named: with k_i
    the product of those of exponent >= i, k_1 = gcd(n, primorial) and
    k_(i+1) = gcd(n / (k_1 ... k_i), k_i), so s = k_2 k_4 ... and
    c = (k_1 / k_2) (k_3 / k_4) .... Trial division then runs while
    p^3 <= rem; what is left has at most two prime factors, all above
    cbrt(rem), so it is 1, q, q*r or q^2, and one isqrt tells which.
    Non-integral input (8.9, "12") raises TypeError.
    """
    n = operator.index(n)
    if n < 1 or n > MAX_EXACT:
        raise ValueError(f"squarefree_split requires 1 <= n <= {MAX_EXACT}, got {n}")
    s = c = 1
    rem = n
    k = math.gcd(n, _PEEL_PRIMORIAL)
    while k > 1:
        rem //= k
        sq = math.gcd(rem, k)
        if sq == 1:  # no exponent above the current one: k joins c whole
            c *= k
            break
        rem //= sq
        s *= sq
        c *= k // sq
        k = math.gcd(rem, sq)
    if rem >= _TRIAL_CUBE:
        p = _PEEL_BOUND + 1
        while p * p * p <= rem:
            if rem % p == 0:
                e = 0
                while rem % p == 0:
                    rem //= p
                    e += 1
                s *= p ** (e >> 1)
                if e & 1:
                    c *= p
            p += 2
    r = math.isqrt(rem)
    if r * r == rem:
        s *= r
    else:
        c *= rem
    # The frozen __init__ would set each field through object.__setattr__; filling the
    # new instance's __dict__ builds the same object about 0.5 us faster.
    split = object.__new__(SquareFreeSplit)
    fields = split.__dict__
    fields["n"], fields["s"], fields["c"] = n, s, c
    return split


def support_gcd_and_valuation(support) -> tuple[int, int]:
    """gcd g of the nonzero entries of an integer eigenvalue support, plus the
    2-adic valuation r of g (largest r with 2^r | g).

    Zero entries are ignored (gcd(0, x) = x), so a support containing the
    Laplacian eigenvalue 0 behaves as expected; an all-zero support is
    rejected. Entries must be int or np.integer, taken exactly: a float
    eigenvalue is rounded by integer_eigenvalue first, the one integrality
    rule. Any other entry raises ValueError.
    """
    vals = []
    for x in support:
        try:
            vals.append(operator.index(x))
        except TypeError:
            raise ValueError(f"support entries must be exact integers, got {x!r}") from None
    nonzero = [abs(v) for v in vals if v]
    if not nonzero:
        raise ValueError("support has no nonzero entries")
    g = reduce(math.gcd, nonzero)
    r = (g & -g).bit_length() - 1
    return g, r


def integer_eigenvalue(x: float) -> int | None:
    """Round a numeric eigenvalue to an exact integer, or None if it is not
    within INTEGRALITY_TOL of one."""
    x = float(x)
    k = round(x)
    return k if abs(x - k) < INTEGRALITY_TOL else None
