import dataclasses
import math
import pickle

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coronawalk import (
    INTEGRALITY_TOL,
    SquareFreeSplit,
    integer_eigenvalue,
    is_perfect_square,
    squarefree_split,
    support_gcd_and_valuation,
)
from coronawalk.numtheory import MAX_EXACT, _PEEL_BOUND


def test_perfect_square_basics():
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert is_perfect_square(25)
    assert not is_perfect_square(73)
    assert not is_perfect_square(2)
    assert is_perfect_square(10**12)


def test_perfect_square_rejects_negative():
    with pytest.raises(ValueError):
        is_perfect_square(-4)


def test_corona_gap_is_never_square_small_range():
    # (m + lam - 1)^2 + 4m sits strictly between consecutive squares of the
    # same parity for every positive integer pair, hence is never a square.
    for m in range(1, 51):
        for lam in range(1, 51):
            assert not is_perfect_square((m + lam - 1) ** 2 + 4 * m)


def test_squarefree_split_examples():
    assert (squarefree_split(8).s, squarefree_split(8).c) == (2, 2)
    assert (squarefree_split(73).s, squarefree_split(73).c) == (1, 73)
    assert (squarefree_split(20).s, squarefree_split(20).c) == (2, 5)
    assert (squarefree_split(40).s, squarefree_split(40).c) == (2, 10)
    assert (squarefree_split(1).s, squarefree_split(1).c) == (1, 1)
    assert (squarefree_split(360).s, squarefree_split(360).c) == (6, 10)


def test_squarefree_split_range_errors():
    with pytest.raises(ValueError):
        squarefree_split(0)
    with pytest.raises(ValueError):
        squarefree_split(-8)
    with pytest.raises(ValueError):
        squarefree_split(2**63)


def test_squarefree_split_rejects_non_integral_input():
    for bad in (8.9, 8.0, "12", np.float64(12.0)):
        with pytest.raises(TypeError):
            squarefree_split(bad)
    sp = squarefree_split(np.int64(360))
    assert (sp.n, sp.s, sp.c) == (360, 6, 10)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


@pytest.mark.parametrize(
    "square_primes, free_primes",
    [
        ([2, 2, 3, 3, 2], [2, 7]),  # small primes only: the cofactor is 1
        ([2], [2, 1_000_003]),  # cofactor q
        ([], [65_537, 65_539]),  # cofactor q*r, both above 65,536
        ([257], []),  # cofactor q^2 with q just above the peel bound
        ([65_537], [3]),  # cofactor q^2 with q above 65,536
        ([263], [5, 263, 65_539]),  # trial division finds 263^3
        ([7], [73, 127, 337, 92_737, 649_657]),  # n = MAX_EXACT
        ([3_037_000_493], []),  # the largest prime square below MAX_EXACT
        ([], [2_147_483_647, 2_147_483_659]),  # q*r near MAX_EXACT
        ([257], [257]),  # rem is the peel cube: trial division runs and finds 257^3
    ],
)
def test_squarefree_split_construction_oracle(square_primes, free_primes):
    # n = s^2 * c is built from primes, so the split is known without
    # factoring: s multiplies square_primes, c the distinct free_primes.
    assert all(_is_prime(p) for p in square_primes + free_primes)
    assert len(set(free_primes)) == len(free_primes)
    s, c = math.prod(square_primes), math.prod(free_primes)
    n = s * s * c
    assert n <= MAX_EXACT
    sp = squarefree_split(n)
    assert (sp.n, sp.s, sp.c) == (n, s, c)


def test_squarefree_split_is_a_frozen_dataclass():
    # squarefree_split fills the instance's __dict__ instead of calling
    # __init__; the result must be the object __init__ builds.
    sp = squarefree_split(73)
    assert repr(sp) == "SquareFreeSplit(n=73, s=1, c=73)"
    assert [f.name for f in dataclasses.fields(SquareFreeSplit)] == ["n", "s", "c"]
    assert type(sp) is SquareFreeSplit and sp == SquareFreeSplit(73, 1, 73) and sp != (73, 1, 73)
    assert vars(sp) == vars(SquareFreeSplit(73, 1, 73))
    assert dataclasses.astuple(squarefree_split(360)) == (360, 6, 10)
    assert dataclasses.replace(sp, s=2) == SquareFreeSplit(73, 2, 73)
    for field in ("n", "s", "c"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sp, field, 2)
    assert hash(sp) == hash(SquareFreeSplit(73, 1, 73))
    assert {sp: "seen"}[SquareFreeSplit(73, 1, 73)] == "seen"
    assert pickle.loads(pickle.dumps(sp)) == sp


def split_from_factorint(n):
    s = c = 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        c *= p ** (e % 2)
    return n, s, c


SMALL_PRIMES = [p for p in range(2, _PEEL_BOUND) if _is_prime(p)]
# Primes above the peel bound: MID ones, which trial division can find, and
# BIG ones above the cube root of every cofactor they are in, which only the
# cofactor test sees. Both stay small enough that no draw trial-divides for
# long; the construction oracle holds the slow cases near MAX_EXACT.
MID_PRIMES = st.integers(_PEEL_BOUND + 1, 2**12).map(sympy.nextprime)
BIG_PRIMES = st.integers(2**12, 2**16).map(sympy.nextprime)


@st.composite
def split_inputs(draw):
    """n in [1, MAX_EXACT], biased to each branch of squarefree_split: a small
    part of distinct primes (the sq == 1 exit) or repeated ones, times a
    cofactor q, q*r or q^2, or a product of mid primes that puts rem at or
    above the peel cube for trial division, or any integer up to 2^40."""
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=6))
    small = math.prod(p ** draw(st.sampled_from([1, 1, 2, 3, 5, 8])) for p in primes)
    a, b = draw(MID_PRIMES), draw(MID_PRIMES)
    q, r = draw(BIG_PRIMES), draw(BIG_PRIMES)
    cofactors = [1, q, q * r, q * q, a * q, a * a * b, a**3, draw(st.integers(1, 2**40))]
    cofactor = draw(st.sampled_from(cofactors))
    for n in (small * cofactor, cofactor):
        if n <= MAX_EXACT:
            return n
    return q * r


@settings(max_examples=300, deadline=None)
@given(split_inputs())
def test_squarefree_split_matches_factorint(n):
    assert dataclasses.astuple(squarefree_split(n)) == split_from_factorint(n)


def test_squarefree_split_round_trip_exhaustive():
    for n in range(1, 1_000_001):
        sp = squarefree_split(n)
        assert sp.s * sp.s * sp.c == n


def test_squarefree_part_is_squarefree_sampled():
    for n in range(1, 10_001):
        c = squarefree_split(n).c
        for k in range(2, math.isqrt(c) + 1):
            assert c % (k * k) != 0


def test_support_gcd_examples():
    assert support_gcd_and_valuation([0, 2]) == (2, 1)
    assert support_gcd_and_valuation([0, 2, 4, 6]) == (2, 1)
    assert support_gcd_and_valuation([0, 4, 8]) == (4, 2)
    assert support_gcd_and_valuation([3, 9]) == (3, 0)
    assert support_gcd_and_valuation([8]) == (8, 3)


def test_support_gcd_is_exact_beyond_float_precision():
    # float(2**54 + 3) rounds to 2**54 + 4, which would share the factor 2.
    assert support_gcd_and_valuation([6, 2**54 + 3]) == (1, 0)
    assert support_gcd_and_valuation([2**60 + 2]) == (2**60 + 2, 1)
    assert support_gcd_and_valuation([np.int64(6), np.int64(2**54 + 3)]) == (1, 0)


def test_support_gcd_rejects_bad_input():
    # Floats raise even when integral: integer_eigenvalue is the one rounding rule.
    for bad in ([0, 2.5], [0.0, 2, 4], [0, np.float64(2.0), 4], [0, "2"]):
        with pytest.raises(ValueError, match="exact integers"):
            support_gcd_and_valuation(bad)
    with pytest.raises(ValueError):
        support_gcd_and_valuation([0, 0])
    with pytest.raises(ValueError):
        support_gcd_and_valuation([])


def test_integer_eigenvalue_threshold():
    assert integer_eigenvalue(2.0) == 2
    assert integer_eigenvalue(2.0 + 1e-8) == 2
    assert integer_eigenvalue(-3.0 - 1e-9) == -3
    assert integer_eigenvalue(2.001) is None
    assert integer_eigenvalue(0.5) is None
    for x in (math.inf, -math.inf, math.nan, np.float64("nan")):  # not within the tolerance of an integer
        assert integer_eigenvalue(x) is None
    assert 0 < INTEGRALITY_TOL < 1e-3
