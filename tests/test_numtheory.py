import math

import numpy as np
import pytest

from coronawalk import (
    INTEGRALITY_TOL,
    integer_eigenvalue,
    is_perfect_square,
    squarefree_split,
    support_gcd_and_valuation,
)


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


def test_support_gcd_accepts_float_integers():
    assert support_gcd_and_valuation([0.0, np.float64(2.0), 4]) == (2, 1)


def test_support_gcd_rejects_bad_input():
    with pytest.raises(ValueError):
        support_gcd_and_valuation([0, 2.5])
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
    assert 0 < INTEGRALITY_TOL < 1e-3
