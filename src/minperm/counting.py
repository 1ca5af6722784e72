"""Exact counting formulas for minimal permutations and the associated
tableau families.

Every result is an arbitrary-precision integer, computed with integers
only.  Formulas involving division (Catalan numbers, the three-row tableau
counts, the odd-length product formula, the half-integer polynomial) divide
through the exact-division guard tableaux._exact_div, which raises unless
the quotient is a nonnegative integer.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .tableaux import _exact_div, shape_from_runs, skew_syt_count


def catalan(n: int) -> int:
    """The n-th Catalan number, C(2n, n) / (n + 1), exactly.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _exact_div(math.comb(2 * n, n), n + 1, lambda: f"Catalan number at n={n}")


def compositions_min2(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k parts, every part >= 2, in lexicographic
    order.  There are C(n-k-1, k-1) of them.

    >>> list(compositions_min2(7, 3))
    [(2, 2, 3), (2, 3, 2), (3, 2, 2)]
    >>> list(compositions_min2(5, 3))
    []
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")

    def rec(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(2, total - 2 * (parts - 1) + 1):
            for rest in rec(total - first, parts - 1):
                yield (first,) + rest

    return rec(n, k)


def minimal_count_by_runs(runs: Sequence[int]) -> int:
    """Number of minimal permutations with the given decreasing-run
    lengths: the skew-tableau determinant skew_syt_count on
    shape_from_runs(runs).  Adjacent columns of that shape share exactly
    two rows, so its matrix is the paper's banded one: reciprocal
    factorials 1/((sum of parts i..j) - (j - i))! on and above the
    diagonal, ones on the subdiagonal, a 1 two below the diagonal exactly
    when the part in between equals 2, and zeros further down.

    >>> minimal_count_by_runs((2, 2))
    2
    >>> minimal_count_by_runs((3, 3))
    14
    >>> minimal_count_by_runs((2, 2, 2))
    5
    """
    return skew_syt_count(shape_from_runs(runs))


def minimal_count(n: int, d: int) -> int:
    """Number of minimal permutations of length n with d descents: the sum
    of minimal_count_by_runs over all run-length compositions.  Zero outside
    the band d + 1 <= n <= 2d.

    >>> minimal_count(6, 3)
    5
    >>> minimal_count(4, 3)
    1
    >>> minimal_count(9, 2)
    0
    """
    if d < 1 or n < d + 1 or n > 2 * d:
        return 0
    return sum(minimal_count_by_runs(a) for a in compositions_min2(n, n - d))


def one_ascent_count(n: int) -> int:
    """Closed form for minimal permutations of length n with n - 2 descents
    (exactly one ascent): 2^n - n(n-1) - 2.

    >>> one_ascent_count(5)
    10
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    return 2 ** n - n * (n - 1) - 2


def two_ascent_count(n: int) -> int:
    """Closed form for minimal permutations of length n with n - 3 descents
    (two ascents): 3^n - (n^2 - 2n + 4) 2^(n-1) + (n^4 - 7n^3 + 19n^2 -
    21n + 2) / 2, the polynomial part being provably even.

    >>> [two_ascent_count(n) for n in (5, 6, 7)]
    [0, 5, 84]
    """
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    poly = n ** 4 - 7 * n ** 3 + 19 * n ** 2 - 21 * n + 2
    half = _exact_div(poly, 2, lambda: f"half the polynomial part at n={n}")
    return 3 ** n - (n * n - 2 * n + 4) * 2 ** (n - 1) + half


def mansour_yan(n: int) -> int:
    """The product formula 2^(n-2) * n * catalan(n+1) counting minimal
    permutations of length 2n+1 with n+1 descents, as 2^n * n * catalan(n+1)
    divided exactly by 4 so that n = 1 stays an integer.

    >>> [mansour_yan(n) for n in (1, 2, 3, 4)]
    [1, 10, 84, 672]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _exact_div(2 ** n * n * catalan(n + 1), 4, lambda: f"odd-length count at n={n}")


def double_descent_count(n: int, i: int) -> int:
    """Minimal permutations of length 2n+1 with n+1 descents whose single
    adjacent descent pair sits at positions (2i-1, 2i):
    C(2n+1, n-1) * C(n-1, i-1).

    >>> double_descent_count(2, 1), double_descent_count(3, 2)
    (5, 42)
    """
    if not 1 <= i <= n:
        raise ValueError(f"i must be in 1..{n}, got {i}")
    return math.comb(2 * n + 1, n - 1) * math.comb(n - 1, i - 1)


def three_row_syt_count(n: int, k: int) -> int:
    """Standard Young tableaux of shape (n, n+1-k, k): C(2n+1, n-1) when
    k = 1, and (n-2k+2)/(k-1) * C(n-1, k-2) * C(2n+1, n-1) for k >= 2,
    with the division exact.

    >>> three_row_syt_count(3, 1), three_row_syt_count(3, 2), three_row_syt_count(4, 2)
    (21, 21, 168)
    """
    if not 1 <= k <= (n + 1) // 2:
        raise ValueError(f"k must be in 1..{(n + 1) // 2}, got {k}")
    base = math.comb(2 * n + 1, n - 1)
    if k == 1:
        return base
    return _exact_div((n - 2 * k + 2) * math.comb(n - 1, k - 2) * base, k - 1,
                      lambda: f"three-row tableau count (n={n}, k={k})")
