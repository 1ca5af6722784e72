"""Exact counting formulas for minimal permutations and the associated
tableau families.

Every result is an arbitrary-precision integer, computed with integers
only.  Formulas involving division (Catalan numbers, the three-row tableau
counts, the odd-length product formula, the half-integer polynomial) divide
through the exact-division guard tableaux._exact_div, which raises unless
the quotient is a nonnegative integer.

minimal_count sums the banded determinant over every run profile of
(n, d) at once, by an integer dynamic program over the matrix columns
(_column_counts) whose cost is polynomial in n.  The composition sum it
replaced, minimal_count_by_runs over compositions_min2, is kept for
per-profile counts and serves the tests as its oracle.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import _check_int
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


def _column_counts(n: int, lo: int, hi: int) -> dict[int, int]:
    """minimal_count(n, d) for every d in lo..hi, with d + 1 <= n <= 2d,
    by one integer dynamic program over the columns of the banded matrix.

    For a run profile a of k parts let U_0 = 0 and U_i = U_{i-1} + a_i - 1,
    so that U_k = d.  Row i of the banded matrix carries U_{i-1}, column c
    carries U_c, and the entry is 1/(U_c - U_{i-1} + 1)!.  Column c is
    therefore zero from row c + 3 on, and its row c + 2 entry is nonzero
    (and equal to 1/0!) exactly when U_{c+1} = U_c + 1.  Expanding n! * det
    over permutations, every term assigns each column a row; its exponents
    e sum to n, so n!/prod e! is the product over columns of C(S + e, e),
    with S the exponent sum of the earlier columns.  The term's sign is the
    product over columns of (-1)^(the position of the row taken among the
    rows still free, older rows first).

    Columns are assigned in order, summing over the profiles as the U_c are
    chosen.  After column c, with u = U_c, exactly two of the rows 1..c+2
    are free, and the state records their values:
      A (u, x): row c + 2 and one older row, of value x; S = x + c.
      B (u, x1, x2): two older rows, x1 < x2; column c took row c + 2,
        which forces U_{c+1} = u + 1; S = x1 + x2 + c - u - 1.
    A profile of k parts is complete when rows k + 1 and k + 2 are the free
    ones, that is in an A state with x = u after column k, which counts
    towards d = u at n = u + k.  u + c grows by at least 2 per column, so a
    state with u + c = n is final, and u - c never falls, so it stays at
    most 2 * hi - n.
    """
    slack = 2 * hi - n
    counts: dict[int, int] = {}
    a: dict[int, dict[int, int]] = {0: {0: 1}}  # A weights: x -> {u: weight}
    b: dict[tuple[int, int, int], int] = {}      # B weights: (u, x1, x2) -> weight
    for c in range(n - lo):
        c1 = c + 1
        top = min(n - c1, c1 + slack)        # the largest U_{c1}
        top_b = min(n - c1 - 2, c1 + slack)  # ... that still lets U_{c1+1} = U_{c1} + 1
        new_a: dict[int, dict[int, int]] = {}
        new_b: dict[tuple[int, int, int], int] = {}
        taken_x: dict[int, int] = {}  # U_{c1} -> weight of A(U_{c1}, U_{c1})
        for x, weights in a.items():
            row = new_a.setdefault(x, {})
            below = 0  # the A(u, x) weight summed over u < u1
            for u1 in range(min(weights) + 1, top + 1):
                below += weights.get(u1 - 1, 0)
                # take row x (e = u1 - x + 1, position 0), row c1 + 1
                # (e = 1, position 1) or row c1 + 2 (e = 0, position 2)
                taken_x[u1] = taken_x.get(u1, 0) + below * math.comb(c + u1 + 1, u1 - x + 1)
                row[u1] = row.get(u1, 0) - (x + c + 1) * below
                if u1 <= top_b:
                    new_b[u1, x, u1] = new_b.get((u1, x, u1), 0) + below
        for (u, x1, x2), w in b.items():
            # take row x1 (position 0), x2 (position 1) or c1 + 2 (position 2)
            u1 = u + 1
            row = new_a.setdefault(x2, {})
            row[u1] = row.get(u1, 0) + w * math.comb(x2 + c + 1, u1 + 1 - x1)
            row = new_a.setdefault(x1, {})
            row[u1] = row.get(u1, 0) - w * math.comb(x1 + c + 1, u1 + 1 - x2)
            if u1 <= top_b:
                new_b[u1, x1, x2] = new_b.get((u1, x1, x2), 0) + w
        for u1, w in taken_x.items():
            if u1 + c1 == n:
                counts[u1] = w
            else:
                row = new_a.setdefault(u1, {})
                row[u1] = row.get(u1, 0) + w
        a = {}
        for x, weights in new_a.items():
            live = {u: w for u, w in weights.items() if w and u + c1 < n}
            if live:
                a[x] = live
        b = {key: w for key, w in new_b.items() if w}
    return counts


def minimal_count(n: int, d: int) -> int:
    """Number of minimal permutations of length n with d descents: the sum
    of minimal_count_by_runs over the compositions of n into n - d parts
    >= 2, evaluated by the column program _column_counts restricted to
    those n - d columns.  Zero outside the band d + 1 <= n <= 2d.

    >>> minimal_count(6, 3)
    5
    >>> minimal_count(4, 3)
    1
    >>> minimal_count(9, 2)
    0
    """
    _check_int("n", n)
    _check_int("d", d)
    if d < 1 or n < d + 1 or n > 2 * d:
        return 0
    return _column_counts(n, d, d)[d]


def minimal_count_band(n: int) -> dict[int, int]:
    """minimal_count(n, d) for every d of the band (n + 1) // 2 <= d < n,
    all from one pass of the column program.

    >>> minimal_count_band(6)
    {3: 5, 4: 32, 5: 1}
    """
    _check_int("n", n)
    band = range((n + 1) // 2, n)
    if not band:
        return {}
    counts = _column_counts(n, band[0], band[-1])
    return {d: counts[d] for d in band}


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
