"""The bijection between minimal permutations and 2-regular skew tableaux.

A minimal permutation with decreasing runs of lengths (a1, ..., ak) maps to
the standard skew tableau whose j-th column, read from its lowest cell
upward, spells the j-th run left to right.  Adjacent columns overlap in
exactly two rows, which is precisely what makes the rows of the image
increase.
"""

from __future__ import annotations

from typing import Sequence

from .permutations import decreasing_run_lengths, minimality_violation
from .tableaux import (SkewTableau, is_standard, is_two_regular,
                       shape_from_runs)


def perm_to_tableau(perm: Sequence[int]) -> SkewTableau:
    """Map a minimal permutation to its 2-regular skew tableau.

    Minimality is validated on entry; a non-minimal word would otherwise
    produce a non-standard filling silently.

    >>> perm_to_tableau((3, 2, 1)).rows
    ((1,), (2,), (3,))
    >>> perm_to_tableau((2, 1, 4, 3)).rows
    ((1, 3), (2, 4))
    """
    w = tuple(perm)
    reason = minimality_violation(w)
    if reason is not None:
        raise ValueError(f"permutation {w} is not minimal: {reason}")
    runs = decreasing_run_lengths(w)
    by_cols = shape_from_runs(runs)  # row j of this shape = drawn column j
    shape = by_cols.conjugated()
    grid = {}
    pos = 0
    for j, run_length in enumerate(runs):
        run = w[pos:pos + run_length]
        pos += run_length
        top = by_cols.inner[j] + 1
        # the run is decreasing, so reading the column bottom-to-top spells
        # it left to right; top-to-bottom it goes reversed
        for offset, value in enumerate(reversed(run)):
            grid[(top + offset, j + 1)] = value
    rows = tuple(
        tuple(grid.get((i, c)) for c in range(1, shape.outer[i - 1] + 1))
        for i in range(1, shape.row_count + 1))
    return SkewTableau(shape, rows)


def tableau_to_perm(t: SkewTableau) -> tuple[int, ...]:
    """Inverse map: read each column from its lowest cell upward, columns
    left to right.  Requires a standard 2-regular input.

    >>> tableau_to_perm(perm_to_tableau((3, 1, 4, 2)))
    (3, 1, 4, 2)
    """
    if not is_standard(t):
        raise ValueError("tableau is not standard")
    if not is_two_regular(t):
        raise ValueError("tableau is not 2-regular")
    word = []
    for c in range(1, t.shape.column_count + 1):
        span = t.shape.column_rows(c)
        word.extend(t.rows[i - 1][c - 1] for i in reversed(span))
    return tuple(word)
