"""The bijection between minimal permutations and 2-regular skew tableaux.

A minimal permutation with decreasing runs of lengths (a1, ..., ak) maps to
the standard skew tableau whose j-th column, read from its lowest cell
upward, spells the j-th run left to right: reverse each run, then
transpose.  Adjacent columns overlap in exactly two rows, which is
precisely what makes the rows of the image increase.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from typing import Sequence

from .permutations import (check_permutation, decreasing_run_lengths,
                           minimality_violation)
from .tableaux import SkewTableau, _built, is_standard, is_two_regular, shape_from_runs


def perm_to_tableau(perm: Sequence[int]) -> SkewTableau:
    """Map a minimal permutation to its 2-regular skew tableau.

    The word is checked to be a permutation and then to be minimal; a
    non-minimal word would otherwise produce a non-standard filling
    silently.

    >>> perm_to_tableau((3, 2, 1)).rows
    ((1,), (2,), (3,))
    >>> perm_to_tableau((2, 1, 4, 3)).rows
    ((1, 3), (2, 4))
    """
    w = check_permutation(perm)
    reason = minimality_violation(w)
    if reason is not None:
        raise ValueError(f"permutation {w} is not minimal: {reason}")
    runs = decreasing_run_lengths(w)
    by_cols = shape_from_runs(runs)  # row j of this shape = drawn column j
    # drawn column j is inner[j] empty cells above run j; the run decreases,
    # so read from the bottom cell upward the column spells it left to right.
    # Column lengths weakly decrease, so drawn row r is cut from the padded
    # transpose at drawn.outer[r]
    cols = [(None,) * mu + w[end - a:end][::-1]
            for mu, a, end in zip(by_cols.inner, runs, accumulate(runs))]
    drawn = by_cols.conjugated()
    return _built(SkewTableau, shape=drawn, rows=tuple(
        row[:lam] for row, lam in zip(zip_longest(*cols), drawn.outer)))


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
    # rows shorten downward, so the padding ends each column; drop it too
    return tuple(x for col in zip_longest(*t.rows)
                 for x in reversed(col) if x is not None)
