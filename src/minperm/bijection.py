"""The bijection between minimal permutations and 2-regular skew tableaux.

A minimal permutation with decreasing runs of lengths (a1, ..., ak) maps to
the standard skew tableau whose j-th column, read from its lowest cell
upward, spells the j-th run left to right: reverse each run, then
transpose.  Adjacent columns overlap in exactly two rows, which is
precisely what makes the rows of the image increase.

Each direction validates its input in one pass.  perm_to_tableau checks
the word, then draws the shape straight from its run lengths.
tableau_to_perm reads the columns and decides standard and 2-regular on
what it read: see _column_word, whose oracle is is_standard and
is_two_regular, the tests it replaces.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .errors import _check_type
from .permutations import _check_minimal
from .tableaux import SkewShape, SkewTableau, is_standard


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
    w, runs = _check_minimal(perm)
    k = len(runs)
    # drawn column j holds run j in a_j rows and shares its top two with
    # column j + 1 and its bottom two with column j - 1.  So top down, the
    # rows end in the last column twice, then in column j a_j - 2 times for
    # each j right to left; and they start in column j a_j - 2 times for
    # each j right to left, then twice in column 0
    ends = [j for j in range(k - 1, -1, -1) for _ in range(runs[j] - 2)]
    inner, outer = (*ends, 0, 0), (k, k, *[j + 1 for j in ends])
    # column j reads run j from its lowest cell upward, and the bottom cell
    # of column 0 is w[0]: a step up reads one letter on, and a step right
    # two, as run j + 1 starts a_j letters on and ends a_j - 2 rows higher
    last = len(outer) - 1
    rows = tuple((None,) * mu + w[last - r + 2 * mu:last - r + 2 * lam - 1:2]
                 for r, (mu, lam) in enumerate(zip(inner, outer)))
    return tuple.__new__(SkewTableau, (tuple.__new__(SkewShape, (outer, inner)), rows))


def _column_word(t: SkewTableau) -> tuple[int, ...] | None:
    """The column reading of t if t is standard and 2-regular, else None:
    tableau_to_perm's test, decided in one pass over the columns.  Its
    oracle is is_standard(t) and is_two_regular(t).

    Column c holds the rows [lo, hi), read here top down.  t is 2-regular
    when column 0 has two cells or more and every other column ends two rows
    below the top of the column to its left, so that the two share exactly
    those rows.  It is then standard when its reading is a permutation of
    1..N, each column increases downward, and in the two rows that adjacent
    columns share the left cell is the smaller: no other cell has a right
    neighbour in its row."""
    word: list[int] = []
    left: list[int] = []  # the column to the left, top down; its top row is left_lo
    left_lo = 0
    for col in zip_longest(*t.rows):
        # the inner cells and the padding past shorter rows are the None
        # above and below the column's cells
        cells = [x for x in col if x is not None]
        if len(cells) < 2 or cells != sorted(cells):
            return None
        lo = col.index(cells[0])
        if left and not (lo + len(cells) == left_lo + 2
                         and left[0] < cells[-2] and left[1] < cells[-1]):
            return None
        word += reversed(cells)
        left, left_lo = cells, lo
    # the columns only weakly increase until the values are known distinct
    n = len(word)
    return tuple(word) if n and sorted(word) == list(range(1, n + 1)) else None


def tableau_to_perm(t: SkewTableau) -> tuple[int, ...]:
    """Inverse map: read each column from its lowest cell upward, columns
    left to right.  Requires a standard 2-regular input; is_standard runs
    only to word the refusal, which names standardness first.

    >>> tableau_to_perm(perm_to_tableau((3, 1, 4, 2)))
    (3, 1, 4, 2)
    """
    _check_type("tableau", t, SkewTableau)
    word = _column_word(t)
    if word is None:
        raise ValueError("tableau is not standard" if not is_standard(t)
                         else "tableau is not 2-regular")
    return word
