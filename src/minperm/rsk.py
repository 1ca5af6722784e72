"""Row insertion, the RSK correspondence, elementary Knuth moves, and the
normal form for minimal permutations of odd length with one double descent.

Straight-shape tableaux here are plain tuples of row tuples on distinct
integers.  Cells are addressed (row, column), 1-indexed, row 1 on top.
Bumping (_bump) and reverse bumping (_unbump) work in place on lists of
rows; row_insert and inverse_bump wrap them on copies that _straight has
checked, and _rsk_steps runs the bumping over a word one letter at a time.

A minimal permutation of length 2n+1 with n+1 descents has exactly one
adjacent descent pair, at positions (2i-1, 2i) for some 1 <= i <= n.  Such
a word is Knuth-equivalent to the word that keeps its first 2i letters and
then lists the remaining even-position letters followed by the odd-position
ones; the chain of elementary moves realizing this is produced explicitly.
Moves are applied in place on one list, and each move's legality is checked
in O(1) by comparing the three letters of its triple.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bijection import tableau_to_perm
from .errors import _check_int
from .permutations import (check_permutation, decreasing_run_lengths,
                           minimality_violation, standardize)
from .tableaux import SkewShape, SkewTableau

Rows = tuple[tuple[int, ...], ...]
Cell = tuple[int, int]

_PATTERNS = {"bac": (2, 1, 3), "bca": (2, 3, 1), "acb": (1, 3, 2), "cab": (3, 1, 2)}
_SWAP_FIRST = {"acb", "cab"}
_INVERSE = {"bac": "bca", "bca": "bac", "acb": "cab", "cab": "acb"}
_KINDS = {pattern: kind for kind, pattern in _PATTERNS.items()}
# offsets into the triple from its smallest letter to its largest, so that
# word[s + lo] < word[s + mid] < word[s + hi] tests a move: (1, 0, 2) for "bac"
_ORDER = {kind: tuple(sorted(range(3), key=pattern.__getitem__))
          for kind, pattern in _PATTERNS.items()}


def _bump(rows: list[list[int]], x: int) -> list[Cell]:
    """Row-insert x into rows in place, bumping down row by row, and return
    the insertion path, one cell per row touched, ending at the new cell."""
    path = []
    for r, row in enumerate(rows, start=1):
        pos = bisect.bisect_left(row, x)
        path.append((r, pos + 1))
        if pos == len(row):
            row.append(x)
            return path
        x, row[pos] = row[pos], x
    rows.append([x])
    path.append((len(rows), 1))
    return path


def _unbump(rows: list[list[int]], r: int) -> int:
    """Remove the last cell of the 0-indexed row r in place, reverse the
    bumping up through the rows above, and return the value evicted from
    the top row.  An emptied row is left in place."""
    x = rows[r].pop()
    for i in range(r - 1, -1, -1):
        row = rows[i]
        pos = bisect.bisect_left(row, x) - 1
        if pos < 0:
            raise ValueError("rows are not column-strict above the corner")
        x, row[pos] = row[pos], x
    return x


def _straight(rows: Sequence[Sequence[int]], what: str) -> list[list[int]]:
    """rows copied as lists, after checking that they form a straight
    tableau: distinct integers, every row nonempty and increasing, and each
    row no longer than the one above and strictly below it, column by column."""
    tableau = [list(row) for row in rows]
    cells = [x for row in tableau for x in row]
    if any(type(x) is not int for x in cells):  # exact type: no bool, no float
        raise ValueError(f"{what} entries must be integers: {_frozen(tableau)}")
    if len(set(cells)) != len(cells):
        raise ValueError(f"{what} entries are not distinct: {_frozen(tableau)}")
    for r, row in enumerate(tableau, start=1):
        if not row or any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"{what} row {r} is empty or not increasing: {tuple(row)}")
    for r, (above, row) in enumerate(zip(tableau, tableau[1:]), start=2):
        if len(row) > len(above) or any(a >= b for a, b in zip(above, row)):
            raise ValueError(f"{what} row {r} does not lie strictly below row {r - 1}: "
                             f"{_frozen(tableau)}")
    return tableau


def row_insert(rows: Sequence[Sequence[int]], value: int) -> tuple[Rows, tuple[Cell, ...]]:
    """Classic bumping insertion.  Returns the new tableau and the insertion
    path, one cell per row touched, ending at the newly created cell.

    >>> row_insert((), 5)
    (((5,),), ((1, 1),))
    >>> row_insert(((1, 4), (2,)), 3)
    (((1, 3), (2, 4)), ((1, 2), (2, 2)))
    """
    tableau = _straight(rows, "tableau")
    _check_int("value", value)
    for row in tableau:
        if value in row:
            raise ValueError(f"value {value} is already present")
    path = _bump(tableau, value)
    return tuple(tuple(row) for row in tableau), tuple(path)


def _frozen(rows: list[list[int]]) -> Rows:
    return tuple(tuple(row) for row in rows)


def _rsk_steps(word: Sequence[int], p: list[list[int]],
               q: list[list[int]]) -> Iterator[list[Cell]]:
    """Insert the letters of a word of distinct integers into p in place,
    record each one's step in q, and yield each letter's insertion path.

    Raises ValueError, when iteration starts, if the letters repeat."""
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"entries are not distinct: {w}")
    for step, x in enumerate(w, start=1):
        path = _bump(p, x)
        r, _ = path[-1]
        if r > len(q):
            q.append([])
        q[r - 1].append(step)
        yield path


def rsk_trace(word: Sequence[int]) -> tuple[Rows, Rows, tuple[tuple[Cell, ...], ...]]:
    """Full RSK run on a word of distinct integers: the insertion tableau,
    the recording tableau, and every insertion path."""
    p: list[list[int]] = []
    q: list[list[int]] = []
    paths = tuple(tuple(path) for path in _rsk_steps(word, p, q))
    return _frozen(p), _frozen(q), paths


def rsk(word: Sequence[int]) -> tuple[Rows, Rows]:
    """Insertion and recording tableaux of the same shape; the word is
    recoverable through rsk_inverse.

    >>> rsk((2, 1, 4, 3))
    (((1, 3), (2, 4)), ((1, 3), (2, 4)))
    >>> rsk((3, 2, 1, 5, 4))[0]
    ((1, 4), (2, 5), (3,))
    """
    p: list[list[int]] = []
    q: list[list[int]] = []
    for _ in _rsk_steps(word, p, q):
        pass
    return _frozen(p), _frozen(q)


def insertion_tableau(word: Sequence[int]) -> Rows:
    return rsk(word)[0]


def rsk_inverse(p: Rows, q: Rows) -> tuple[int, ...]:
    """Recover the inserted word from an (insertion, recording) pair.

    Both are checked to be straight tableaux of one shape, and q to hold
    1..n; the largest step left in q is then always a corner of what is
    left of p, where its letter was placed."""
    rows = _straight(p, "insertion tableau")
    recording = _straight(q, "recording tableau")
    row_of = {v: i for i, row in enumerate(recording) for v in row}
    if sorted(row_of) != list(range(1, len(row_of) + 1)):
        raise ValueError("recording tableau is not standard on 1..n")
    if list(map(len, rows)) != list(map(len, recording)):
        raise ValueError("recording tableau does not match the insertion shape")
    word = [_unbump(rows, row_of[step]) for step in range(len(row_of), 0, -1)]
    return tuple(reversed(word))


def inverse_bump(rows: Sequence[Sequence[int]], corner: Cell) -> tuple[Rows, int]:
    """Remove a removable outer corner and reverse the bumping, returning
    the shrunken tableau and the evicted value.  Exact inverse of
    row_insert: reinserting the evicted value recreates the input.

    >>> inverse_bump(((1, 3), (2, 4)), (2, 2))
    (((1, 4), (2,)), 3)
    """
    tableau = _straight(rows, "tableau")
    r, c = corner
    if type(r) is not int or type(c) is not int:  # exact type: no bool, no float
        raise ValueError(f"cell coordinates must be integers: ({r!r}, {c!r})")
    if not (1 <= r <= len(tableau) and c == len(tableau[r - 1])):
        raise ValueError(f"cell {corner} is not the last cell of its row")
    if r < len(tableau) and len(tableau[r]) >= c:
        raise ValueError(f"cell {corner} has a cell below it, not a removable corner")
    x = _unbump(tableau, r - 1)
    if not tableau[-1]:
        tableau.pop()
    return tuple(tuple(row) for row in tableau), x


@dataclass(frozen=True)
class KnuthMove:
    """An elementary Knuth transformation acting on the triple that starts
    at the 1-indexed position.  kind names the triple's pattern before the
    move with letters a < b < c: "bac" sends b a c to b c a, "acb" sends
    a c b to c a b, and "bca"/"cab" are their inverses."""

    position: int
    kind: str

    def __post_init__(self):
        if self.kind not in _PATTERNS:
            raise ValueError(f"unknown move kind {self.kind!r}")

    def inverse(self) -> "KnuthMove":
        return KnuthMove(self.position, _INVERSE[self.kind])


def _knuth_swap(word: list[int], move: KnuthMove) -> int:
    """Apply one elementary Knuth move to word in place, in O(1), and return
    the 0-indexed position j of the swapped pair word[j], word[j+1].

    Raises ValueError naming the pattern actually found when the triple
    does not match the move's kind; the word is then left unchanged.
    """
    t = move.position
    if not 1 <= t <= len(word) - 2:
        raise ValueError(f"no triple starts at position {t} in a word of length {len(word)}")
    lo, mid, hi = _ORDER[move.kind]
    s = t - 1
    if not word[s + lo] < word[s + mid] < word[s + hi]:
        triple = tuple(word[s:s + 3])
        found = standardize(triple)
        raise ValueError(f"triple {triple} at position {t} has pattern "
                         f"{_KINDS.get(found, found)}, not {move.kind}")
    j = s if move.kind in _SWAP_FIRST else t
    word[j], word[j + 1] = word[j + 1], word[j]
    return j


def apply_knuth_move(word: Sequence[int], move: KnuthMove) -> tuple[int, ...]:
    """Apply one elementary Knuth move; the insertion tableau is unchanged.

    Raises ValueError naming the pattern actually found when the triple
    does not match the move's kind.
    """
    w = list(word)
    _knuth_swap(w, move)
    return tuple(w)


def legal_knuth_moves(word: Sequence[int]) -> list[KnuthMove]:
    """All elementary moves applicable to the word."""
    w = tuple(word)
    moves = []
    for t in range(1, len(w) - 1):
        kind = _KINDS.get(standardize(w[t - 1:t + 2]))
        if kind is not None:
            moves.append(KnuthMove(t, kind))
    return moves


def double_descent_class(perm: Sequence[int]) -> tuple[int, int]:
    """Validate that perm is minimal of odd length 2n+1 with n+1 descents;
    return (n, i) for its one adjacent descent pair (2i-1, 2i).

    Minimality makes every decreasing run at least 2 long, so the n runs
    that n+1 descents leave in 2n+1 letters are one 3 and n-1 2s.  The 3
    is run i: it starts at position 2i-1 and holds the descents 2i-1, 2i."""
    w = check_permutation(perm)
    reason = minimality_violation(w)
    if reason is not None:
        raise ValueError(f"{w} is not minimal: {reason}")
    if len(w) % 2 == 0:
        raise ValueError(f"length must be odd, got {len(w)}")
    n = (len(w) - 1) // 2
    runs = decreasing_run_lengths(w)
    if len(runs) != n:
        raise ValueError(f"{w} has {len(w) - len(runs)} descents, expected {n + 1}")
    return n, runs.index(3) + 1


def even_odd_split(perm: Sequence[int]) -> tuple[int, ...]:
    """The Knuth-equivalent word keeping the first 2i letters, then the
    remaining even-position letters in order, then the odd-position ones.

    >>> even_odd_split((3, 2, 1, 5, 4))
    (3, 2, 5, 1, 4)
    >>> even_odd_split((3, 2, 1))
    (3, 2, 1)
    """
    w = tuple(perm)
    n, i = double_descent_class(w)
    return w[:2 * i] + w[2 * i + 1:2 * n:2] + w[2 * i::2]


def knuth_chain(perm: Sequence[int]) -> list[KnuthMove]:
    """Elementary moves carrying the word to even_odd_split(perm).

    Sweep s first pulls one even-position letter forward with a "bac" move
    at position 2i+s-1, then pushes the odd-position letters one slot back
    with "acb" moves marching right two positions at a time, (n-i)(n-i+1)/2
    moves in all.  The moves are applied in place on one list, and the
    legality of each is checked in O(1).

    >>> knuth_chain((3, 2, 1))
    []
    >>> [(m.position, m.kind) for m in knuth_chain((3, 2, 1, 5, 4))]
    [(2, 'bac')]
    """
    w = tuple(perm)
    n, i = double_descent_class(w)
    moves: list[KnuthMove] = []
    word = list(w)
    for s in range(1, n - i + 1):
        moves.append(KnuthMove(2 * i + s - 1, "bac"))
        moves.extend(KnuthMove(q, "acb") for q in range(2 * i + s + 2, 2 * n - s + 1, 2))
    for move in moves:
        _knuth_swap(word, move)
    if tuple(word) != even_odd_split(w):
        raise AssertionError(f"sweep schedule for {w} ended at {tuple(word)}")
    return moves


def minimal_to_syt(perm: Sequence[int]) -> Rows:
    """Insertion tableau of a class member.  Its shape is (n, n+1-k, k) for
    some k at most min(i, n-i+1); anything else signals a bug.

    >>> minimal_to_syt((3, 2, 1, 5, 4))
    ((1, 4), (2, 5), (3,))
    """
    n, i = double_descent_class(perm)
    p = insertion_tableau(perm)
    shape = tuple(len(row) for row in p)
    k = shape[2] if len(shape) == 3 else 0
    if len(shape) != 3 or shape != (n, n + 1 - k, k) or not 1 <= k <= min(i, n - i + 1):
        raise AssertionError(f"insertion tableau of {tuple(perm)} has shape {shape}, "
                             f"outside the (n, n+1-k, k) family for i={i}")
    return p


def syt_to_minimal(rows: Sequence[Sequence[int]], i: int) -> tuple[int, ...]:
    """Inverse of minimal_to_syt for a target double-descent index i.

    The cells outside the two-row shape (n, i) are evicted from northeast
    to southwest by inverse bumping; the evicted values, stacked right to
    left as a new top row over the remaining two rows, form a 2-regular
    skew tableau whose column reading is the reconstructed permutation.
    The forward map is re-applied to confirm the round trip.  The same
    tableau can be inverted for several i, so i is an explicit argument.
    """
    p = tuple(tuple(r) for r in rows)
    if len(p) != 3:
        raise ValueError(f"expected a three-row tableau, got {len(p)} rows")
    n, k = len(p[0]), len(p[2])
    if len(p[1]) != n + 1 - k:
        raise ValueError(f"expected shape (n, n+1-k, k), got {tuple(map(len, p))}")
    if not 1 <= k <= min(i, n - i + 1):
        raise ValueError(f"third row length {k} is incompatible with i={i}")
    # row 2 beyond column i, then all of row 3, each from the right; k <= i
    # leaves every such cell a removable corner
    current = [list(r) for r in p]
    evicted = [_unbump(current, 1) for _ in range(n + 1 - k - i)]
    evicted += [_unbump(current, 2) for _ in range(k)]
    top = (None,) * (i - 1) + tuple(reversed(evicted))
    skew = SkewTableau(SkewShape((n, n, i), (i - 1,)), (top, current[0], current[1]))
    perm = tableau_to_perm(skew)
    if minimal_to_syt(perm) != p or double_descent_class(perm) != (n, i):
        raise ValueError(f"tableau {p} with i={i} fails the forward round trip")
    return perm
