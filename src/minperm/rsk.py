"""Row insertion, the RSK correspondence, elementary Knuth moves, and the
normal form for minimal permutations of odd length with one double descent.

Straight-shape tableaux here are plain tuples of row tuples on distinct
integers.  Cells are addressed (row, column), 1-indexed, row 1 on top.
Bumping (_bump) and reverse bumping (_unbump) work in place on lists of
rows, and _rsk_steps runs the bumping over a word one letter at a time.
An insertion path visits rows 1..k in order, so _bump returns it as its
k columns alone; row_insert and rsk_trace pair them with their rows.
_word checks a word (distinct integers, by errors._check_ints), and _straight
the rows of a straight tableau, read once, with their entries through _word.

A minimal permutation of length 2n+1 with n+1 descents has exactly one
adjacent descent pair, at positions (2i-1, 2i) for some 1 <= i <= n.  Such
a word is Knuth-equivalent to the word that keeps its first 2i letters and
then lists the remaining even-position letters followed by the odd-position
ones; the chain of elementary moves realizing this is produced explicitly.
Its one schedule, _sweeps, yields (position, kind) pairs, which only
knuth_chain wraps in KnuthMoves, by tuple.__new__, as a scheduled pair needs
no check.  Moves are replayed once, in place on one list, each checked in
O(1) by comparing the three letters of its triple.

tableaux and bijection are imported inside syt_to_minimal, their one user,
so that knuth_chain and the rsk and knuth-chain commands load neither.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .errors import _Validated, _as_tuple, _check_int, _check_ints
from .permutations import _check_minimal, check_permutation, standardize

Rows = tuple[tuple[int, ...], ...]
Cell = tuple[int, int]

_PATTERNS = {"bac": (2, 1, 3), "bca": (2, 3, 1), "acb": (1, 3, 2), "cab": (3, 1, 2)}
_KINDS = {pattern: kind for kind, pattern in _PATTERNS.items()}
# offsets into the triple from its smallest letter to its largest, so that
# word[s + lo] < word[s + mid] < word[s + hi] tests a move: (1, 0, 2) for "bac"
_ORDER = {kind: tuple(sorted(range(3), key=pattern.__getitem__))
          for kind, pattern in _PATTERNS.items()}


def _bump(rows: list[list[int]], x: int) -> list[int]:
    """Row-insert x into rows in place, bumping down row by row, and return
    the insertion path as its columns: the path visits rows 1..k in order,
    one cell per row touched, and ends at the new cell in row k."""
    cols = []
    for row in rows:
        pos = bisect.bisect_left(row, x)
        cols.append(pos + 1)
        if pos == len(row):
            row.append(x)
            return cols
        x, row[pos] = row[pos], x
    rows.append([x])
    cols.append(1)
    return cols


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


def _word(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as a tuple, after checking that they are distinct integers."""
    w = _check_ints(f"{what} entries", values)
    if len(set(w)) != len(w):
        raise ValueError(f"{what} entries are not distinct: {w}")
    return w


def _straight(rows: Iterable[Sequence[int]], what: str) -> list[list[int]]:
    """rows, read once, copied as lists, after checking that they form a
    straight tableau: sequences whose entries pass _word, each row nonempty,
    increasing, no longer than the one above and strictly below it."""
    rows = _as_tuple(what, rows)
    # an exact-type test first: isinstance against Sequence costs far more
    if not all(type(row) in (tuple, list) or isinstance(row, Sequence) for row in rows):
        raise ValueError(f"{what} rows must be sequences: {rows!r}")
    tableau = [list(row) for row in rows]
    _word([x for row in tableau for x in row], what)
    # the entries are distinct from here on, so sorted means increasing
    for r, row in enumerate(tableau, start=1):
        if not row or row != sorted(row):
            raise ValueError(f"{what} row {r} is empty or not increasing: {tuple(row)}")
    for r, (above, row) in enumerate(zip(tableau, tableau[1:]), start=2):
        if len(row) > len(above) or not all(map(int.__lt__, above, row)):
            raise ValueError(f"{what} row {r} does not lie strictly below row {r - 1}: "
                             f"{_frozen(tableau)}")
    return tableau


def row_insert(rows: Iterable[Sequence[int]], value: int) -> tuple[Rows, tuple[Cell, ...]]:
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
    cols = _bump(tableau, value)
    return _frozen(tableau), tuple(enumerate(cols, start=1))


def _frozen(rows: Sequence[Sequence[int]]) -> Rows:
    return tuple(tuple(row) for row in rows)


def _rsk_steps(word: Iterable[int], p: list[list[int]],
               q: list[list[int]]) -> Iterator[list[int]]:
    """Insert the letters of a word into p in place, record each one's step
    in q, and yield each letter's insertion path as _bump's columns; the
    new cell's row is the path's length.

    Raises ValueError, when iteration starts, if _word refuses the word."""
    for step, x in enumerate(_word(word, "word"), start=1):
        cols = _bump(p, x)
        r = len(cols)
        if r > len(q):
            q.append([])
        q[r - 1].append(step)
        yield cols


def rsk_trace(word: Sequence[int]) -> tuple[Rows, Rows, tuple[tuple[Cell, ...], ...]]:
    """Full RSK run on a word of distinct integers: the insertion tableau,
    the recording tableau, and every insertion path."""
    p: list[list[int]] = []
    q: list[list[int]] = []
    paths = tuple(tuple(enumerate(cols, start=1)) for cols in _rsk_steps(word, p, q))
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


def inverse_bump(rows: Iterable[Sequence[int]], corner: Cell) -> tuple[Rows, int]:
    """Remove a removable outer corner and reverse the bumping, returning
    the shrunken tableau and the evicted value.  Exact inverse of
    row_insert: reinserting the evicted value recreates the input.

    >>> inverse_bump(((1, 3), (2, 4)), (2, 2))
    (((1, 4), (2,)), 3)
    """
    tableau = _straight(rows, "tableau")
    if not isinstance(corner, Iterable):
        raise ValueError(f"corner must be a (row, column) pair, got {corner!r}")
    r, c = _check_ints("cell coordinates", corner)
    if not (1 <= r <= len(tableau) and c == len(tableau[r - 1])):
        raise ValueError(f"cell ({r}, {c}) is not the last cell of its row")
    if r < len(tableau) and len(tableau[r]) >= c:
        raise ValueError(f"cell ({r}, {c}) has a cell below it, not a removable corner")
    x = _unbump(tableau, r - 1)
    if not tableau[-1]:
        tableau.pop()
    return _frozen(tableau), x


class KnuthMove(_Validated, NamedTuple("KnuthMove", [("position", int), ("kind", str)])):
    """An elementary Knuth transformation acting on the triple that starts
    at the 1-indexed position.  kind names the triple's pattern before the
    move with letters a < b < c: "bac" sends b a c to b c a, "acb" sends
    a c b to c a b, and "bca"/"cab" are their inverses."""

    __slots__ = ()

    def __new__(cls, position: int, kind: str):
        _check_int("position", position)
        if not isinstance(kind, str) or kind not in _PATTERNS:
            raise ValueError(f"unknown move kind {kind!r}")
        return tuple.__new__(cls, (position, kind))

    def inverse(self) -> "KnuthMove":
        # the pattern a move leaves, the inverse's kind, has letters 1 and 3 exchanged
        return KnuthMove(self.position, _KINDS[tuple(4 - v for v in _PATTERNS[self.kind])])


def _knuth_swap(word: list[int], t: int, kind: str) -> int:
    """Apply the elementary move kind at the 1-indexed position t to word in
    place, in O(1), and return the 0-indexed j of the swapped word[j], word[j+1].

    Raises ValueError naming the pattern actually found when the triple
    does not match kind; the word is then left unchanged.
    """
    if not 1 <= t <= len(word) - 2:
        raise ValueError(f"no triple starts at position {t} in a word of length {len(word)}")
    lo, mid, hi = _ORDER[kind]
    s = t - 1
    if not word[s + lo] < word[s + mid] < word[s + hi]:
        triple = tuple(word[s:s + 3])
        found = standardize(triple)
        raise ValueError(f"triple {triple} at position {t} has pattern "
                         f"{_KINDS.get(found, found)}, not {kind}")
    # every move swaps the triple's smallest and largest letters, which are adjacent
    j = s + min(lo, hi)
    word[j], word[j + 1] = word[j + 1], word[j]
    return j


def apply_knuth_move(word: Sequence[int], move: KnuthMove) -> tuple[int, ...]:
    """Apply one elementary Knuth move to a word of distinct integers; the
    insertion tableau is unchanged.

    Raises ValueError naming the pattern actually found when the triple
    does not match the move's kind.
    """
    w = list(_word(word, "word"))
    _knuth_swap(w, move.position, move.kind)
    return tuple(w)


def legal_knuth_moves(word: Sequence[int]) -> list[KnuthMove]:
    """All elementary moves applicable to a word of distinct integers."""
    w = _word(word, "word")
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
    w, runs = _check_minimal(perm)
    if len(w) % 2 == 0:
        raise ValueError(f"length must be odd, got {len(w)}")
    n = (len(w) - 1) // 2
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
    w = check_permutation(perm)
    n, i = double_descent_class(w)
    return w[:2 * i] + w[2 * i + 1:2 * n:2] + w[2 * i::2]


def _sweeps(n: int, i: int) -> Iterator[tuple[int, str]]:
    """The chain's schedule for the class (n, i) as (position, kind) pairs:
    sweep s first pulls one even-position letter forward with a "bac" move
    at position 2i+s-1, then pushes the odd-position letters one slot back
    with "acb" moves marching right two positions at a time, (n-i)(n-i+1)/2
    moves in all."""
    for s in range(1, n - i + 1):
        yield 2 * i + s - 1, "bac"
        for q in range(2 * i + s + 2, 2 * n - s + 1, 2):
            yield q, "acb"


def knuth_chain(perm: Sequence[int]) -> list[KnuthMove]:
    """The elementary moves of _sweeps carrying the word to
    even_odd_split(perm), replayed once in place and checked to end there.

    >>> knuth_chain((3, 2, 1))
    []
    >>> [(m.position, m.kind) for m in knuth_chain((3, 2, 1, 5, 4))]
    [(2, 'bac')]
    """
    w = check_permutation(perm)
    n, i = double_descent_class(w)
    moves: list[KnuthMove] = []
    word = list(w)
    for t, kind in _sweeps(n, i):
        _knuth_swap(word, t, kind)
        moves.append(tuple.__new__(KnuthMove, (t, kind)))
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


def syt_to_minimal(rows: Iterable[Sequence[int]], i: int) -> tuple[int, ...]:
    """Inverse of minimal_to_syt for a target double-descent index i.

    The cells outside the two-row shape (n, i) are evicted from northeast
    to southwest by inverse bumping; the evicted values, stacked right to
    left as a new top row over the remaining two rows, form a 2-regular
    skew tableau whose column reading is the reconstructed permutation.
    The forward map is re-applied to confirm the round trip.  The same
    tableau can be inverted for several i, so i is an explicit argument.
    """
    from .bijection import tableau_to_perm
    from .tableaux import SkewShape, SkewTableau
    _check_int("i", i)
    current = _straight(rows, "tableau")
    p = _frozen(current)
    if len(p) != 3:
        raise ValueError(f"expected a three-row tableau, got {len(p)} rows")
    n, k = len(p[0]), len(p[2])
    if len(p[1]) != n + 1 - k:
        raise ValueError(f"expected shape (n, n+1-k, k), got {tuple(map(len, p))}")
    if not 1 <= k <= min(i, n - i + 1):
        raise ValueError(f"third row length {k} is incompatible with i={i}")
    # row 2 beyond column i, then all of row 3, each from the right; k <= i
    # leaves every such cell a removable corner
    evicted = [_unbump(current, 1) for _ in range(n + 1 - k - i)]
    evicted += [_unbump(current, 2) for _ in range(k)]
    top = (None,) * (i - 1) + tuple(reversed(evicted))
    skew = SkewTableau(SkewShape((n, n, i), (i - 1,)), (top, current[0], current[1]))
    perm = tableau_to_perm(skew)
    if minimal_to_syt(perm) != p or double_descent_class(perm) != (n, i):
        raise ValueError(f"tableau {p} with i={i} fails the forward round trip")
    return perm
