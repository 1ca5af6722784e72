"""Partitions, skew shapes, standard skew tableaux, and exact counting.

English convention throughout: row 1 is the top row, cells are addressed
(row, column) 1-indexed, and entries increase along rows and down columns.
A partition is a weakly decreasing tuple of positive integers.

Drawn column j of a skew shape is row j of shape.conjugated().  Public
constructors and entry points validate their input, int sequences through
errors._check_ints.  SkewShape and SkewTableau are NamedTuples whose __new__
is the one validating constructor, and errors._Validated sends _make,
_replace, copies and unpickling at every protocol through it; a value
derived from validated ones (a conjugate, a run shape, a filling, a
bijection image) is built by tuple.__new__(cls, fields), which runs no
check again.

Counting is exact and uses integers only.  The determinant route builds
each matrix row integral and eliminates it, with no row swaps since every
leading minor is positive, by division-free row updates that touch only
the nonzero staircase of the matrix (det_rational); every exact quotient
goes through the one guard errors._exact_div.
The paper's banded determinant per decreasing-run profile a is
skew_syt_count on shape_from_runs(a): it is banded because adjacent
columns of that shape share exactly two rows, so its elimination does
O(r^2) row-entry updates for r parts, not O(r^3).
The independent oracle, count_standard_fillings, takes no determinant: it
counts paths of filled sub-shapes from inner to outer, one cell per step,
by the addability test of _fillings, the iterative backtracking traversal
that skew_standard_tableaux runs to list the fillings themselves.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (CapExceededError, _Validated, _as_tuple, _check_ints,
                     _check_type, _exact_div, _parse_int, _shown)

# count_standard_fillings' work in key entries read and built; 16 unrelated
# cells, the most of any 16-cell shape, take 10,026,991 (0.43 s).
MAX_PATH_WORK = 10_500_000


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing sequence of positive parts; trailing
    zeros are tolerated and dropped."""
    given = p = _check_ints("partition parts", parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError(f"partition parts must be positive: {given}")
        if i and p[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {given}")
    return p


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """Transpose the diagram of a partition, in time linear in its rows
    plus its columns.

    >>> conjugate((3, 2, 2))
    (3, 3, 1)
    >>> conjugate((2, 2))
    (2, 2)
    """
    return _conjugate(check_partition(parts))


def _conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """conjugate of a partition already validated; trailing zeros add no
    column."""
    conj: list[int] = []
    # from the bottom row up, row i ends the columns that reach no lower row
    for i in range(len(p), 0, -1):
        conj.extend([i] * (p[i - 1] - len(conj)))
    return tuple(conj)


class SkewShape(_Validated, NamedTuple("SkewShape", [("outer", tuple[int, ...]),
                                                     ("inner", tuple[int, ...])])):
    """A skew shape outer/inner, with inner stored zero-padded to the outer
    length."""

    __slots__ = ()

    def __new__(cls, outer: Sequence[int], inner: Sequence[int] = ()):
        outer = check_partition(outer)
        inner = check_partition(inner)
        if len(inner) > len(outer):
            raise ValueError(f"inner partition {inner} is longer than outer {outer}")
        padded = inner + (0,) * (len(outer) - len(inner))
        for mu, lam in zip(padded, outer):
            if mu > lam:
                raise ValueError(f"inner partition {inner} is not contained in {outer}")
        return tuple.__new__(cls, (outer, padded))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def row_count(self) -> int:
        return len(self.outer)

    @property
    def column_count(self) -> int:
        return self.outer[0] if self.outer else 0

    def conjugated(self) -> "SkewShape":
        """The transposed shape."""
        outer, inner = _conjugate(self.outer), _conjugate(self.inner)
        return tuple.__new__(SkewShape, (outer, inner + (0,) * (len(outer) - len(inner))))


def format_shape(shape: SkewShape) -> str:
    """Render "outer/inner" with comma-separated parts; an empty inner
    partition prints as the empty-set sign.

    >>> format_shape(SkewShape((6, 5, 2, 2), (3, 1)))
    '6,5,2,2/3,1'
    """
    _check_type("shape", shape, SkewShape)
    outer = ",".join(map(str, shape.outer))
    inner_parts = [x for x in shape.inner if x]
    inner = ",".join(map(str, inner_parts)) if inner_parts else "∅"
    return f"{outer}/{inner}"


def parse_shape(text: str) -> SkewShape:
    """Parse the "outer/inner" shape format; the "/inner" half may be
    omitted, empty, or the empty-set sign."""
    if not isinstance(text, str):
        raise ValueError(f"shape text must be a string, got {_shown(text)}")

    def parse_parts(chunk: str, what: str) -> tuple[int, ...]:
        chunk = chunk.strip()
        if chunk in ("", "∅"):
            return ()
        try:
            return tuple(_parse_int(tok) for tok in chunk.split(","))
        except ValueError:
            raise ValueError(f"cannot parse {what} partition from {chunk!r}") from None

    head, _, tail = text.partition("/")
    return SkewShape(parse_parts(head, "outer"), parse_parts(tail, "inner"))


class SkewTableau(_Validated, NamedTuple("SkewTableau", [
        ("shape", SkewShape), ("rows", tuple[tuple[int | None, ...], ...])])):
    """A filling of a skew shape.  rows[i] has length outer[i]; the first
    inner[i] entries are None, the rest are integers."""

    __slots__ = ()

    def __new__(cls, shape: SkewShape, rows: Iterable[Iterable[int | None]]):
        _check_type("shape", shape, SkewShape)
        rows = tuple(_as_tuple(f"row {i}", r)
                     for i, r in enumerate(_as_tuple("tableau rows", rows), start=1))
        if len(rows) != shape.row_count:
            raise ValueError(f"expected {shape.row_count} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            lam, mu = shape.outer[i], shape.inner[i]
            if len(row) != lam:
                raise ValueError(f"row {i + 1} must have {lam} entries, got {len(row)}")
            for c, x in enumerate(row, start=1):
                if c <= mu:
                    if x is not None:
                        raise ValueError(f"cell ({i + 1},{c}) lies inside the inner shape")
                elif type(x) is not int:
                    raise ValueError(f"cell ({i + 1},{c}) must hold an integer, got {_shown(x)}")
        return tuple.__new__(cls, (shape, rows))

    def entry(self, row: int, col: int) -> int:
        """1-indexed access; raises for cells outside the skew shape."""
        if not (1 <= row <= self.shape.row_count
                and self.shape.inner[row - 1] < col <= self.shape.outer[row - 1]):
            raise ValueError(f"cell ({row},{col}) is outside the shape")
        return self.rows[row - 1][col - 1]


def is_standard(t: SkewTableau) -> bool:
    """Entries are exactly 1..N and strictly increase along rows and down
    columns."""
    _check_type("tableau", t, SkewTableau)
    values = sorted(x for row in t.rows for x in row if x is not None)
    if values != list(range(1, t.shape.size + 1)):
        return False
    # as inner[i - 1] >= inner[i], rows i - 1 and i fill every column from inner[i - 1]
    inner = t.shape.inner
    for i, row in enumerate(t.rows):
        filled = row[inner[i]:]
        if any(a >= b for a, b in zip(filled, filled[1:])):
            return False
        if i and any(a >= b for a, b in zip(t.rows[i - 1][inner[i - 1]:], row[inner[i - 1]:])):
            return False
    return True


def shape_is_two_regular(shape: SkewShape) -> bool:
    """Every column has at least two cells and adjacent columns share
    exactly two rows.  Column c covers rows [lo[c], hi[c]) with lo, hi the
    inner and outer conjugate; both weakly decrease, so columns c and c + 1
    share rows [lo[c], hi[c + 1])."""
    _check_type("shape", shape, SkewShape)
    conj = shape.conjugated()
    lo, hi = conj.inner, conj.outer
    return bool(hi) and hi[0] - lo[0] >= 2 and all(h - l == 2 for l, h in zip(lo, hi[1:]))


def is_two_regular(t: SkewTableau) -> bool:
    _check_type("tableau", t, SkewTableau)
    return shape_is_two_regular(t.shape)


def shape_from_runs(runs: Sequence[int]) -> SkewShape:
    """The skew shape whose transposed diagram has column lengths runs with
    adjacent columns overlapping in exactly two rows.

    Row i of the result has length runs[i-1]; the drawn tableau's column j
    corresponds to row j here, so callers wanting the drawn orientation
    conjugate the result.

    >>> shape_from_runs((4, 2, 5, 3, 2))
    SkewShape(outer=(8, 6, 6, 3, 2), inner=(4, 4, 1, 0, 0))
    >>> shape_from_runs((2, 2, 2))
    SkewShape(outer=(2, 2, 2), inner=(0, 0, 0))
    """
    a = _check_ints("run lengths", runs)
    if not a:
        raise ValueError("run lengths must be nonempty")
    if any(x < 2 for x in a):
        raise ValueError(f"every run length must be >= 2, got {a}")
    k = len(a)
    lam = [0] * k
    suffix = 0
    for i in range(k - 1, -1, -1):
        suffix += a[i]
        lam[i] = suffix - 2 * (k - 1 - i)
    mu = [lam[i] - a[i] for i in range(k)]
    return tuple.__new__(SkewShape, (tuple(lam), tuple(mu)))


def _product(values: Iterable[int]) -> int:
    """The product of many large integers, multiplied as a balanced tree so
    that each multiplication has operands of similar size."""
    values = list(values)
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return math.prod(values)


def det_rational(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix whose leading minors are all
    positive, as on skew_syt_count's Aitken matrix: its leading k x k minor
    is the count of the shape's first k rows over a positive scale.

    Column k is cleared below the pivot p = m[k][k], with no row swaps,
    only in the rows with a nonzero entry a there, each by
    row_i <- (p/g)*row_i - (a/g)*row_k with g = gcd(p, a); the updated row
    is then divided by its content (a row that vanishes stays zero).  These
    scales are positive, so pivot k has the sign of the ratio of the
    leading minors of sizes k + 1 and k, and a pivot <= 0 raises
    ArithmeticError.  A zero entry costs nothing, so on an Aitken matrix,
    whose zeros form a staircase, the work follows the nonzero band: on
    shape_from_runs shapes at most two rows lie below each pivot.  The
    determinant has been multiplied by the positive ratio num/den of those
    scalings, so it is the diagonal's product times den/num, divided
    exactly through _exact_div.  The ratio is kept small as it grows: each
    p/g divides its pivot, so a pivot's p/g are cancelled against it before
    they join num, and a content is cancelled against num before it joins
    den.  The content gcd starts at the row's right end, where an Aitken
    row's entries are smallest.

    The name predates the integer rows: perfbench/tracing.py wraps the
    function by it and reads len(matrix) and the result's numerator and
    denominator, which an int also has, so it stays until the benchmark
    renames it in the same change."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    num = den = 1
    diag = []
    for k in range(n):
        pivot_row = m[k]
        p = pivot_row[k]
        if p <= 0:
            raise ArithmeticError(f"leading minor {k + 1} is not positive")
        scaled = 1  # the product of this pivot's p/g
        for row in m[k + 1:]:
            a = row[k]
            if not a:
                continue
            g = math.gcd(p, a)
            s, t = p // g, a // g
            rest = [s * x - t * y for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
            content = math.gcd(*reversed(rest)) or 1
            scaled *= s
            h = math.gcd(num, content)
            num //= h
            den *= content // h
            row[k:] = [0, *(x // content for x in rest)]
        h = math.gcd(p, scaled)
        diag.append(p // h)
        num *= scaled // h
    return _exact_div(_product(diag) * den, num, lambda: "the eliminated determinant")


def skew_syt_count(shape: SkewShape) -> int:
    """Exact number of standard fillings of a skew shape via the classical
    factorial-reciprocal determinant: with r outer rows,

        count = n! * det( 1 / (outer[i] - inner[j] - i + j)! ),  1 <= i,j <= r,

    where 1/m! = 0 for m < 0.  Row i is built integral, times top! for its
    largest exponent top (at j = r), so the count is the integer
    n! * det over the product of those top!, divided exactly by _exact_div;
    a remainder or a negative quotient signals a bug and raises.

    >>> skew_syt_count(SkewShape((2, 2)))
    2
    >>> skew_syt_count(SkewShape((3, 3)))
    5
    """
    _check_type("shape", shape, SkewShape)
    outer, inner = shape.outer, shape.inner
    r = len(outer)
    tops = [outer[i] - inner[r - 1] - i + r - 1 for i in range(r)]
    rows = [[math.perm(top, top - e) if e >= 0 else 0
             for e in (outer[i] - inner[j] - i + j for j in range(r))]
            for i, top in enumerate(tops)]
    scale = _product(map(math.factorial, tops))
    return _exact_div(math.factorial(shape.size) * det_rational(rows), scale,
                      lambda: f"determinant count for {format_shape(shape)}")


def hook_length(parts: Sequence[int], row: int, col: int) -> int:
    """Hook length of the 1-indexed cell (row, col) of a straight shape:
    parts[row-1] + conjugate(parts)[col-1] - row - col + 1.

    >>> hook_length((3, 2, 2), 1, 1)
    5
    >>> hook_length((3, 2, 2), 3, 2)
    1
    """
    lam = check_partition(parts)
    _check_ints("cell coordinates", (row, col))
    if not (1 <= row <= len(lam) and 1 <= col <= lam[row - 1]):
        raise ValueError(f"cell ({row},{col}) is outside the partition {lam}")
    return lam[row - 1] + _conjugate(lam)[col - 1] - row - col + 1


def hook_count(parts: Sequence[int]) -> int:
    """Number of standard Young tableaux of a straight shape by the hook
    length formula; the division is exact and asserted.

    >>> hook_count((3, 3, 1))
    21
    >>> hook_count((1, 1, 1, 1))
    1
    """
    lam = check_partition(parts)
    conj = _conjugate(lam)
    product = math.prod(length + conj[j] - i - j - 1
                        for i, length in enumerate(lam) for j in range(length))
    return _exact_div(math.factorial(sum(lam)), product,
                      lambda: f"hook length formula for {lam}")


def _fillings(shape: SkewShape) -> Iterator[list[list[int | None]]]:
    """Backtracking traversal of the standard fillings, iterative so that
    no shape meets the recursion limit.  Yields the working grid itself at
    each completed filling; it changes afterwards, so callers copy it.
    The walk scans only the rows holding a cell, as count_standard_fillings
    keys them: a row wholly inside the inner shape takes no value and
    bounds no cell below it."""
    grid: list[list[int | None]] = [[None] * lam for lam in shape.outer]
    kept = [i for i, (lam, mu) in enumerate(zip(*shape)) if mu < lam]
    # cells[i] is the grid row of kept row i, and outer its length
    cells = [grid[i] for i in kept]
    outer = [len(row) for row in cells]
    r, total = len(kept), shape.size
    # nxt[i] is the first empty column of kept row i.  Row 0 reads nxt[-1],
    # an extra entry that no column reaches, as if the row above were full.
    nxt = [*(shape.inner[i] for i in kept), shape.column_count]
    placed: list[int] = []  # the kept row of each value placed so far
    i = v = 0               # next candidate row for value v + 1
    while True:
        if v == total:
            yield grid
            i = r
        while i < r:
            c = nxt[i]
            # the cell above is filled or outside the shape exactly when the
            # kept row above has filled past column c (outer is a partition)
            if c < outer[i] and c < nxt[i - 1]:
                break
            i += 1
        if i < r:
            v += 1
            placed.append(i)
            cells[i][c] = v
            nxt[i] = c + 1
            i = 0
        elif v:
            v -= 1
            i = placed.pop()
            nxt[i] -= 1
            cells[i][nxt[i]] = None
            i += 1
        else:
            return


def skew_standard_tableaux(shape: SkewShape) -> Iterator[SkewTableau]:
    """Backtracking enumeration of every standard filling, each exactly
    once, in the fixed order of _fillings: values 1..N are placed in turn,
    trying candidate rows from the top down.  Every partial filling extends
    to a full one, so each filling costs O(cells x rows) steps: no cap.

    >>> [t.rows for t in skew_standard_tableaux(SkewShape((2, 2)))]
    [((1, 2), (3, 4)), ((1, 3), (2, 4))]
    """
    _check_type("shape", shape, SkewShape)
    return (tuple.__new__(SkewTableau, (shape, tuple(map(tuple, g)))) for g in _fillings(shape))


def count_standard_fillings(shape: SkewShape) -> int:
    """Count the standard fillings as lattice paths of sub-shapes from
    shape.inner to shape.outer, one cell per step: the same traversal as
    _fillings, with the count of completions below each node shared by
    every node that has filled the same cells.  Level v maps each filled
    sub-shape, written as the first empty column of every row (the nxt of
    _fillings, sentinel included), to the number of ways of filling it with
    1..v; each state passes its count to every state one addable cell
    further on.  The work follows the number of sub-shapes, not of
    fillings, and uses no determinant, so it is an independent oracle for
    skew_syt_count.  Keys keep only the r rows holding a cell: the row
    above a fully inner row is filled at least to that row's end, so it
    bounds no cell below.  A sub-shape reads its r + 1 key entries and
    builds a key per addable cell, refused past MAX_PATH_WORK entries.

    >>> count_standard_fillings(SkewShape((3, 3)))
    5
    """
    _check_type("shape", shape, SkewShape)
    kept = [(lam, mu) for lam, mu in zip(*shape) if mu < lam]
    outer = [lam for lam, _ in kept]
    rows = range(len(outer))
    width = len(outer) + 1
    paths = {(*(mu for _, mu in kept), shape.column_count): 1}
    work = 0
    for _ in range(shape.size):
        step: dict[tuple[int, ...], int] = {}
        for nxt, count in paths.items():
            work += width
            for i in rows:
                c = nxt[i]
                if c < outer[i] and c < nxt[i - 1]:
                    work += width
                    if work > MAX_PATH_WORK:
                        raise CapExceededError(
                            f"the path count of a shape of {shape.size} cells in "
                            f"{len(outer)} rows passes the cap of {MAX_PATH_WORK} key entries")
                    key = (*nxt[:i], c + 1, *nxt[i + 1:])
                    step[key] = step.get(key, 0) + count
        paths = step
    return sum(paths.values())


def tableau_to_json(t: SkewTableau) -> dict:
    """JSON-ready dict: the shape text plus rows with nulls in inner cells."""
    _check_type("tableau", t, SkewTableau)
    return {"shape": format_shape(t.shape), "rows": [list(row) for row in t.rows]}


def tableau_from_json(data: dict) -> SkewTableau:
    try:
        text, rows = data["shape"], data["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"tableau JSON needs 'shape' and 'rows': {exc}") from None
    if type(text) is not str:
        raise ValueError(f"tableau JSON 'shape' must be a string, got {_shown(text)}")
    return SkewTableau(parse_shape(text), rows)
