"""Permutations in one-line notation and the minimal-permutation predicates.

A permutation of length n is a tuple containing each of 1..n exactly once.
Positions are 1-indexed: position i (1 <= i <= n-1) is a descent of w when
w[i-1] > w[i] in 0-indexed access, and an ascent when w[i-1] < w[i].

A permutation with d descents is *minimal* when no strictly shorter
permutation with exactly d descents occurs in it as a pattern.  Structurally
this holds exactly when the word starts and ends with a descent and every
ascent at position i satisfies 2 <= i <= n-2 with the window of four
elements around it of type 2143 or 3142.  Both the structural test and the
definitional deletion oracle are provided, and agree by test, not by
assumption; enumerate_minimal applies the structural test position by
position, through a table of completion counts.

The predicates and formatters check an argument, through _check_ints, only
once their fast path has raised TypeError (no len(), or entries that do not
compare), so valid input pays nothing; on the ints it returns they retry once.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .errors import (CapExceededError, _as_tuple, _check_int, _check_ints,
                     _parse_int, _shown)


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word contains each of 1..len(word) exactly once.

    >>> is_permutation((2, 1, 4, 3))
    True
    >>> is_permutation((1, 3))
    False
    """
    try:
        n = len(word)
    except TypeError:
        try:
            return is_permutation(_check_ints("permutation", word))
        except ValueError:
            return False
    seen = [False] * (n + 1)
    for x in word:
        if type(x) is not int or not 1 <= x <= n or seen[x]:
            return False
        seen[x] = True
    return True


def check_permutation(word: Iterable[int]) -> tuple[int, ...]:
    """Validate word and return it as a tuple; ValueError if it is not a
    permutation of 1..n."""
    w = _as_tuple("permutation", word)
    if not w:
        raise ValueError("a permutation must have length >= 1")
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def standardize(word: Sequence[int]) -> tuple[int, ...]:
    """Relabel distinct integers order-isomorphically onto 1..n.

    >>> standardize((9, 4, 2, 5))
    (4, 2, 1, 3)
    >>> standardize((3, 5, 4, 9))
    (1, 3, 2, 4)
    """
    try:
        n = len(word)
        rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    except TypeError:
        return standardize(_check_ints("word", word))
    if len(rank) != n:
        raise ValueError(f"entries are not distinct: {tuple(word)}")
    return tuple(rank[v] for v in word)


def descent_set(perm: Sequence[int]) -> set[int]:
    """Positions i (1-indexed, i <= n-1) where perm steps down.

    >>> sorted(descent_set((3, 1, 4, 5, 7, 2, 6)))
    [1, 5]
    """
    try:
        return {i for i in range(1, len(perm)) if perm[i - 1] > perm[i]}
    except TypeError:
        return descent_set(_check_ints("permutation", perm))


def ascent_set(perm: Sequence[int]) -> set[int]:
    """Positions i (1-indexed, i <= n-1) where perm steps up; complementary
    to descent_set inside 1..n-1."""
    try:
        return {i for i in range(1, len(perm)) if perm[i - 1] < perm[i]}
    except TypeError:
        return ascent_set(_check_ints("permutation", perm))


def descent_count(perm: Sequence[int]) -> int:
    c = 0
    try:
        for i in range(1, len(perm)):
            if perm[i - 1] > perm[i]:
                c += 1
    except TypeError:
        return descent_count(_check_ints("permutation", perm))
    return c


def contains_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """True if some subsequence of perm standardizes to pattern.

    Naive exhaustive subsequence search; every pattern used internally has
    length at most 4, so nothing cleverer is warranted.  Both arguments are
    read once, up front, and refused with ValueError unless they are
    iterables of ints.

    >>> contains_pattern((2, 6, 3, 7, 5, 1, 4, 9, 8), (1, 3, 2, 4))
    True
    >>> contains_pattern((2, 1, 4, 3), (1, 2, 3))
    False
    """
    w = _check_ints("permutation", perm)
    target = _check_ints("pattern", pattern)
    return any(standardize(sub) == target for sub in itertools.combinations(w, len(target)))


def decreasing_run_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    """Lengths of the maximal decreasing substrings, left to right.

    The ascent set equals the prefix sums of all parts but the last.

    >>> decreasing_run_lengths((5, 2, 7, 3, 1, 4, 8, 9, 6))
    (2, 3, 1, 1, 2)
    """
    runs = []
    length = 1
    try:
        for i in range(1, len(perm)):
            if perm[i - 1] > perm[i]:
                length += 1
            else:
                runs.append(length)
                length = 1
    except TypeError:
        return decreasing_run_lengths(_check_ints("permutation", perm))
    runs.append(length)
    return tuple(runs)


def _first_violation(perm: Sequence[int]) -> int | None:
    """The 1-indexed position where the structural test first fails, or
    None if perm is minimal: 0 for a word too short to start with a
    descent, 1 or n-1 for an ascent at either end, otherwise an interior
    ascent whose four-element window is not of type 2143 or 3142."""
    n = len(perm)
    if n < 2:
        return 0
    if perm[0] < perm[1]:
        return 1
    if perm[n - 2] < perm[n - 1]:
        return n - 1
    for j in range(1, n - 2):
        a, b = perm[j], perm[j + 1]
        if a < b:
            # the window standardizes to 2143 or 3142 exactly when the
            # ascent pair are its strict minimum and maximum
            p, s = perm[j - 1], perm[j + 2]
            if not (a < p < b and a < s < b):
                return j + 1
    return None


def is_minimal(perm: Sequence[int]) -> bool:
    """Structural minimality test: starts and ends with a descent, and every
    ascent is interior with its four-element window of type 2143 or 3142.

    It compares entries only and does not check that perm is a permutation;
    callers holding untrusted input run check_permutation first.  A perm
    that is not an iterable of ints raises ValueError, checked only once
    reading it has raised TypeError, so that valid input pays nothing.

    >>> is_minimal((3, 2, 1))
    True
    >>> is_minimal((2, 1, 4, 3)) and is_minimal((3, 1, 4, 2))
    True
    >>> is_minimal((1, 3, 2))
    False
    """
    try:
        return _first_violation(perm) is None
    except TypeError:
        return is_minimal(_check_ints("permutation", perm))


def minimality_violation(perm: Sequence[int]) -> str | None:
    """Explain why perm is not minimal, or None if it is.  Positions in the
    message are 1-indexed."""
    try:
        pos = _first_violation(perm)
    except TypeError:
        return minimality_violation(_check_ints("permutation", perm))
    if pos is None:
        return None
    if pos == 0:
        return "length-1 permutations have no descent to start with"
    if pos in (1, len(perm) - 1):
        return f"position {pos} is an ascent, not a descent"
    window = tuple(perm[pos - 2:pos + 2])
    return (f"ascent at position {pos}: window {window} is of type "
            f"{''.join(map(str, standardize(window)))}, not 2143 or 3142")


def _check_minimal(perm: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """perm as a tuple, checked to be a minimal permutation, and its
    decreasing run lengths; ValueError naming the first rule it breaks."""
    w = check_permutation(perm)
    reason = minimality_violation(w)
    if reason is not None:
        raise ValueError(f"permutation {w} is not minimal: {reason}")
    return w, decreasing_run_lengths(w)


def is_minimal_by_deletion(perm: Sequence[int]) -> bool:
    """Definitional minimality oracle: every one-element deletion must lose
    a descent.

    Descent counts are invariant under standardization, so each deletion is
    judged on the word itself, by the only pairs it changes.  Deleting
    w[0] or w[n-1] loses exactly the descent at that end, so both ends must
    be descents (and n >= 2).  Deleting an interior w[k] changes the count
    by [w[k-1] > w[k+1]] - [w[k-1] > w[k]] - [w[k] > w[k+1]], which must be
    negative.  This compares entries only, so it answers as the literal
    recount of every deleted word does on any sequence, ties included; that
    recount is kept in the tests as this function's oracle.  One-element
    deletions suffice because a deletion never increases the descent count;
    that monotonicity is itself asserted as a test rather than assumed.

    >>> is_minimal_by_deletion((2, 1, 4, 3))
    True
    >>> is_minimal_by_deletion((1, 2, 3, 4))
    False
    """
    try:
        n = len(perm)
        if n < 2 or not (perm[0] > perm[1] and perm[n - 2] > perm[n - 1]):
            return False
        for k in range(1, n - 1):
            p, x, s = perm[k - 1], perm[k], perm[k + 1]
            if (p > x) + (x > s) <= (p > s):
                return False
    except TypeError:
        return is_minimal_by_deletion(_check_ints("permutation", perm))
    return True


def duplicate_loss(perm: Sequence[int], start: int, stop: int,
                   keep: Sequence[str]) -> tuple[int, ...]:
    """One duplication-random-loss step: copy the fragment at positions
    start..stop (1-indexed, inclusive) immediately after itself, then delete
    one occurrence of each duplicated value, keeping the copy named by keep
    ("first" or "second", one entry per fragment element).

    >>> duplicate_loss((1, 2, 3, 4, 5, 6), 2, 4, ("second", "first", "second"))
    (1, 3, 2, 4, 5, 6)
    >>> duplicate_loss((1, 2), 1, 2, ("second", "first"))
    (2, 1)
    """
    w = check_permutation(perm)
    n = len(w)
    _check_int("start", start)
    _check_int("stop", stop)
    if not 1 <= start <= stop <= n:
        raise ValueError(f"invalid fragment bounds {start}..{stop} for length {n}")
    size = stop - start + 1
    keep = _as_tuple("keep", keep)
    if len(keep) != size:
        raise ValueError(f"keep must have {size} entries, got {len(keep)}")
    duplicated = w[:stop] + w[start - 1:stop] + w[stop:]
    # 0-indexed, the first copy of fragment element t sits at start-1+t and
    # the second at stop+t
    drop = set()
    for t, choice in enumerate(keep):
        if choice == "first":
            drop.add(stop + t)
        elif choice == "second":
            drop.add(start - 1 + t)
        else:
            raise ValueError(f"keep entries must be 'first' or 'second', got {_shown(choice)}")
    return tuple(x for idx, x in enumerate(duplicated) if idx not in drop)


# the most entries a completion-count table may hold: on a 2-core x86-64 machine
# (Python 3.11) the whole table at n = 126, 992,373 entries, took 0.15 s and 66 MB
MAX_TABLE_ENTRIES = 1_000_000
# the walk places the last MEMO_DEPTH letters of each word from a memo of
# each state's completions, whose size the depth bounds, not n: walking
# the whole band at n = 10 peaked at about 70 kB (tracemalloc) at 5, and
# at 300 kB at 6, which saved about 3 of the 63 ms of `enumerate --n 10`
MEMO_DEPTH = 5


def enumerate_minimal(n: int, d: int | None = None,
                      runs: Sequence[int] | None = None,
                      double_descent_at: int | None = None) -> Iterator[tuple[int, ...]]:
    """All minimal permutations of length n in lexicographic order,
    optionally restricted to descent count d, to decreasing-run lengths
    runs, or to descents at both positions j and j+1 (double_descent_at=j).

    One walk of the prefix tree serves every constraint, entering only the
    prefixes that a table of completion counts, built on the call after the
    argument checks, shows to have one (see _minimal_search).  Refuses a
    table above MAX_TABLE_ENTRIES, sized before it is built.

    >>> list(enumerate_minimal(3))
    [(3, 2, 1)]
    >>> list(enumerate_minimal(4, d=2))
    [(2, 1, 4, 3), (3, 1, 4, 2)]
    """
    return _minimal_search(n, d, runs, double_descent_at)[1]


def _minimal_search(n: int, d: int | None = None, runs: Sequence[int] | None = None,
                    j: int | None = None) -> tuple[int, Iterator[tuple[int, ...]]]:
    """(count, stream): how many words enumerate_minimal's arguments select,
    and those words in order; the count is exact, so a caller can refuse
    the stream on it before any word is made.

    The structural test is local, so the completions of a prefix depend
    only on the ranks of its last two letters among the m unused values,
    the ascents owed and the steps left (Niven 1968; de Bruijn 1970).  Step
    s places letter s+1 (step 0 the first, below a sentinel), if up[s] and
    down[s] let it ascend or descend.  After a descent a prefix is in state
    D(x, y): x and y unused values lie below its last and previous letter,
    and the next goes below the last or above the previous.  After an
    ascent it is in state A(x, y): x and y lie below the ascent's low and
    high letter, and the next goes between (a 2143 or 3142 window).
    table[m][k], for m values unused and k ascents owed (0 without d), is
    (drows, arows): drows[y][x] sums D(x', y) over x' < x, arows[x][y] sums
    A(x, y') over y' < y; drows repeats one row unless rise[m], and arows
    is None unless rise[m + 1], the next or the step before may ascend.
    The stream is _walk's: it expands one node per output prefix while more
    than MEMO_DEPTH values are unused, and places the rest of each word
    from a memo of each state's completions, which the same walk fills.
    """
    if (layout := _table_size(n, d, runs, j)[1]) is None:
        return 0, iter(())
    owed, dk, down, rise, ks = layout
    accumulate = itertools.accumulate
    table = [{k: ([[0, 1]], None) for k in ks[0]}]
    for m in range(1, n):
        below, layer = table[-1], {}
        for k in ks[m]:
            pd = below[k][0] if k in below and down[n - m] else None
            pa = below[k - dk][1] if rise[m] and k - dk in below else None
            # desc[x]: D(x, y)'s completions by a descent; pa adds its ascents
            desc = [0] + [pd[x - 1][x] for x in range(1, m + 1)] if pd else [0] * (m + 1)
            drows = [list(accumulate([desc[x] + (pa[x][m] - pa[x][y] if pa and x < m else 0)
                                      for x in range(y + 1)], initial=0)) for y in range(m + 1)] \
                if rise[m] else [list(accumulate(desc, initial=0))] * (m + 1)
            arows = [list(accumulate([pd[y - 1][y] - pd[y - 1][x] if pd and y > x else 0
                                      for y in range(m + 1)], initial=0)) for x in range(m + 1)] \
                if rise[m + 1] else None
            layer[k] = drows, arows
        table.append(layer)
    total = table[-1][owed][0][n - 1][n]
    return total, _walk(n, table, owed, dk, down, rise, list(range(1, n + 1)), (0, n - 1, n), {})


def _table_size(n: int, d: int | None = None, runs: Sequence[int] | None = None,
                j: int | None = None) -> tuple:
    """The size of _minimal_search's table, refused above MAX_TABLE_ENTRIES,
    and the (owed, dk, down, rise, ks) it is built from; (0, None) if no word fits."""
    _check_int("n", n, 1)
    if d is not None:
        _check_int("d", d, 0)
    wanted = None if runs is None else _check_ints("run lengths", runs)
    if wanted is not None and sum(wanted) != n:
        raise ValueError(f"run lengths {wanted} do not sum to {n}")
    if j is not None:
        _check_int("double-descent position", j, 1, n - 2)
    # owed: the ascents d asks for; a minimal permutation has at most (n-2)//2
    owed, dk = (0, 0) if d is None or wanted is not None else (n - 1 - d, 1)
    if not 0 <= owed <= (n - 2) // 2 or wanted is not None and (
            min(wanted) < 2 or d not in (None, n - len(wanted))):
        return 0, None
    # each m holds a row of m + 2 entries or more, so a large n is refused unsized
    entries = n * (n + 3) // 2
    if entries <= MAX_TABLE_ENTRIES:
        tops = None if wanted is None else set(itertools.accumulate(wanted[:-1]))
        up = [1 < s < n - 1 if tops is None else s in tops for s in range(n)]
        down = [tops is None or s not in tops for s in range(n)]
        if j is not None:
            up[j] = up[j + 1] = False
        # ks[m]: the ascents owed with m values unused, taken one step in two at most
        ks = [range(max(0, owed - dk * ((n - m - 1) // 2)), min(owed, m // 2) + 1)
              for m in range(n)]
        rise = [0 < m < n and up[n - m] and ks[m].stop > dk for m in range(n + 1)]
        entries = sum(len(ks[m]) * (((m + 1) * (m + 4) // 2 if rise[m] else m + 2)
                                    + ((m + 1) * (m + 2) if rise[m + 1] else 0)) for m in range(n))
    if entries > MAX_TABLE_ENTRIES:
        raise CapExceededError(f"enumeration over S_{n} needs a completion-count table of at "
                               f"least {entries} entries, above the cap of {MAX_TABLE_ENTRIES}")
    return entries, (owed, dk, down, rise, ks)


def _walk(n: int, table: list, k: int, dk: int, down: list, rise: list, free: list,
          node: tuple, memo: dict) -> Iterator[tuple[int, ...]]:
    """The words _minimal_search's table counts, in order, by a depth-first
    walk from node = (lo, top, y) with k ascents owed, over the unused
    values free in increasing order.  A node (lo, top, y, k) with m values
    unused enters D(r, top) for r in lo..top and, if y is not None,
    A(top+1, r) for r >= y, where that state counts a completion; those r
    form one interval, which two bisections of prefix sums find.  stack
    holds (untried children, depth) per fork.  A node below the first with
    at most MEMO_DEPTH values unused takes its completions from memo, keyed
    by its state (m, lo, top, y, k): one itemgetter over its unused values
    per completion, filled on first use by this same walk from that node
    over free = [0, ..., m - 1]."""
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    word, ranks, stack = [], [], []  # ranks[i]: the index in free word[i] had
    lo, top, y = node
    while True:
        m = len(free)
        nexts = []
        if m == 1:  # a node with one value left has one completion
            yield (*word, *free)
        elif word and m <= MEMO_DEPTH:
            state = m, lo, top, y, k
            if state not in memo:
                memo[state] = [*itertools.starmap(operator.itemgetter, _walk(
                    n, table, k, dk, down, rise, list(range(m)), (lo, top, y), memo))]
            prefix = tuple(word)
            for g in memo[state]:
                yield prefix + g(free)
        else:
            layer = table[m - 1]
            if lo <= top and down[n - m] and k in layer:
                row = layer[k][0][top]
                i = bisect_right(row, row[lo], lo, top + 2) - 1
                j = bisect_left(row, row[top + 1], i, top + 2)
                nexts = [(r, 0, r - 1, top, k) for r in range(i, j)]
            if y is not None and rise[m] and top + 1 < m and k - dk in layer:
                row, x = layer[k - dk][1][top + 1], top + 1
                i = bisect_right(row, row[y], y, m + 1) - 1
                j = bisect_left(row, row[m], i, m + 1)
                nexts += [(r, x, r - 1, None, k - dk) for r in range(i, j)]
        if len(nexts) == 1:  # a node of one child goes on to it
            child = nexts[0]
        else:
            stack.append((iter(nexts), len(word)))
            while stack and not (child := next(stack[-1][0], None)):
                stack.pop()
            if not stack:
                return
            while len(word) > stack[-1][1]:  # back up to the node child leaves
                free.insert(ranks.pop(), word.pop())
        r, lo, top, y, k = child
        ranks.append(r)
        word.append(free.pop(r))


def format_permutation(perm: Sequence[int]) -> str:
    """Serialize a permutation: space-separated for n <= 9, comma-separated
    otherwise.

    >>> format_permutation((2, 1, 4, 3))
    '2 1 4 3'
    """
    try:
        return _separator(len(perm)).join(map(str, perm))
    except TypeError:
        return format_permutation(_check_ints("permutation", perm))


def _separator(n: int) -> str:
    """The separator format_permutation puts between the n letters."""
    return " " if n <= 9 else ","


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse either serialization; reports the offending token on failure."""
    if not isinstance(text, str):
        raise ValueError(f"permutation text must be a string, got {_shown(text)}")
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation")
    word = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            word.append(_parse_int(tok))
        except ValueError:
            raise ValueError(f"token {pos} ({tok!r}) is not an integer") from None
    return check_permutation(word)
