"""Permutations in one-line notation and the minimal-permutation predicates.

A permutation of length n is a tuple containing each of 1..n exactly once.
Positions are 1-indexed: position i (1 <= i <= n-1) is a descent of w when
w[i-1] > w[i] in 0-indexed access, and an ascent when w[i-1] < w[i].

A permutation with d descents is *minimal* when no strictly shorter
permutation with exactly d descents occurs in it as a pattern.  Structurally
this holds exactly when the word starts and ends with a descent and every
ascent at position i satisfies 2 <= i <= n-2 with the window of four
elements around it of type 2143 or 3142.  Both the structural test and the
definitional deletion oracle are provided; their agreement is a test, not
an assumption.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, _check_int

DEFAULT_MAX_BRUTE_N = 11


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word contains each of 1..len(word) exactly once.

    >>> is_permutation((2, 1, 4, 3))
    True
    >>> is_permutation((1, 3))
    False
    """
    n = len(word)
    seen = [False] * (n + 1)
    for x in word:
        if type(x) is not int or not 1 <= x <= n or seen[x]:
            return False
        seen[x] = True
    return True


def check_permutation(word: Iterable[int]) -> tuple[int, ...]:
    """Validate word and return it as a tuple; ValueError if it is not a
    permutation of 1..n."""
    w = tuple(word)
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
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    if len(rank) != len(word):
        raise ValueError(f"entries are not distinct: {tuple(word)}")
    return tuple(rank[v] for v in word)


def descent_set(perm: Sequence[int]) -> set[int]:
    """Positions i (1-indexed, i <= n-1) where perm steps down.

    >>> sorted(descent_set((3, 1, 4, 5, 7, 2, 6)))
    [1, 5]
    """
    return {i for i in range(1, len(perm)) if perm[i - 1] > perm[i]}


def ascent_set(perm: Sequence[int]) -> set[int]:
    """Positions i (1-indexed, i <= n-1) where perm steps up; complementary
    to descent_set inside 1..n-1."""
    return {i for i in range(1, len(perm)) if perm[i - 1] < perm[i]}


def descent_count(perm: Sequence[int]) -> int:
    c = 0
    for i in range(1, len(perm)):
        if perm[i - 1] > perm[i]:
            c += 1
    return c


def contains_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """True if some subsequence of perm standardizes to pattern.

    Naive exhaustive subsequence search; every pattern used internally has
    length at most 4, so nothing cleverer is warranted.

    >>> contains_pattern((2, 6, 3, 7, 5, 1, 4, 9, 8), (1, 3, 2, 4))
    True
    >>> contains_pattern((2, 1, 4, 3), (1, 2, 3))
    False
    """
    k = len(pattern)
    if k > len(perm):
        return False
    target = tuple(pattern)
    for sub in itertools.combinations(perm, k):
        if standardize(sub) == target:
            return True
    return False


def decreasing_run_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    """Lengths of the maximal decreasing substrings, left to right.

    The ascent set equals the prefix sums of all parts but the last.

    >>> decreasing_run_lengths((5, 2, 7, 3, 1, 4, 8, 9, 6))
    (2, 3, 1, 1, 2)
    """
    runs = []
    length = 1
    for i in range(1, len(perm)):
        if perm[i - 1] > perm[i]:
            length += 1
        else:
            runs.append(length)
            length = 1
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

    It compares entries only and does not check that perm is a permutation
    (it runs on every search leaf); callers holding untrusted input run
    check_permutation first.

    >>> is_minimal((3, 2, 1))
    True
    >>> is_minimal((2, 1, 4, 3)) and is_minimal((3, 1, 4, 2))
    True
    >>> is_minimal((1, 3, 2))
    False
    """
    return _first_violation(perm) is None


def minimality_violation(perm: Sequence[int]) -> str | None:
    """Explain why perm is not minimal, or None if it is.  Positions in the
    message are 1-indexed."""
    pos = _first_violation(perm)
    if pos is None:
        return None
    if pos == 0:
        return "length-1 permutations have no descent to start with"
    if pos in (1, len(perm) - 1):
        return f"position {pos} is an ascent, not a descent"
    window = tuple(perm[pos - 2:pos + 2])
    return (f"ascent at position {pos}: window {window} is of type "
            f"{''.join(map(str, standardize(window)))}, not 2143 or 3142")


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
    w = tuple(perm)
    n = len(w)
    if n < 2 or not (w[0] > w[1] and w[n - 2] > w[n - 1]):
        return False
    for k in range(1, n - 1):
        p, x, s = w[k - 1], w[k], w[k + 1]
        if (p > x) + (x > s) <= (p > s):
            return False
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
    if not 1 <= start <= stop <= n:
        raise ValueError(f"invalid fragment bounds {start}..{stop} for length {n}")
    size = stop - start + 1
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
            raise ValueError(f"keep entries must be 'first' or 'second', got {choice!r}")
    return tuple(x for idx, x in enumerate(duplicated) if idx not in drop)


def max_brute_n(override: int | None = None) -> int:
    """Resolve the brute-force size cap: an explicit override wins, else the
    default of 11.  An override must be an int of at least 1."""
    value = DEFAULT_MAX_BRUTE_N if override is None else override
    _check_int("brute-force cap", value)
    if value < 1:
        raise ValueError(f"brute-force cap must be >= 1, got {value}")
    return value


def enumerate_minimal(n: int, d: int | None = None,
                      runs: Sequence[int] | None = None,
                      double_descent_at: int | None = None,
                      max_n: int | None = None) -> Iterator[tuple[int, ...]]:
    """All minimal permutations of length n in lexicographic order,
    optionally restricted to descent count d, to decreasing-run lengths
    runs, or to descents at both positions j and j+1 (double_descent_at=j).

    The search is a depth-first walk of the prefix tree.  The constraints
    are pruned during the walk, not filtered at its leaves: runs and j fix
    some steps to ascend or descend, and d bounds the ascent count of every
    prefix, so each completed word meets them and the work grows with the
    output.  Every completed word is still validated with is_minimal, so
    correctness never rests on the pruning.  Refuses n above the
    brute-force cap.

    >>> list(enumerate_minimal(3))
    [(3, 2, 1)]
    >>> list(enumerate_minimal(4, d=2))
    [(2, 1, 4, 3), (3, 1, 4, 2)]
    """
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d is not None:
        _check_int("d", d)
        if d < 0:
            raise ValueError(f"d must be >= 0, got {d}")
    cap = max_brute_n(max_n)
    if n > cap:
        raise CapExceededError(
            f"enumeration over S_{n} exceeds the brute-force cap {cap}; raise it "
            "via the max_n argument")
    wanted = None if runs is None else tuple(runs)
    if wanted is not None and not {int}.issuperset(map(type, wanted)):
        raise ValueError(f"run lengths must be integers: {wanted}")
    if wanted is not None and sum(wanted) != n:
        raise ValueError(f"run lengths {wanted} do not sum to {n}")
    j = double_descent_at
    if j is not None:
        _check_int("double-descent position", j)
        if not 1 <= j <= n - 2:
            raise ValueError(f"double-descent position must be in 1..{n - 2}, got {j}")
    # step s (1 <= s <= n-1) goes from position s to s+1; minimality makes
    # the first and last steps descend
    ascend = [1 < s < n - 1 for s in range(n)]
    fewest, most = 0, n
    if wanted is not None:
        if min(wanted) < 2:
            return iter(())
        # the ascents fall at the prefix sums of all runs but the last; as
        # they are isolated and their count is fixed, each must be taken
        tops = set(itertools.accumulate(wanted[:-1]))
        ascend = [s in tops for s in range(n)]
        fewest = most = len(wanted) - 1
    if d is not None:
        if not fewest <= n - 1 - d <= most:
            return iter(())
        fewest = most = n - 1 - d
        if most == 0:
            ascend = [False] * n
    if j is not None:
        ascend[j] = ascend[j + 1] = False
    return _search_minimal(n, ascend, fewest, most)


def _search_minimal(n: int, ascend: list[bool], fewest: int,
                    most: int) -> Iterator[tuple[int, ...]]:
    """Minimal permutations of length n in lexicographic order whose step s
    ascends only if ascend[s], and whose ascent count lies in fewest..most.

    Each node lists, on entry, the unused values its prefix may take next:
    the structural test read one step at a time.  An ascent must exceed the
    value before the descent that precedes it and leave an unused value
    between its ends, which the value after it must take (a window of type
    2143 or 3142).  A value followed by k steps that must descend needs k
    unused values below it.
    """
    # room[s]: the most ascents steps s..n-1 can take when step s-1
    # descends (ascents are isolated, each needing descents on both sides);
    # fall[s]: how many steps from s on must descend in a row, so a value
    # placed before step s needs that many unused values below it
    room = [0] * (n + 2)
    fall = [0] * (n + 2)
    for s in range(n - 1, 0, -1):
        if ascend[s]:
            room[s] = max(room[s + 1], 1 + room[s + 2])
        else:
            room[s] = room[s + 1]
            fall[s] = fall[s + 1] + 1
    if room[1] < fewest:
        return
    # a prefix with a ascents may take step s down if a >= down[s], and up
    # if up[s] <= a < most
    down = [fewest - room[s + 1] for s in range(n)]
    up = [fewest - 1 - room[s + 2] if ascend[s] else n + 1 for s in range(n)]
    word = [n + 1]  # a sentinel above every value, so a step 0 "descends"
    free = list(range(1, n + 1))  # the unused values, in increasing order
    ascents = [0]  # ascents[i]: the ascent count of the prefix ending at word[i]
    pending = [iter(free[fall[1]:])]
    while pending:
        v = next(pending[-1], 0)
        if not v:
            pending.pop()
            bisect.insort(free, word.pop())
            ascents.pop()
            continue
        s = len(word)  # v sits at position s, so the next value takes step s
        if s == n:
            candidate = (*word[1:], v)
            if is_minimal(candidate):
                yield candidate
            continue
        prev = word[-1]
        a = ascents[-1] + (prev < v)
        word.append(v)
        ascents.append(a)
        free.remove(v)
        below = bisect.bisect(free, v)  # free[:below] lie below v
        first = fall[s + 1]  # free[i] leaves i unused values below it
        nexts = []
        if prev < v:
            if a >= down[s]:
                nexts = free[max(bisect.bisect(free, prev), first):below]
        else:
            if a >= down[s]:
                nexts = free[first:below]
            if up[s] <= a < most:
                nexts += free[max(bisect.bisect(free, prev), below + 1, first):]
        pending.append(iter(nexts))


def format_permutation(perm: Sequence[int]) -> str:
    """Serialize a permutation: space-separated for n <= 9, comma-separated
    otherwise.

    >>> format_permutation((2, 1, 4, 3))
    '2 1 4 3'
    """
    return _separator(len(perm)).join(map(str, perm))


def _separator(n: int) -> str:
    """The separator format_permutation puts between the n letters."""
    return " " if n <= 9 else ","


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse either serialization; reports the offending token on failure."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation")
    word = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            word.append(int(tok))
        except ValueError:
            raise ValueError(f"token {pos} ({tok!r}) is not an integer") from None
    return check_permutation(word)
