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

The predicates and formatters check an argument, through _check_ints, only
once their fast path has raised TypeError (no len(), or entries that do not
compare), so valid input pays nothing; on the ints it returns they retry once.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Sequence

from .errors import (DEFAULT_MAX_BRUTE_N, CapExceededError, _as_tuple,
                     _check_int, _check_ints, _parse_int)


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

    It compares entries only and does not check that perm is a permutation
    (it runs on every search leaf); callers holding untrusted input run
    check_permutation first.  A perm that is not an iterable of ints raises
    ValueError, checked only once reading it has raised TypeError, so
    that the search's leaves pay nothing for it.

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
            raise ValueError(f"keep entries must be 'first' or 'second', got {choice!r}")
    return tuple(x for idx, x in enumerate(duplicated) if idx not in drop)


def max_brute_n(override: int | None = None) -> int:
    """Resolve the brute-force size cap: an explicit override wins, else the
    default of 11.  An override must be an int of at least 1."""
    value = DEFAULT_MAX_BRUTE_N if override is None else override
    _check_int("brute-force cap", value, 1)
    return value


def enumerate_minimal(n: int, d: int | None = None,
                      runs: Sequence[int] | None = None,
                      double_descent_at: int | None = None,
                      max_n: int | None = None) -> Iterator[tuple[int, ...]]:
    """All minimal permutations of length n in lexicographic order,
    optionally restricted to descent count d, to decreasing-run lengths
    runs, or to descents at both positions j and j+1 (double_descent_at=j).

    Each search is a depth-first walk of the prefix tree that knows, for
    every step, whether it must descend, must ascend or is free.  A run
    profile fixes every step: its ascents fall at the prefix sums of all
    runs but the last, and every other step descends.  Descent count d is
    the union of its profiles, the compositions of n into n - d parts of
    at least 2: their searches yield disjoint streams, each in
    lexicographic order, which heapq.merge interleaves in that order.
    With neither, the first and last steps descend and the others are
    free.  j makes steps j and j+1 descend, and drops every profile that
    ascends there.  The constraints are pruned during the walk, so each
    completed word meets them; every one is still validated with
    is_minimal, so correctness never rests on the pruning.  Arguments are
    checked on the call, not on the first next().  Refuses n above the
    brute-force cap.

    >>> list(enumerate_minimal(3))
    [(3, 2, 1)]
    >>> list(enumerate_minimal(4, d=2))
    [(2, 1, 4, 3), (3, 1, 4, 2)]
    """
    _check_int("n", n, 1)
    if d is not None:
        _check_int("d", d, 0)
    cap = max_brute_n(max_n)
    if n > cap:
        raise CapExceededError(
            f"enumeration over S_{n} exceeds the brute-force cap {cap}; raise it "
            "via the max_n argument")
    wanted = None if runs is None else _check_ints("run lengths", runs)
    if wanted is not None and sum(wanted) != n:
        raise ValueError(f"run lengths {wanted} do not sum to {n}")
    j = double_descent_at
    if j is not None:
        _check_int("double-descent position", j, 1, n - 2)
    if wanted is None and d is None:
        steps = ["D"] * n + [None, None]
        steps[2:n - 1] = ["F"] * (n - 3)
        if j is not None:
            steps[j] = steps[j + 1] = "D"
        return _search_minimal(n, steps)
    # heapq and counting are imported here, not with this module: only the
    # searches by run profile need them, and at the top they raised the peak RSS
    import heapq
    from .counting import compositions_min2
    if wanted is not None:
        profiles = [wanted] if min(wanted) >= 2 and d in (None, n - len(wanted)) else []
    else:
        profiles = compositions_min2(n, n - d) if d < n else []
    searches = []
    for profile in profiles:
        tops = set(itertools.accumulate(profile[:-1]))
        steps = ["A" if s in tops else "D" for s in range(n)] + [None, None]
        if j is None or steps[j] == steps[j + 1] == "D":
            searches.append(_search_minimal(n, steps))
    return heapq.merge(*searches)


def _search_minimal(n: int, steps: Sequence[str | None]) -> Iterator[tuple[int, ...]]:
    """Minimal permutations of length n in lexicographic order whose step
    s, from 0-indexed position s-1 to s, descends if steps[s] is "D",
    ascends if it is "A", and may do either if it is "F".  steps holds
    n + 2 entries: steps[0], steps[1] and steps[n-1] are "D", every "A"
    lies between two "D", and steps[n] and steps[n+1] are None.

    Each node lists, on entry, the unused values its prefix may take next:
    the structural test read one step at a time.  A descent that follows
    an ascent lands strictly between the ascent's ends.  An ascent must
    exceed the value before the descent that precedes it and leave an
    unused value between its ends, which the value after it must take (a
    window of type 2143 or 3142).  A value also needs as many unused
    values below and above it as there are later positions that every
    output puts below and above it.  Below, those are the positions that
    the "D" steps after it reach in a row.  Above, an "A" step s puts
    positions s and s+1 above position s-1, and position s above s-2, and
    with them every later position above s+1 or s respectively.  Once
    every later step descends, the values left can only go in in
    decreasing order: they are placed at once, after one check of the
    step into the largest and of the window of an ascent there.
    """
    if n < 2:
        return
    # fall[i] / rise[i]: how many later positions every output puts below /
    # above position i, so the value there needs that many unused values
    # below / above it
    fall = [0] * (n + 2)
    rise = [0] * (n + 2)
    for i in range(n - 1, -1, -1):
        if steps[i + 1] == "D":
            fall[i] = fall[i + 1] + 1
        if steps[i + 1] == "A":
            rise[i] = 2 + rise[i + 2]
        elif steps[i + 2] == "A":
            rise[i] = 1 + rise[i + 2]
    word = [n + 2, n + 1]  # two sentinels, so position 0 follows a descent
    free = list(range(1, n + 1))  # the unused values, in increasing order
    pending = []  # pending[i]: the untried values for position i
    while True:
        i = len(word) - 2  # the position the next value takes, by step i
        p, a = word[-2], word[-1]
        step = steps[i]
        if fall[i] == len(free) - 1:
            # every later step descends, so the values left go in in
            # decreasing order: y must follow a as step i allows, and if it
            # ascends, its window's ends must hold p and x between them
            x, y = free[-2:]
            if y < a and step != "A" and (p > a or y > p) or \
                    y > a and (step == "A" or step == "F" and p > a) and y > p and x > a:
                candidate = (*word[2:], *reversed(free))
                if is_minimal(candidate):
                    yield candidate
            bisect.insort(free, word.pop())
        else:
            below = bisect.bisect(free, a)  # free[:below] lie below a
            lo, hi = fall[i], len(free) - rise[i]  # free[k] has k unused values below it
            nexts = []
            if step != "A":
                nexts = free[max(bisect.bisect(free, p) if p < a else 0, lo):min(below, hi)]
            if step == "A" or step == "F" and p > a:
                nexts += free[max(bisect.bisect(free, p), below + 1, lo):hi]
            pending.append(iter(nexts))
        while pending:
            v = next(pending[-1], 0)
            if v:
                break
            pending.pop()
            bisect.insort(free, word.pop())
        else:
            return
        word.append(v)
        free.remove(v)


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
        raise ValueError(f"permutation text must be a string, got {text!r}")
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
