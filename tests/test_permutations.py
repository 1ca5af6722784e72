import bisect
import itertools
import random
import re
import tracemalloc
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import minperm
import minperm.permutations as permutations_module
from minperm import (CapExceededError, ascent_set, check_permutation,
                     compositions_min2, contains_pattern,
                     decreasing_run_lengths, descent_count, descent_set,
                     double_descent_count, duplicate_loss, enumerate_minimal,
                     format_permutation, is_minimal, is_minimal_by_deletion,
                     is_permutation, minimal_count,
                     minimal_count_by_runs, minimality_violation,
                     parse_permutation, perm_to_tableau, shape_from_runs,
                     standardize, tableau_to_perm)
from minperm.permutations import _minimal_search
from test_bijection import random_filling

perms = lambda n: st.permutations(list(range(1, n + 1)))


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def compositions(n):
    """Every composition of n, parts of 1 included."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, length = [], 1
        for cut in cuts:
            if cut:
                parts.append(length)
                length = 1
            else:
                length += 1
        yield (*parts, length)


class TestStandardize:
    def test_examples(self):
        assert standardize((9, 4, 2, 5)) == (4, 2, 1, 3)
        assert standardize((1, 2, 3)) == (1, 2, 3)
        assert standardize((3, 5, 4, 9)) == (1, 3, 2, 4)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            standardize((1, 2, 2))

    @given(perms(7))
    def test_idempotent_on_permutations(self, w):
        assert standardize(tuple(w)) == tuple(w)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    def test_output_is_permutation(self, word):
        assert is_permutation(standardize(word))


class TestDescentsAscents:
    def test_example(self):
        w = (3, 1, 4, 5, 7, 2, 6)
        assert descent_set(w) == {1, 5}
        assert ascent_set(w) == {2, 3, 4, 6}

    def test_extremes(self):
        n = 6
        assert descent_set(tuple(range(1, n + 1))) == set()
        assert descent_set(tuple(range(n, 0, -1))) == set(range(1, n))

    @given(perms(8))
    def test_partition_property(self, w):
        d, a = descent_set(w), ascent_set(w)
        assert d | a == set(range(1, len(w)))
        assert d & a == set()

    def test_partition_property_exhaustive(self):
        for n in range(1, 8):
            for w in all_perms(n):
                assert descent_set(w) | ascent_set(w) == set(range(1, n))
                assert not descent_set(w) & ascent_set(w)


class TestContainsPattern:
    def test_examples(self):
        assert contains_pattern((2, 6, 3, 7, 5, 1, 4, 9, 8), (1, 3, 2, 4))
        assert contains_pattern((5, 1, 3), (1,))
        assert not contains_pattern((2, 1, 4, 3), (1, 2, 3))

    def test_shorter_than_pattern(self):
        assert not contains_pattern((2, 1), (1, 2, 3))


class TestDecreasingRuns:
    def test_examples(self):
        assert decreasing_run_lengths((5, 2, 7, 3, 1, 4, 8, 9, 6)) == (2, 3, 1, 1, 2)
        w16 = (16, 13, 4, 1, 7, 3, 14, 12, 9, 5, 2, 11, 10, 6, 15, 8)
        assert decreasing_run_lengths(w16) == (4, 2, 5, 3, 2)
        assert decreasing_run_lengths((6, 5, 4, 3, 2, 1)) == (6,)

    @given(perms(8))
    def test_parts_sum_and_ascents(self, w):
        w = tuple(w)
        runs = decreasing_run_lengths(w)
        assert sum(runs) == len(w)
        prefix = 0
        expected = set()
        for part in runs[:-1]:
            prefix += part
            expected.add(prefix)
        assert expected == ascent_set(w)


class TestIsMinimal:
    def test_examples(self):
        assert is_minimal((3, 2, 1))
        assert is_minimal((2, 1, 4, 3))
        assert is_minimal((3, 1, 4, 2))
        assert not is_minimal((1, 3, 2))

    def test_tiny_cases(self):
        assert not is_minimal((1,))
        assert is_minimal((2, 1))
        assert not is_minimal((1, 2))

    def test_violation_explains_and_agrees(self):
        assert minimality_violation((3, 2, 1)) is None
        assert "position 1" in minimality_violation((1, 3, 2))
        assert "2143 or 3142" in minimality_violation((3, 1, 2, 5, 4))
        for w in all_perms(6):
            assert (minimality_violation(w) is None) == is_minimal(w)


def deletion_by_recount(perm):
    """The definition itself: recount the descents of every one-element
    deletion.  The oracle for is_minimal_by_deletion's local formula."""
    w = tuple(perm)
    n = len(w)
    if n < 2:
        return False
    d = descent_count(w)
    if d == 0:
        return False
    for k in range(n):
        if descent_count(w[:k] + w[k + 1:]) >= d:
            return False
    return True


class TestDeletionOracle:
    def test_examples(self):
        assert is_minimal_by_deletion((3, 2, 1))
        assert is_minimal_by_deletion((2, 1, 4, 3))
        assert not is_minimal_by_deletion((1, 2, 3, 4))

    def test_agrees_with_structural_test(self):
        # the local formula against the recount and the structural test
        for n in range(0, 9):
            for w in all_perms(n):
                assert is_minimal_by_deletion(w) == deletion_by_recount(w) \
                    == is_minimal(w), w

    def test_local_formula_matches_recount_with_ties(self):
        # any sequence, not only permutations: ties, and entries outside
        # 1..n, which 0 and n + 1 end sentinels would misjudge
        assert is_minimal_by_deletion((5, -1)) and deletion_by_recount((5, -1))
        rng = random.Random(31)
        for _ in range(20000):
            w = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 9)))
            assert is_minimal_by_deletion(w) == deletion_by_recount(w), w

    def test_local_formula_matches_recount_past_the_cap(self):
        # minimal words of length 40-400 read off seeded fillings, and
        # copies of them with one adjacent transposition applied
        rng = random.Random(409)
        for k in (20, 50, 100):
            runs = tuple(rng.randint(2, 4) for _ in range(k))
            w = tableau_to_perm(random_filling(shape_from_runs(runs).conjugated(), rng))
            assert 40 <= len(w) <= 400 and is_minimal(w)
            for _ in range(12):
                i = rng.randrange(len(w) - 1)
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                for word in (w, swapped):
                    assert is_minimal_by_deletion(word) == deletion_by_recount(word) \
                        == is_minimal(word), word

    def test_descent_count_monotone_under_deletion(self):
        # this monotonicity is what justifies checking one-element
        # deletions only
        for n in range(2, 9):
            for w in all_perms(n):
                d = descent_count(w)
                for k in range(n):
                    assert descent_count(w[:k] + w[k + 1:]) <= d

    def test_length_bounds_and_run_lengths(self):
        # minimal permutations have d+1 <= n <= 2d and every run >= 2
        for n in range(2, 9):
            for w in enumerate_minimal(n):
                d = descent_count(w)
                assert d + 1 <= n <= 2 * d
                assert all(part >= 2 for part in decreasing_run_lengths(w))


class TestDuplicateLoss:
    def test_examples(self):
        assert duplicate_loss((1, 2, 3, 4, 5, 6), 2, 4,
                              ("second", "first", "second")) == (1, 3, 2, 4, 5, 6)
        w = (3, 1, 4, 2)
        assert duplicate_loss(w, 1, 4, ("first",) * 4) == w
        assert duplicate_loss((1, 2), 1, 2, ("second", "first")) == (2, 1)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            duplicate_loss((1, 2, 3), 2, 4, ("first", "first", "first"))
        with pytest.raises(ValueError):
            duplicate_loss((1, 2, 3), 1, 2, ("first",))
        with pytest.raises(ValueError):
            duplicate_loss((1, 2, 3), 1, 2, ("first", "third"))

    @pytest.mark.parametrize("start, stop, name", [(1.0, 2, "start"), (1, 2.0, "stop"),
                                                   (True, 2, "start"), (1, None, "stop")])
    def test_non_int_bounds_rejected(self, start, stop, name):
        # (1.0, 2) once raised TypeError from slicing, and True acted as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            duplicate_loss((2, 1), start, stop, ("first", "first"))

    @given(perms(7), st.data())
    def test_result_is_permutation(self, w, data):
        w = tuple(w)
        i = data.draw(st.integers(1, len(w)))
        j = data.draw(st.integers(i, len(w)))
        keep = data.draw(st.lists(st.sampled_from(["first", "second"]),
                                  min_size=j - i + 1, max_size=j - i + 1))
        out = duplicate_loss(w, i, j, keep)
        assert is_permutation(out) and len(out) == len(w)


class TestEnumerateMinimal:
    def test_examples(self):
        assert list(enumerate_minimal(3)) == [(3, 2, 1)]
        assert list(enumerate_minimal(4, d=2)) == [(2, 1, 4, 3), (3, 1, 4, 2)]
        five = list(enumerate_minimal(5, d=3, double_descent_at=1))
        assert len(five) == 5 and (3, 2, 1, 5, 4) in five

    def test_matches_naive_filter(self):
        for n in range(1, 9):
            naive = [w for w in all_perms(n) if is_minimal(w)]
            assert list(enumerate_minimal(n)) == naive

    def test_lexicographic_order(self):
        out = list(enumerate_minimal(7))
        assert out == sorted(out)

    def test_runs_filter(self):
        for w in enumerate_minimal(7, runs=(2, 2, 3)):
            assert decreasing_run_lengths(w) == (2, 2, 3)
        total = sum(1 for _ in enumerate_minimal(7, runs=(2, 2, 3)))
        assert total == 21

    def test_cap_refusal(self):
        # with no cap on n, the table's size refuses a huge n on the call,
        # from its row lengths alone
        with pytest.raises(CapExceededError, match=r"^enumeration over S_10{30} needs a "
                                                   "completion-count table of at least"):
            enumerate_minimal(10 ** 30)

    def test_no_cap_read_from_the_environment(self, monkeypatch):
        # no cap is read from the environment, and none is left on n: n = 12
        # gets its generator on the call, and max_n is no argument
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "5")
        assert len(list(enumerate_minimal(6))) == 38
        assert next(enumerate_minimal(12)) == (2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11)
        with pytest.raises(TypeError):
            enumerate_minimal(6, max_n=6)
        assert not hasattr(minperm, "max_brute_n")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_minimal(0)
        with pytest.raises(ValueError):
            enumerate_minimal(6, runs=(2, 2))
        with pytest.raises(ValueError):
            enumerate_minimal(6, double_descent_at=5)

    def test_non_integer_runs_rejected(self):
        with pytest.raises(ValueError, match=r"run lengths must be integers: \(2\.0, 3\)"):
            enumerate_minimal(5, runs=(2.0, 3))
        with pytest.raises(ValueError, match="run lengths must be integers"):
            enumerate_minimal(4, runs=(True, 3))

    def test_non_integer_double_descent_rejected(self):
        with pytest.raises(ValueError, match="double-descent position must be an integer, got True"):
            enumerate_minimal(5, double_descent_at=True)
        with pytest.raises(ValueError, match="double-descent position must be an integer"):
            enumerate_minimal(5, double_descent_at=1.0)

    def test_non_integer_d_rejected(self):
        with pytest.raises(ValueError, match="d must be an integer, got True"):
            enumerate_minimal(2, d=True)
        with pytest.raises(ValueError, match="d must be an integer"):
            enumerate_minimal(4, d=2.0)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match=r"n must be an integer, got 3\.0"):
            enumerate_minimal(3.0)
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            enumerate_minimal(True)

    def test_short_runs_yield_nothing(self):
        for runs in ((1, 4), (3, 1, 1), (5, 0), (6, -1), (1,) * 5):
            assert list(enumerate_minimal(5, runs=runs)) == []


def leaf_filter(rows, d=None, runs=None, j=None):
    """The filter the search once applied to every leaf of the unconstrained
    walk; rows holds (w, descent_count(w), decreasing_run_lengths(w))."""
    return [w for w, descents, lengths in rows
            if (d is None or descents == d)
            and (runs is None or lengths == runs)
            and (j is None or w[j - 1] > w[j] > w[j + 1])]


class TestConstrainedSearch:
    """Constraints are pruned inside the search; the leaf filter it replaced
    is the oracle."""

    def test_matches_leaf_filter(self):
        for n in range(1, 10):
            rows = [(w, descent_count(w), decreasing_run_lengths(w))
                    for w in enumerate_minimal(n)]
            ds, js = range(n + 1), range(1, n - 1)
            cases = [{"d": d} for d in ds] + [{"j": j} for j in js]
            cases += [{"runs": runs} for runs in compositions(n)]
            cases += [{"d": d, "j": j} for d in ds for j in js]
            if n <= 8:
                cases += [{"d": d, "runs": runs} for d in ds for runs in compositions(n)]
            for case in cases:
                got = enumerate_minimal(n, d=case.get("d"), runs=case.get("runs"),
                                        double_descent_at=case.get("j"))
                assert list(got) == leaf_filter(rows, **case), (n, case)

    def test_every_node_lies_on_an_output(self, monkeypatch):
        # the walk reads its table once per expansion: once per node it
        # enters with more than MEMO_DEPTH values unused, and once per
        # state it puts in its memo, down to two values unused (a state
        # with one has one completion); so it reads layer m - 1 once per
        # distinct output prefix with m values unused above the memo, and
        # once per distinct state of such a prefix within it, exactly when
        # it expands no prefix without an output and no state twice
        reads = []

        class Table(list):
            def __getitem__(self, m):
                reads.append(m + 1)
                return list.__getitem__(self, m)

        def state(prefix, n, d):
            # (m, kind, ranks of the last two letters among the unused
            # values, ascents made), one to one with the walk's keys;
            # ascents only matter under d, and a sentinel n + 1 stands
            # before the first letter
            free = sorted(set(range(1, n + 1)) - set(prefix))
            a, b = ((n + 1, n + 1) + prefix)[-2:]
            ascents = sum(x < y for x, y in zip(prefix, prefix[1:])) if d is not None else 0
            return len(free), a < b, bisect.bisect(free, a), bisect.bisect(free, b), ascents

        walk = permutations_module._walk
        monkeypatch.setattr(permutations_module, "_walk",
                            lambda n, table, *rest: walk(n, Table(table), *rest))
        depth = permutations_module.MEMO_DEPTH
        for n, constraints in ((9, {}), (9, {"d": 5}), (9, {"runs": (2, 2, 2, 3)}),
                               (9, {"d": 5, "double_descent_at": 3}), (11, {"d": 6}),
                               (10, {"double_descent_at": 4}), (12, {"runs": (3, 2, 4, 3)})):
            reads.clear()
            out = list(enumerate_minimal(n, **constraints))
            assert out and all(map(is_minimal, out)), constraints
            nodes = {m: {w[:n - m] if m > depth else state(w[:n - m], n, constraints.get("d"))
                         for w in out} for m in range(2, n + 1)}
            assert Counter(reads) == {m: len(seen) for m, seen in nodes.items()}, constraints

    def test_memo_matches_the_walk(self):
        # the default walk against one that expands every node down to two
        # values unused, as the walk did without its memo
        def both(n, **constraints):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(permutations_module, "MEMO_DEPTH", 2)
                shallow = list(enumerate_minimal(n, **constraints))
            return shallow, list(enumerate_minimal(n, **constraints))

        cases = [(n, {"d": d}) for n in range(1, 11) for d in (None, *range(n + 1))]
        cases += [(n, {"runs": runs}) for n in range(2, 10) for k in range(1, n // 2 + 1)
                  for runs in compositions_min2(n, k)]
        cases += [(n, {"double_descent_at": j}) for n in range(3, 11) for j in range(1, n - 1)]
        cases += [(11, {"d": d}) for d in range(12)]
        for n, constraints in cases:
            shallow, deep = both(n, **constraints)
            assert shallow == deep, (n, constraints)

    def test_memo_stays_small(self):
        # the memo's entries are bounded by its depth, not by n: walking
        # the whole band at n = 10 peaks at about 70 kB
        stream = enumerate_minimal(10)
        tracemalloc.start()
        try:
            for _ in stream:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150_000


def search_by_budget(n, d=None, runs=None):
    """A second constrained search, as the oracle for enumerate_minimal's
    content and order: one walk of the prefix tree in which step s may
    ascend only if ascend[s], under a budget fewest..most on the prefix's
    ascent count, with every leaf checked by is_minimal."""
    ascend = [1 < s < n - 1 for s in range(n)]
    fewest, most = 0, n
    if runs is not None:
        if min(runs) < 2:
            return []
        tops = set(itertools.accumulate(runs[:-1]))
        ascend = [s in tops for s in range(n)]
        fewest = most = len(runs) - 1
    if d is not None:
        if not fewest <= n - 1 - d <= most:
            return []
        fewest = most = n - 1 - d
        if most == 0:
            ascend = [False] * n
    return list(_walk_by_budget(n, ascend, fewest, most))


def _walk_by_budget(n, ascend, fewest, most):
    # room[s]: the most ascents steps s..n-1 can take when step s-1
    # descends; fall[s]: how many steps from s on must descend in a row
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
    word = [n + 1]
    free = list(range(1, n + 1))
    ascents = [0]
    pending = [iter(free[fall[1]:])]
    while pending:
        v = next(pending[-1], 0)
        if not v:
            pending.pop()
            bisect.insort(free, word.pop())
            ascents.pop()
            continue
        s = len(word)
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
        below = bisect.bisect(free, v)
        first = fall[s + 1]
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


class TestSearchByBudget:
    """Fixed-step searches, merged over the profiles of a descent count,
    against one walk under an ascent budget; a double descent at j keeps
    the words that descend at j and j+1, in order."""

    def check(self, n, cases, js):
        for case in cases:
            expected = search_by_budget(n, **case)
            for j in js:
                got = list(enumerate_minimal(n, **case, double_descent_at=j))
                if j is not None:
                    expected_j = [w for w in expected if w[j - 1] > w[j] > w[j + 1]]
                    assert got == expected_j, (n, case, j)
                else:
                    assert got == expected, (n, case)

    def test_every_constraint_to_n10(self):
        for n in range(1, 11):
            profiles = [runs for k in range(1, n // 2 + 1) for runs in compositions_min2(n, k)]
            cases = [{"d": d} for d in [None, *range(n + 1)]] + [{"runs": r} for r in profiles]
            self.check(n, cases, [None, *range(1, n - 1)])

    def test_every_d_at_n11(self):
        self.check(11, [{"d": d} for d in range(12)], (None, 1, 3))


class TestPastTheCap:
    """Enumeration as a counting oracle past n = 11: every run profile of
    12 to 16 cells with at most 5,000 minimal permutations."""

    def test_profiles_match_determinant(self):
        checked = 0
        for n in range(12, 17):
            for k in range(1, n // 2 + 1):
                for runs in compositions_min2(n, k):
                    count = minimal_count_by_runs(runs)
                    if count > 5000:
                        continue
                    words = list(enumerate_minimal(n, runs=runs))
                    assert len(words) == count, runs
                    assert all(decreasing_run_lengths(w) == runs and is_minimal_by_deletion(w)
                               for w in words), runs
                    checked += 1
        assert checked == 84


class TestCompletionCounts:
    """The search's table counts its outputs with no determinant; its
    totals against the counting layer, far past brute force."""

    def test_every_descent_count_to_n38(self):
        # minimal_count through its chooser: a closed form where one covers
        # (n, d), else the column program.  n <= 40 took 3.9 s against 3.0 s
        # for n <= 38 (2-core x86-64, Python 3.11)
        for n in range(1, 39):
            for d in range(n + 1):
                assert _minimal_search(n, d=d)[0] == minimal_count(n, d), (n, d)

    def test_excess_rows_to_n60(self):
        # the rows of excess e = 2, 3 and 4, n = 2k + e and d = k + e, next to
        # the Catalan (e = 0) and Mansour-Yan (e = 1) rows at the low end of
        # the band: an oracle for recurrences in k at a fixed excess
        rows = [(2 * k + e, k + e) for e in (2, 3, 4) for k in range(1, (60 - e) // 2 + 1)]
        assert len(rows) == 85 and max(rows) == (60, 32)
        for n, d in rows:
            assert _minimal_search(n, d=d)[0] == minimal_count(n, d), (n, d)

    def test_double_descents_to_length_21(self):
        # length 2m+1 with m+1 descents has one double descent, at an odd j
        for m in range(1, 11):
            n = 2 * m + 1
            for j in range(1, n - 1):
                want = double_descent_count(m, (j + 1) // 2) if j % 2 else 0
                got = _minimal_search(n, d=m + 1, j=j)[0]
                assert got == want, (m, j)

    def test_seeded_profiles(self):
        rng = random.Random(31)
        for _ in range(20):
            runs = tuple(rng.choice((2, 2, 2, 3, 4)) for _ in range(rng.randint(10, 25)))
            n = sum(runs)
            assert _minimal_search(n, runs=runs)[0] == minimal_count_by_runs(runs), runs

    def test_positive_counts_form_one_interval(self, monkeypatch):
        # the walk enters every r between the first and the last positive
        # count of a row, which is right when the positive counts of every
        # row form one interval: on every table for each d and each double
        # descent to n = 14, and on seeded run profiles
        tables = []
        monkeypatch.setattr(permutations_module, "_walk",
                            lambda n, table, *rest: tables.append(table))
        for n in range(2, 15):
            for d in (None, *range(n)):
                for j in (None, *range(1, n - 1)):
                    _minimal_search(n, d=d, j=j)
        rng = random.Random(32)
        for _ in range(100):
            runs = tuple(rng.choice((2, 2, 3, 4, 5)) for _ in range(rng.randint(2, 12)))
            _minimal_search(sum(runs), runs=runs, j=rng.randint(1, sum(runs) - 2))
        rows = [row for table in tables for layer in table for drows, arows in layer.values()
                for row in (*drows, *(arows or ()))]
        for row in rows:
            positive = [r for r in range(len(row) - 1) if row[r + 1] > row[r]]
            assert not positive or positive[-1] - positive[0] == len(positive) - 1, row
        assert len(tables) > 500

    def test_table_cap(self, monkeypatch):
        # the table is sized before it is built
        with pytest.raises(CapExceededError, match="needs a completion-count table of at "
                                                   r"least \d+ entries, above the cap of 1000000"):
            enumerate_minimal(200)
        monkeypatch.setattr(permutations_module, "MAX_TABLE_ENTRIES", 65)
        assert len(list(enumerate_minimal(5))) == 11
        with pytest.raises(CapExceededError, match="table of at least 9[0-9] entries, above the cap"):
            enumerate_minimal(6)


class TestSerialization:
    def test_format(self):
        assert format_permutation((2, 1, 4, 3)) == "2 1 4 3"
        w = tuple(range(10, 0, -1))
        assert format_permutation(w) == "10,9,8,7,6,5,4,3,2,1"

    def test_parse_both_forms(self):
        assert parse_permutation("2 1 4 3") == (2, 1, 4, 3)
        assert parse_permutation("10,9,8,7,6,5,4,3,2,1") == tuple(range(10, 0, -1))
        assert parse_permutation(" 2 , 1 , 4 , 3 ") == (2, 1, 4, 3)

    def test_parse_errors_name_token(self):
        with pytest.raises(ValueError, match="token 3"):
            parse_permutation("1 2 x")
        # int() also reads other scripts' digits and underscores
        for text, bad in (("٢ ١", "1 ('٢')"), ("2,1_0", "2 ('1_0')"), ("２ １", "1 ('２')"),
                          ("2 --1", "2 ('--1')"), ("2 +", "2 ('+')")):
            with pytest.raises(ValueError, match=rf"^token {re.escape(bad)} is not an integer$"):
                parse_permutation(text)
        assert parse_permutation("+2 1") == (2, 1)
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation("1 3")
        with pytest.raises(ValueError):
            parse_permutation("")

    def test_bool_entries_rejected(self):
        assert not is_permutation((True, 2))
        assert not is_permutation((2, True))
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation((True,))

    def test_int_subclass_entries_rejected(self):
        # an IntEnum member is an int but not an exact one, which the
        # tableau layer requires: refuse it at the entry point, not later
        class Label(IntEnum):
            ONE = 1
            TWO = 2

        assert not is_permutation((Label.TWO, Label.ONE))
        with pytest.raises(ValueError, match="not a permutation"):
            perm_to_tableau((Label.TWO, Label.ONE))

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 14)
            w = tuple(rng.sample(range(1, n + 1), n))
            assert parse_permutation(format_permutation(w)) == w


# every predicate and formatter, with its arguments for a given perm
SEQUENCE_FUNCTIONS = [
    (is_minimal, lambda w: (w,)), (is_minimal_by_deletion, lambda w: (w,)),
    (minimality_violation, lambda w: (w,)), (descent_count, lambda w: (w,)),
    (descent_set, lambda w: (w,)), (ascent_set, lambda w: (w,)),
    (decreasing_run_lengths, lambda w: (w,)), (standardize, lambda w: (w,)),
    (format_permutation, lambda w: (w,)), (contains_pattern, lambda w: (w, (1,))),
    (contains_pattern, lambda w: ((2, 1), w)),
]
NOT_ITERABLE = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                         st.complex_numbers(), st.builds(object))


class TestArguments:
    """A perm that is not an iterable of ints is refused with ValueError
    where each predicate and formatter once raised TypeError, an iterator
    reads as the same tuple, and is_permutation answers False."""

    @pytest.mark.parametrize("fn, args", SEQUENCE_FUNCTIONS)
    @seed(26)
    @settings(max_examples=50, deadline=None)
    @given(value=NOT_ITERABLE)
    @example(value=5)
    def test_not_iterable(self, fn, args, value):
        with pytest.raises(ValueError, match=r"^expected an iterable for (permutation|word|"
                                             r"pattern), got "):
            fn(*args(value))

    @given(value=NOT_ITERABLE)
    def test_is_permutation_answers_false(self, value):
        assert is_permutation(value) is False

    @pytest.mark.parametrize("fn, args", SEQUENCE_FUNCTIONS)
    def test_iterable_answers_unchanged(self, fn, args):
        # valid input answers as before, and entries that do not compare
        # are refused
        w = (3, 1, 4, 2)
        assert fn(*args(list(w))) == fn(*args(w))
        if fn is not format_permutation:
            with pytest.raises(ValueError, match=r"must be integers: \(2, None, 1, 3\)$"):
                fn(*args((2, None, 1, 3)))

    @pytest.mark.parametrize("fn, args", SEQUENCE_FUNCTIONS + [(is_permutation, lambda w: (w,))])
    @seed(27)
    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.one_of(st.integers(1, 6), st.none(), st.floats(),
                                      st.booleans(), st.text(max_size=1)), max_size=6))
    @example(entries=[3, 1, 4, 2])
    @example(entries=[2, None, 1])
    def test_iterator_reads_as_tuple(self, fn, args, entries):
        # an iterator answers as the same tuple, or, holding an entry that
        # is not an int, may be refused; TypeError and AttributeError escape
        def outcome(value):
            try:
                return fn(*args(value))
            except ValueError:
                return ValueError

        got = outcome(iter(entries))
        assert got == outcome(tuple(entries)) or \
            got is ValueError and not {int}.issuperset(map(type, entries))

    @pytest.mark.parametrize("perm, pattern, message", [
        # the first three once answered False, False and True, and the
        # last named a word the caller never passed
        ((1, 2), (None,), r"^pattern must be integers: \(None,\)$"),
        ((1, 2), ("a", "b"), r"^pattern must be integers: \('a', 'b'\)$"),
        ((1, 2), (1.0,), r"^pattern must be integers: \(1\.0,\)$"),
        ((1, "a"), (1, 2), r"^permutation must be integers: \(1, 'a'\)$"),
    ])
    def test_contains_pattern_reads_both_arguments(self, perm, pattern, message):
        with pytest.raises(ValueError, match=message):
            contains_pattern(perm, pattern)
        with pytest.raises(ValueError, match=message):
            contains_pattern(iter(perm), iter(pattern))

    @given(value=NOT_ITERABLE)
    def test_duplicate_loss_keep(self, value):
        with pytest.raises(ValueError, match="^expected an iterable for keep, got "):
            duplicate_loss((1, 2), 1, 2, value)
        assert duplicate_loss((1, 2), 1, 2, iter(("second", "first"))) == (2, 1)

    @given(value=st.one_of(NOT_ITERABLE, st.binary(), st.lists(st.integers(1, 3))))
    def test_parse_permutation_takes_text_only(self, value):
        with pytest.raises(ValueError, match="^permutation text must be a string, got "):
            parse_permutation(value)
