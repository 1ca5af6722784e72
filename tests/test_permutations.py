import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import minperm.permutations as permutations_module
from minperm import (CapExceededError, ascent_set, check_permutation,
                     contains_pattern, decreasing_run_lengths, descent_count,
                     descent_set, duplicate_loss, enumerate_minimal,
                     format_permutation, is_minimal, is_minimal_by_deletion,
                     is_permutation, max_brute_n, minimality_violation,
                     parse_permutation, standardize)

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


class TestDeletionOracle:
    def test_examples(self):
        assert is_minimal_by_deletion((3, 2, 1))
        assert is_minimal_by_deletion((2, 1, 4, 3))
        assert not is_minimal_by_deletion((1, 2, 3, 4))

    def test_agrees_with_structural_test(self):
        for n in range(2, 8):
            for w in all_perms(n):
                assert is_minimal_by_deletion(w) == is_minimal(w), w

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
        with pytest.raises(CapExceededError):
            list(enumerate_minimal(12))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "5")
        assert max_brute_n() == 5
        with pytest.raises(CapExceededError):
            enumerate_minimal(6)
        assert list(enumerate_minimal(6, max_n=6))  # explicit override wins

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

    def test_non_integer_cap_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match=r"brute-force cap must be an integer, got 11\.9"):
            max_brute_n(11.9)
        with pytest.raises(ValueError, match="brute-force cap must be an integer, got True"):
            enumerate_minimal(1, max_n=True)
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "7")  # the variable's text still parses
        assert max_brute_n() == 7 and max_brute_n(9) == 9

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

    def test_leaves_equal_outputs(self, monkeypatch):
        leaves = []

        def counting(w):
            leaves.append(w)
            return is_minimal(w)

        monkeypatch.setattr(permutations_module, "is_minimal", counting)
        for constraints in ({}, {"d": 5}, {"runs": (2, 2, 2, 3)},
                            {"d": 5, "double_descent_at": 3}):
            leaves.clear()
            out = list(enumerate_minimal(9, **constraints))
            assert out and len(leaves) == len(out), constraints


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
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation("1 3")
        with pytest.raises(ValueError):
            parse_permutation("")

    def test_bool_entries_rejected(self):
        assert not is_permutation((True, 2))
        assert not is_permutation((2, True))
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation((True,))

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 14)
            w = tuple(rng.sample(range(1, n + 1), n))
            assert parse_permutation(format_permutation(w)) == w
