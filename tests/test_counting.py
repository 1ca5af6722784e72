import math

import pytest

import minperm.verify as verify
from minperm import (SkewShape, catalan, compositions_min2,
                     decreasing_run_lengths, double_descent_count,
                     enumerate_minimal, hook_count, mansour_yan,
                     minimal_count, minimal_count_band, minimal_count_by_runs,
                     one_ascent_count, run_suite, shape_from_runs,
                     skew_syt_count, three_row_syt_count, two_ascent_count)


def composition_sum(n, d):
    """minimal_count as the sum of one determinant per run profile."""
    if d < 1 or n < d + 1 or n > 2 * d:
        return 0
    return sum(minimal_count_by_runs(a) for a in compositions_min2(n, n - d))


class TestCatalan:
    def test_examples(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(4) == 14
        assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestCompositions:
    def test_examples(self):
        assert list(compositions_min2(7, 3)) == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]
        assert list(compositions_min2(8, 4)) == [(2, 2, 2, 2)]
        assert list(compositions_min2(5, 3)) == []

    def test_count_formula(self):
        for n in range(2, 15):
            for k in range(1, n // 2 + 1):
                assert sum(1 for _ in compositions_min2(n, k)) == math.comb(n - k - 1, k - 1)

    def test_lexicographic(self):
        out = list(compositions_min2(12, 4))
        assert out == sorted(out)
        assert all(sum(a) == 12 and len(a) == 4 and min(a) >= 2 for a in out)


class TestRunCounts:
    def test_examples(self):
        assert minimal_count_by_runs((2, 2)) == 2
        assert minimal_count_by_runs((3, 3)) == 14
        assert minimal_count_by_runs((2, 2, 2)) == 5

    def test_two_run_closed_form(self):
        for n in range(4, 12):
            for k in range(2, n - 1):
                assert minimal_count_by_runs((k, n - k)) == math.comb(n, k) - n

    def test_matches_generic_determinant(self):
        for total in range(2, 11):
            for parts in range(1, total // 2 + 1):
                for a in compositions_min2(total, parts):
                    assert minimal_count_by_runs(a) == skew_syt_count(shape_from_runs(a))

    def test_shape_matrix_is_the_banded_form(self):
        # the exponent of 1/(outer[i] - inner[j] - i + j)! on shape_from_runs
        # is the paper's banded matrix entry for entry
        for total in range(2, 17):
            for parts in range(1, total // 2 + 1):
                for a in compositions_min2(total, parts):
                    shape = shape_from_runs(a)
                    for i in range(parts):
                        for j in range(parts):
                            e = shape.outer[i] - shape.inner[j] - i + j
                            if j >= i:
                                assert e == sum(a[i:j + 1]) - (j - i), (a, i, j)
                            elif j == i - 1:
                                assert e == 1, (a, i, j)
                            elif j == i - 2:
                                assert e == 2 - a[i - 1], (a, i, j)
                            else:
                                assert e < 0, (a, i, j)

    def test_matches_brute_force(self):
        for a in [(2, 2), (2, 3), (3, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 4)]:
            n = sum(a)
            brute = sum(1 for w in enumerate_minimal(n)
                        if decreasing_run_lengths(w) == a)
            assert minimal_count_by_runs(a) == brute

    def test_bad_runs(self):
        with pytest.raises(ValueError):
            minimal_count_by_runs((2, 1))
        with pytest.raises(ValueError):
            minimal_count_by_runs(())

    def test_fault_injection_hook_changes_result(self):
        assert verify._faulty_minimal_count(6, 3) != minimal_count(6, 3)
        assert not run_suite("counts", 4, inject_fault=True)["passed"]
        # the fault travels as an argument, so nothing leaks into a later run
        assert run_suite("counts", 4)["passed"]


class TestMinimalCount:
    def test_shortest_case_is_one(self):
        for d in range(1, 12):
            assert minimal_count(d + 1, d) == 1

    def test_spot_values(self):
        assert minimal_count(6, 3) == 5
        assert minimal_count(7, 4) == 84

    def test_zero_outside_band(self):
        assert minimal_count(9, 2) == 0
        assert minimal_count(5, 0) == 0
        assert minimal_count(4, 4) == 0
        assert minimal_count(13, 6) == 0

    def test_catalan_specialization(self):
        for m in range(1, 9):
            assert minimal_count(2 * m, m) == catalan(m)

    def test_column_program_matches_composition_sum(self):
        # the composition sum the column program replaced is its oracle
        for n in range(1, 21):
            band = minimal_count_band(n)
            assert list(band) == list(range((n + 1) // 2, n))
            for d in range(n + 2):
                want = composition_sum(n, d)
                assert minimal_count(n, d) == want, (n, d)
                if d in band:
                    assert band[d] == want, (n, d)

    def test_band_matches_closed_forms_to_60(self):
        for n in range(1, 61):
            band = minimal_count_band(n)
            assert band.get(n - 1, 1) == 1
            if n % 2 == 0:
                assert band[n // 2] == catalan(n // 2)
            elif n >= 3:
                assert band[(n + 1) // 2] == mansour_yan((n - 1) // 2)
            if n >= 4:
                assert band[n - 2] == one_ascent_count(n)
            if n >= 6:
                assert band[n - 3] == two_ascent_count(n)
        assert minimal_count(60, 30) == catalan(30)
        assert minimal_count(59, 30) == mansour_yan(29)

    def test_exact_integer_arguments(self):
        for n, d in ((6.0, 3), (6, 3.0), (True, 1), (6, True), ("6", 3)):
            with pytest.raises(ValueError, match="must be an integer"):
                minimal_count(n, d)
        for n in (6.0, True, None):
            with pytest.raises(ValueError, match="n must be an integer"):
                minimal_count_band(n)
        assert minimal_count_band(1) == {} == minimal_count_band(-4)


class TestClosedForms:
    def test_one_ascent(self):
        assert one_ascent_count(4) == 2
        assert one_ascent_count(5) == 10
        for n in range(4, 31):
            assert one_ascent_count(n) == minimal_count(n, n - 2)

    def test_two_ascents(self):
        assert [two_ascent_count(n) for n in (5, 6, 7)] == [0, 5, 84]
        for n in range(5, 31):
            assert two_ascent_count(n) == minimal_count(n, n - 3)

    def test_domains(self):
        with pytest.raises(ValueError):
            one_ascent_count(3)
        with pytest.raises(ValueError):
            two_ascent_count(4)


class TestOddLengthFormula:
    def test_examples(self):
        assert [mansour_yan(n) for n in (1, 2, 3)] == [1, 10, 84]

    def test_against_determinant_sum(self):
        for m in range(1, 13):
            assert mansour_yan(m) == minimal_count(2 * m + 1, m + 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            mansour_yan(0)


class TestRefinement:
    def test_examples(self):
        assert double_descent_count(2, 1) == 5
        assert double_descent_count(2, 2) == 5
        assert double_descent_count(3, 2) == 42

    def test_sum_and_symmetry(self):
        for m in range(1, 13):
            assert sum(double_descent_count(m, i) for i in range(1, m + 1)) == mansour_yan(m)
            for i in range(1, m + 1):
                assert double_descent_count(m, i) == double_descent_count(m, m - i + 1)

    def test_tableau_sum_identity(self):
        for m in range(1, 13):
            for i in range(1, m + 1):
                expected = sum(three_row_syt_count(m, k)
                               for k in range(1, min(i, m - i + 1) + 1))
                assert double_descent_count(m, i) == expected

    def test_run_profile_past_the_brute_force_caps(self):
        # length 2m+1 with m+1 descents has profile 2,..,2,3,2,..,2, and the
        # 3 in place i puts the double descent at (2i-1, 2i)
        for m in (50, 100):
            for i in (1, 2, m // 3, m // 2, m - 1, m):
                runs = (2,) * (i - 1) + (3,) + (2,) * (m - i)
                assert minimal_count_by_runs(runs) == double_descent_count(m, i), (m, i)

    def test_skew_shape_identity(self):
        for m in range(1, 9):
            for i in range(1, m + 1):
                shape = SkewShape((m, m, i), (i - 1,))
                assert skew_syt_count(shape) == double_descent_count(m, i)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            double_descent_count(3, 0)
        with pytest.raises(ValueError):
            double_descent_count(3, 4)


class TestThreeRowCounts:
    def test_examples(self):
        assert three_row_syt_count(3, 1) == 21
        assert three_row_syt_count(3, 2) == 21
        assert three_row_syt_count(4, 2) == 168

    def test_matches_hooks(self):
        for m in range(1, 11):
            for k in range(1, (m + 1) // 2 + 1):
                assert three_row_syt_count(m, k) == hook_count((m, m + 1 - k, k))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            three_row_syt_count(4, 3)
        with pytest.raises(ValueError):
            three_row_syt_count(4, 0)
