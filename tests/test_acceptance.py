"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are exact equality throughout; brute-force
sweeps go to the stated bounds (S_9 for counts, n = 10 for the bijection).
"""

import time

from minperm import (catalan, enumerate_minimal, mansour_yan, one_ascent_count,
                     two_ascent_count)
from minperm.counting import _column_count
from minperm.verify import (check_bijection_round_trip, check_catalan_law,
                            check_determinant_vs_enumeration,
                            check_double_descent_refinement,
                            check_insertion_paths, check_odd_length_formula,
                            check_one_ascent_closed_form, check_rsk_refinement,
                            check_three_way_counts,
                            check_two_ascent_closed_form, check_worked_chain)


def _report(number, check, extra=""):
    assert check.passed, f"ACCEPTANCE {number}: FAIL - {check.name}: {check.detail}"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number}: PASS - {check.name}{suffix}")


def test_criterion_01_three_way_counts():
    start = time.time()
    check = check_three_way_counts(9)
    elapsed = time.time() - start
    assert elapsed < 60, f"three-way sweep took {elapsed:.1f}s, budget is 60s"
    _report(1, check, f"{elapsed:.1f}s")


def test_criterion_02_catalan_law():
    assert _column_count(6, 3) == catalan(3) == 5
    assert _column_count(8, 4) == catalan(4) == 14
    _report(2, check_catalan_law(8))


def test_criterion_03_one_ascent_closed_form():
    assert one_ascent_count(5) == 10
    assert sum(1 for _ in enumerate_minimal(5, d=3)) == 10
    _report(3, check_one_ascent_closed_form(9))


def test_criterion_04_two_ascent_closed_form():
    assert [two_ascent_count(n) for n in (5, 6, 7)] == [0, 5, 84]
    assert [sum(1 for _ in enumerate_minimal(n, d=n - 3)) for n in (5, 6, 7)] \
        == [0, 5, 84]
    _report(4, check_two_ascent_closed_form(9))


def test_criterion_05_odd_length_formula():
    start = time.time()
    brute = sum(1 for _ in enumerate_minimal(9, d=5))
    elapsed = time.time() - start
    assert brute == mansour_yan(4) == 672
    assert elapsed < 120, f"length-9 sweep took {elapsed:.1f}s, budget is 120s"
    _report(5, check_odd_length_formula(9), f"brute f at length 9 in {elapsed:.1f}s")


def test_criterion_06_double_descent_refinement():
    _report(6, check_double_descent_refinement(9))


def test_criterion_07_determinant_vs_enumeration():
    _report(7, check_determinant_vs_enumeration(9))


def test_criterion_08_bijection_round_trips():
    _report(8, check_bijection_round_trip(10))


def test_criterion_09_rsk_knuth_suite():
    _report(9, check_rsk_refinement(9))
    _report(9, check_insertion_paths(9), "path properties")


def test_criterion_10_worked_chain():
    _report(10, check_worked_chain(9))
