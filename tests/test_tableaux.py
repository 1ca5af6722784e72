import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minperm import (CapExceededError, SkewShape, SkewTableau, conjugate,
                     count_standard_fillings, format_shape, hook_count,
                     hook_length, is_standard, is_two_regular, parse_shape,
                     shape_from_runs, shape_is_two_regular,
                     skew_standard_tableaux, skew_syt_count,
                     tableau_from_json, tableau_to_json)
from minperm.counting import compositions_min2
from minperm.tableaux import _exact_int, det_rational


@st.composite
def partitions(draw, max_part=6, max_rows=4):
    rows = draw(st.integers(1, max_rows))
    parts = []
    bound = max_part
    for _ in range(rows):
        part = draw(st.integers(1, bound))
        parts.append(part)
        bound = part
    return tuple(parts)


@st.composite
def skew_shapes(draw, max_cells=10):
    outer = draw(partitions())
    inner = []
    bound = outer[0]
    for lam in outer:
        mu = draw(st.integers(0, min(bound, lam)))
        inner.append(mu)
        bound = mu
    shape = SkewShape(outer, tuple(inner))
    if not 0 < shape.size <= max_cells:
        # resample rather than skewing the distribution with assume
        return draw(skew_shapes(max_cells=max_cells))
    return shape


def reciprocal_factorial_count(shape):
    """The determinant formula over Fraction(1, e!) entries, as written:
    an oracle for the integral rows that skew_syt_count builds."""
    outer, inner = shape.outer, shape.inner
    r = len(outer)
    matrix = [[Fraction(1, math.factorial(e)) if e >= 0 else Fraction(0)
               for e in (outer[i] - inner[j] - i + j for j in range(r))]
              for i in range(r)]
    return math.factorial(shape.size) * det_rational(matrix)


def conjugate_by_counting(parts):
    """Column c of the diagram has as many cells as there are parts >= c."""
    p = tuple(parts)
    return tuple(sum(1 for x in p if x >= c) for c in range(1, p[0] + 1)) if p else ()


def column_rows_by_scan(shape, col):
    """1-indexed rows holding a cell of the 1-indexed column col, found by
    scanning every row."""
    lo = hi = None
    for i, (lam, mu) in enumerate(zip(shape.outer, shape.inner), start=1):
        if mu < col <= lam:
            if lo is None:
                lo = i
            hi = i
    return range(0) if lo is None else range(lo, hi + 1)


def two_regular_by_scan(shape):
    """shape_is_two_regular over row-scanned column spans."""
    spans = [column_rows_by_scan(shape, c) for c in range(1, shape.column_count + 1)]
    if not spans or any(len(span) < 2 for span in spans):
        return False
    return all(min(left.stop, right.stop) - max(left.start, right.start) == 2
               for left, right in zip(spans, spans[1:]))


def assert_columns_match_scan(shape):
    for s in (shape, shape.conjugated()):
        assert shape_is_two_regular(s) == two_regular_by_scan(s)
        assert conjugate(s.outer) == conjugate_by_counting(s.outer)
        assert conjugate(s.inner) == conjugate_by_counting(s.inner)


class TestPartitions:
    def test_conjugate_examples(self):
        assert conjugate((5,)) == (1, 1, 1, 1, 1)
        assert conjugate((3, 2, 2)) == (3, 3, 1)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate(()) == ()

    @given(partitions())
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    def test_non_integer_parts_rejected(self):
        for bad in [lambda: SkewShape((2.7, 1)), lambda: SkewShape((2, 1), (True,)),
                    lambda: conjugate((3.9, 2))]:
            with pytest.raises(ValueError, match="partition parts must be integers"):
                bad()
        for runs in [(2.9, 3), (True, 2)]:
            with pytest.raises(ValueError, match="run lengths must be integers"):
                shape_from_runs(runs)

    def test_long_partitions_against_counting(self):
        rng = random.Random(7)
        for rows in (100, 300, 600):
            lam = tuple(sorted((rng.randint(1, 400) for _ in range(rows)), reverse=True))
            assert conjugate(lam) == conjugate_by_counting(lam)
            assert conjugate(conjugate(lam)) == lam

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            SkewShape((2, 3))
        with pytest.raises(ValueError):
            SkewShape((3, -1))
        with pytest.raises(ValueError):
            SkewShape((3, 2), (3, 3))


class TestSkewShape:
    def test_padding_and_size(self):
        s = SkewShape((6, 5, 2, 2), (3, 1))
        assert s.inner == (3, 1, 0, 0)
        assert s.size == 11
        assert s.column_count == 6

    def test_format_parse(self):
        s = SkewShape((6, 5, 2, 2), (3, 1))
        assert format_shape(s) == "6,5,2,2/3,1"
        assert parse_shape("6,5,2,2/3,1") == s
        empty_inner = SkewShape((2, 2))
        assert format_shape(empty_inner) == "2,2/∅"
        assert parse_shape("2,2") == empty_inner
        assert parse_shape("2,2/") == empty_inner
        assert parse_shape("2,2/∅") == empty_inner

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_shape("2,x")

    @given(skew_shapes())
    def test_format_round_trip(self, shape):
        assert parse_shape(format_shape(shape)) == shape


class TestShapeFromRuns:
    def test_all_twos_is_straight(self):
        for k in range(1, 6):
            s = shape_from_runs((2,) * k)
            assert s.outer == (2,) * k and sum(s.inner) == 0
            assert s.conjugated().outer == (k, k)

    def test_worked_example(self):
        s = shape_from_runs((4, 2, 5, 3, 2))
        assert s.outer == (8, 6, 6, 3, 2)
        assert s.inner == (4, 4, 1, 0, 0)

    def test_two_part_case(self):
        for n, k in [(6, 3), (7, 2), (9, 4)]:
            s = shape_from_runs((k, n - k))
            assert s.outer == (n - 2, n - k)
            assert s.inner == (n - k - 2, 0)

    def test_row_lengths_and_overlap(self):
        for runs in [(2, 2), (3, 4, 2), (4, 2, 5, 3, 2), (2, 3, 2, 2)]:
            s = shape_from_runs(runs)
            lengths = tuple(lam - mu for lam, mu in zip(s.outer, s.inner))
            assert lengths == tuple(runs)
            assert shape_is_two_regular(s.conjugated())

    def test_small_parts_rejected(self):
        with pytest.raises(ValueError):
            shape_from_runs((2, 1, 3))
        with pytest.raises(ValueError):
            shape_from_runs(())


class TestTwoRegular:
    @given(skew_shapes())
    def test_conjugate_spans_match_scan(self, shape):
        assert_columns_match_scan(shape)

    def test_run_shapes_match_scan(self):
        for n in range(2, 15):
            for parts in range(1, n // 2 + 1):
                for a in compositions_min2(n, parts):
                    assert_columns_match_scan(shape_from_runs(a))

    def test_long_shapes_match_scan(self):
        rng = random.Random(11)
        for k in (100, 300):
            shape = shape_from_runs(tuple(rng.randint(2, 5) for _ in range(k)))
            assert shape_is_two_regular(shape.conjugated())
            assert_columns_match_scan(shape)
            # one more cell in the last indented row breaks 2-regularity
            inner = list(shape.inner)
            i = max(j for j, mu in enumerate(inner) if mu)
            inner[i] -= 1
            broken = SkewShape(shape.outer, tuple(inner))
            assert not shape_is_two_regular(broken.conjugated())
            assert_columns_match_scan(broken)

    def test_straight_two_rows(self):
        for n in range(2, 6):
            t = next(skew_standard_tableaux(SkewShape((n, n))))
            assert is_two_regular(t)

    def test_three_rows_overlap_too_much(self):
        t = next(skew_standard_tableaux(SkewShape((3, 3, 3))))
        assert not is_two_regular(t)

    def test_single_column(self):
        assert shape_is_two_regular(SkewShape((1, 1, 1)))
        assert not shape_is_two_regular(SkewShape((1,)))

    def test_worked_shape(self):
        assert shape_is_two_regular(parse_shape("5,5,4,3,3,3,1,1/3,2,2,2"))


class TestSkewTableau:
    def test_validation(self):
        shape = SkewShape((2, 2), (1,))
        t = SkewTableau(shape, ((None, 1), (2, 3)))
        assert t.entry(1, 2) == 1
        with pytest.raises(ValueError):
            t.entry(1, 1)
        with pytest.raises(ValueError):
            SkewTableau(shape, ((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            SkewTableau(shape, ((None, 1), (2,)))

    def test_is_standard(self):
        shape = SkewShape((2, 2))
        assert is_standard(SkewTableau(shape, ((1, 3), (2, 4))))
        assert not is_standard(SkewTableau(shape, ((1, 2), (4, 3))))
        assert not is_standard(SkewTableau(shape, ((1, 2), (5, 6))))
        assert not is_standard(SkewTableau(shape, ((3, 4), (1, 2))))

    def test_json_round_trip(self):
        shape = SkewShape((3, 2), (1,))
        t = next(skew_standard_tableaux(shape))
        data = tableau_to_json(t)
        assert data["rows"][0][0] is None
        assert tableau_from_json(data) == t
        with pytest.raises(ValueError):
            tableau_from_json({"rows": [[1]]})


class TestCounting:
    def test_examples(self):
        assert skew_syt_count(SkewShape((2, 2))) == 2
        assert skew_syt_count(SkewShape((3, 3))) == 5
        assert skew_syt_count(SkewShape(())) == 1
        s = SkewShape((6, 5, 2, 2), (3, 1))
        assert skew_syt_count(s) == count_standard_fillings(s)

    def test_empty_rows_inside(self):
        # inner equal to outer in some rows still counts correctly
        assert skew_syt_count(SkewShape((2, 2), (2, 2))) == 1
        assert skew_syt_count(SkewShape((3, 2), (2, 2))) == 1

    def test_integral_rows_match_reciprocal_factorials(self):
        shapes = [shape_from_runs(a) for n in range(2, 17)
                  for k in range(1, n // 2 + 1) for a in compositions_min2(n, k)]
        shapes += [SkewShape((2, 2), (2, 2)), SkewShape((3, 2), (2, 2)),
                   shape_from_runs((3, 4) * 20)]
        for shape in shapes:
            assert skew_syt_count(shape) == reciprocal_factorial_count(shape), shape

    @given(skew_shapes())
    def test_integral_rows_match_reciprocal_factorials_random(self, shape):
        assert skew_syt_count(shape) == reciprocal_factorial_count(shape)

    def test_exact_int_guard(self):
        for value in (Fraction(1, 2), Fraction(-3)):
            with pytest.raises(ArithmeticError, match="the label"):
                _exact_int(value, lambda: "the label")

        def label():
            raise AssertionError("label built for a valid value")

        assert _exact_int(Fraction(12, 4), label) == 3
        assert _exact_int(Fraction(0), label) == 0

    def test_determinant_core(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det_rational(m) == Fraction(1, 14) - Fraction(1, 15)
        assert det_rational([]) == 1

    @given(skew_shapes())
    def test_transpose_invariance(self, shape):
        assert skew_syt_count(shape) == skew_syt_count(shape.conjugated())

    @given(skew_shapes(max_cells=8))
    def test_stream_matches_determinant(self, shape):
        tableaux = list(skew_standard_tableaux(shape))
        assert len(tableaux) == skew_syt_count(shape)
        assert len(tableaux) == count_standard_fillings(shape)
        assert len(set(tableaux)) == len(tableaux)
        assert all(is_standard(t) for t in tableaux)


class TestHooks:
    def test_hook_length_examples(self):
        assert hook_length((3, 2, 2), 1, 1) == 5
        assert hook_length((1,), 1, 1) == 1
        assert hook_length((3, 2, 2), 3, 2) == 1
        with pytest.raises(ValueError):
            hook_length((3, 2, 2), 1, 4)

    def test_hook_length_coordinates_must_be_integers(self):
        for row, col in ((1, True), (True, 1), (1.0, 1), (1, 2.0)):
            with pytest.raises(ValueError, match="cell coordinates must be integers"):
                hook_length((3, 2), row, col)

    def test_hook_count_examples(self):
        assert hook_count((3, 3, 1)) == 21
        assert hook_count((2, 2)) == skew_syt_count(SkewShape((2, 2)))
        assert hook_count((1, 1, 1, 1)) == 1

    @given(partitions())
    def test_hooks_match_determinant(self, lam):
        assert hook_count(lam) == skew_syt_count(SkewShape(lam))


class TestEnumeration:
    def test_two_by_two_stream(self):
        ts = [t.rows for t in skew_standard_tableaux(SkewShape((2, 2)))]
        assert ts == [((1, 2), (3, 4)), ((1, 3), (2, 4))]

    def test_empty_shape(self):
        ts = list(skew_standard_tableaux(SkewShape(())))
        assert len(ts) == 1 and ts[0].rows == ()

    def test_three_row_example(self):
        assert sum(1 for _ in skew_standard_tableaux(SkewShape((3, 2, 2)))) == 21

    def test_cap(self):
        with pytest.raises(CapExceededError):
            skew_standard_tableaux(SkewShape((9, 8)))
        with pytest.raises(CapExceededError):
            count_standard_fillings(SkewShape((9, 8)))
        assert count_standard_fillings(SkewShape((9, 8)), max_cells=17) > 0

    def test_deep_shape_past_recursion_limit(self):
        column = SkewShape((1,) * 1100)
        assert count_standard_fillings(column, max_cells=1100) == 1
        (t,) = skew_standard_tableaux(column, max_cells=1100)
        assert t.rows == tuple((v,) for v in range(1, 1101))

    def test_deterministic(self):
        shape = SkewShape((4, 3, 1), (1,))
        first = [t.rows for t in skew_standard_tableaux(shape)]
        second = [t.rows for t in skew_standard_tableaux(shape)]
        assert first == second

    def test_random_shapes_against_determinant(self):
        rng = random.Random(3)
        from minperm.verify import _random_skew_shape
        for _ in range(40):
            shape = _random_skew_shape(rng, max_cells=9)
            assert count_standard_fillings(shape) == skew_syt_count(shape)
