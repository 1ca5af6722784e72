import copy
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minperm import (CapExceededError, SkewShape, SkewTableau, conjugate,
                     count_standard_fillings, format_shape, hook_count,
                     hook_length, is_standard, is_two_regular, parse_shape,
                     shape_from_runs, shape_is_two_regular,
                     skew_standard_tableaux, skew_syt_count,
                     tableau_from_json, tableau_to_json)
import minperm.tableaux as tableaux
from minperm.counting import compositions_min2, minimal_count_by_runs
from minperm.errors import _exact_div
from minperm.tableaux import det_rational


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


def assert_value_type(value, fields, bad, message, text):
    """The contract of a value type whose __new__ is its one validating
    constructor: every way of building one from fields gives a value equal
    to value that hashes alike, every way of building one from bad raises
    ValueError matching message, even from a value built by tuple.__new__
    (the internal route, which runs no check) and at every pickle protocol,
    the repr is text, and neither a field nor a new attribute can be
    assigned."""
    cls = type(value)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    built = [cls(*fields), cls._make(fields), value._replace(**dict(zip(cls._fields, fields)))]
    built += [copy.copy(value), copy.deepcopy(value)]
    built += [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
    for other in built:
        assert type(other) is cls and other == value and hash(other) == hash(value), other
    smuggled = tuple.__new__(cls, bad)
    refused = [lambda: cls(*bad), lambda: cls._make(bad),
               lambda: value._replace(**dict(zip(cls._fields, bad))),
               lambda: copy.copy(smuggled), lambda: copy.deepcopy(smuggled)]
    refused += [lambda p=protocol: pickle.loads(pickle.dumps(smuggled, p)) for protocol in protocols]
    for build in refused:
        with pytest.raises(ValueError, match=message):
            build()
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.note = None


@st.composite
def integer_matrices(draw, min_dim=0, max_dim=6):
    n = draw(st.integers(min_dim, max_dim))
    rows = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    return draw(st.lists(rows, min_size=n, max_size=n))


def det_bareiss(matrix):
    """Fraction-free Bareiss elimination, in which every division is exact:
    the elimination det_rational used before its staircase form, kept as
    an oracle for it."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def det_fraction(matrix):
    """Plain Gaussian elimination over Fraction: a second oracle for the
    integer elimination in det_rational."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def leading_minors_positive(matrix):
    return all(det_fraction([row[:k] for row in matrix[:k]]) > 0
               for k in range(1, len(matrix) + 1))


def assert_det_or_refused(matrix):
    """det_rational equals both oracles when every leading minor is
    positive and raises ArithmeticError otherwise; returns its value, or
    None when it refused."""
    if not leading_minors_positive(matrix):
        with pytest.raises(ArithmeticError, match="is not positive"):
            det_rational(matrix)
        return None
    value = det_rational(matrix)
    assert value == det_bareiss(matrix) == det_fraction(matrix), matrix
    return value


def aitken_matrix(shape):
    """The integer matrix that skew_syt_count hands to det_rational."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableaux, "det_rational", lambda m: seen.append(m) or det_bareiss(m))
        skew_syt_count(shape)
    return seen[0]


def reciprocal_factorial_count(shape):
    """The determinant formula over Fraction(1, e!) entries, as written:
    an oracle for the integral rows that skew_syt_count builds."""
    outer, inner = shape.outer, shape.inner
    r = len(outer)
    matrix = [[Fraction(1, math.factorial(e)) if e >= 0 else Fraction(0)
               for e in (outer[i] - inner[j] - i + j for j in range(r))]
              for i in range(r)]
    return math.factorial(shape.size) * det_fraction(matrix)


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


def assert_conjugated_consistent(shape):
    """conjugated() skips validation, so compare it with the validating
    constructor."""
    conj = shape.conjugated()
    assert conj == SkewShape(conjugate(shape.outer), conjugate(shape.inner))
    assert conj.conjugated() == shape


def assert_columns_match_scan(shape):
    for s in (shape, shape.conjugated()):
        assert_conjugated_consistent(s)
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
            assert_conjugated_consistent(SkewShape(lam, lam[rows // 2:]))

    @pytest.mark.parametrize("parts, message", [
        ((2, 3), "weakly decreasing: (2, 3)"),
        ((2, -1, 0), "positive: (2, -1, 0)"),
    ])
    def test_messages_show_parts_read_once(self, parts, message):
        # parts given as a one-shot iterator are named in the message as
        # read, not as the () a second read of the spent iterator gives
        for build in (conjugate, SkewShape):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(iter(parts))

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
        # int() also reads other scripts' digits and underscores
        with pytest.raises(ValueError, match="^cannot parse outer partition from '٢,1'$"):
            parse_shape("٢,1")
        with pytest.raises(ValueError, match="^cannot parse inner partition from '1_0'$"):
            parse_shape("12,2/1_0")
        assert parse_shape(" 2, 2 / 1 ") == SkewShape((2, 2), (1,))

    @given(st.one_of(st.integers(), st.floats(), st.none(), st.lists(st.text(max_size=2))))
    @example(5)
    def test_non_string_rejected(self, text):
        # 5 once raised AttributeError: 'int' object has no attribute 'partition'
        with pytest.raises(ValueError, match="^shape text must be a string, got "):
            parse_shape(text)

    @given(skew_shapes())
    def test_format_round_trip(self, shape):
        assert parse_shape(format_shape(shape)) == shape

    def test_value_type(self):
        # the fields given unpadded, as lists, or with trailing zeros
        # read as the same shape
        assert_value_type(SkewShape((3, 2), (1, 0)), ([3, 2, 0], [1]), ((2,), (3,)),
                          r"^inner partition \(3,\) is not contained in \(2,\)$",
                          "SkewShape(outer=(3, 2), inner=(1, 0))")
        assert_value_type(SkewShape(()), ((), ()), ((1,), (1, 1)),
                          r"^inner partition \(1, 1\) is longer than outer \(1,\)$",
                          "SkewShape(outer=(), inner=())")

    def test_tableau_value_type(self):
        shape = SkewShape((2, 2), (1,))
        assert_value_type(SkewTableau(shape, ((None, 1), (2, 3))),
                          (SkewShape([2, 2], [1]), [[None, 1], [2, 3]]),
                          (shape, ((None, 1), (2, None))),
                          r"^cell \(2,2\) must hold an integer, got None$",
                          "SkewTableau(shape=SkewShape(outer=(2, 2), inner=(1, 0)), "
                          "rows=((None, 1), (2, 3)))")


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

    def test_unchecked_shapes_pass_full_validation(self):
        # shape_from_runs and conjugated() build by tuple.__new__; the
        # validating constructor must accept each shape and give it back
        rng = random.Random(23)
        profiles = [a for n in range(2, 17) for parts in range(1, n // 2 + 1)
                    for a in compositions_min2(n, parts)]
        profiles += [tuple(rng.randint(2, 9) for _ in range(rng.randint(300, 500)))
                     for _ in range(4)]
        for a in profiles:
            s = shape_from_runs(a)
            for shape in (s, s.conjugated()):
                assert shape == SkewShape(shape.outer, shape.inner)

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

    @pytest.mark.parametrize("shape, rows, message", [
        # each once raised AttributeError or TypeError
        ("x", (), "^shape must be a SkewShape, got 'x'$"),
        (((2,), (0,)), ((1, 2),), r"^shape must be a SkewShape, got \(\(2,\), \(0,\)\)$"),
        (SkewShape((2,)), 5, "^expected an iterable for tableau rows, got 5$"),
        (SkewShape((2,)), [5], "^expected an iterable for row 1, got 5$"),
        (SkewShape((2, 1)), [(1, 2), None], "^expected an iterable for row 2, got None$"),
    ])
    def test_argument_types_refused(self, shape, rows, message):
        with pytest.raises(ValueError, match=message):
            SkewTableau(shape, rows)

    def test_is_standard(self):
        shape = SkewShape((2, 2))
        assert is_standard(SkewTableau(shape, ((1, 3), (2, 4))))
        assert not is_standard(SkewTableau(shape, ((1, 2), (4, 3))))
        assert not is_standard(SkewTableau(shape, ((1, 2), (5, 6))))
        assert not is_standard(SkewTableau(shape, ((3, 4), (1, 2))))
        # a skew shape: the inner cell bounds nothing, and the columns below
        # the inner shape are compared from its end on
        shape = SkewShape((3, 2), (1,))
        assert is_standard(SkewTableau(shape, ((None, 1, 2), (3, 4))))
        assert not is_standard(SkewTableau(shape, ((None, 3, 4), (1, 2))))
        assert not is_standard(SkewTableau(shape, ((None, 2, 1), (3, 4))))

    def test_json_round_trip(self):
        shape = SkewShape((3, 2), (1,))
        t = next(skew_standard_tableaux(shape))
        data = tableau_to_json(t)
        assert data["rows"][0][0] is None
        assert tableau_from_json(data) == t
        with pytest.raises(ValueError):
            tableau_from_json({"rows": [[1]]})
        # the rows go to SkewTableau as they are, which reads them once
        with pytest.raises(ValueError, match="^expected an iterable for tableau rows, got 5$"):
            tableau_from_json({"shape": "2", "rows": 5})
        with pytest.raises(ValueError, match="^expected an iterable for row 1, got 5$"):
            tableau_from_json({"shape": "2", "rows": [5]})


class TestCounting:
    def test_examples(self):
        assert skew_syt_count(SkewShape((2, 2))) == 2
        assert skew_syt_count(SkewShape((3, 3))) == 5
        assert skew_syt_count(SkewShape(())) == 1
        s = SkewShape((6, 5, 2, 2), (3, 1))
        assert skew_syt_count(s) == count_standard_fillings(s)
        assert type(skew_syt_count(s)) is int

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

    def test_exact_div_guard(self):
        for num, den in ((1, 2), (-3, 1)):
            with pytest.raises(ArithmeticError, match=f"the label evaluated to {num}/{den}"):
                _exact_div(num, den, lambda: "the label")

        def label():
            raise AssertionError("label built for a valid value")

        assert _exact_div(12, 4, label) == 3
        assert _exact_div(0, 5, label) == 0

    def test_determinant_core(self):
        m = [[3, 1, 2], [1, 4, 1], [2, 1, 5]]  # leading minors 3, 11, 40
        assert det_rational(m) == 3 * (20 - 1) - 1 * (5 - 2) + 2 * (1 - 8)
        assert m == [[3, 1, 2], [1, 4, 1], [2, 1, 5]]  # the input is not modified
        assert det_rational([]) == 1
        assert type(det_rational([[5]])) is int
        with pytest.raises(ValueError, match="square"):
            det_rational([[1, 2]])
        for bad, k in (([[0, 1], [1, 0]], 1), ([[-1]], 1), ([[1, 2], [2, 4]], 2),
                       ([[2, 1], [3, 1]], 2)):
            with pytest.raises(ArithmeticError, match=f"leading minor {k} is not positive"):
                det_rational(bad)

    @given(integer_matrices())
    @example([[0, 1], [1, 0]])                    # zero leading pivot
    @example([[0, 2, 1], [0, 1, 3], [4, 5, 6]])   # zero pivot column
    @example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])   # dependent rows
    @example([[1, 2], [2, 4]])                    # rank 1, zero last pivot
    @example([[2, 1, 0], [1, 2, 1], [0, 1, 2]])   # positive definite
    def test_bareiss_matches_fraction_oracle(self, m):
        assert_det_or_refused(m)

    @given(integer_matrices(min_dim=2), st.data())
    def test_bareiss_rank_deficient(self, m, data):
        # replace one row by a combination of the others: the determinant,
        # the last leading minor, is 0, so the elimination refuses it
        k = data.draw(st.integers(0, len(m) - 1))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        m[k] = [sum(c * row[j] for i, (c, row) in enumerate(zip(coeffs, m)) if i != k)
                for j in range(len(m))]
        assert det_bareiss(m) == 0 == det_fraction(m)
        with pytest.raises(ArithmeticError, match="is not positive"):
            det_rational(m)

    def test_staircase_matches_oracles_on_seeded_matrices(self):
        # seeded products L*U of a unit lower and an upper triangular matrix
        # with a positive diagonal, whose leading minors are the positive
        # prefix products of that diagonal, beside plain random matrices,
        # most of which have a leading minor <= 0 and are refused
        rng = random.Random(8)
        kinds = {"computed": 0, "refused": 0, "negative entries": 0}
        for _ in range(1500):
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
                         for i in range(n)]
                upper = [[rng.randint(1, 4) if j == i else rng.randint(-3, 3) * (j > i)
                          for j in range(n)] for i in range(n)]
                m = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
                     for i in range(n)]
            else:
                m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            kinds["refused" if assert_det_or_refused(m) is None else "computed"] += 1
            kinds["negative entries"] += any(x < 0 for row in m for x in row)
        assert min(kinds.values()) >= 500, kinds

    def test_aitken_matrices_match_oracles(self):
        # every run profile of at most 16 cells, its conjugate, and a few
        # shapes with empty rows: none is refused
        shapes = [shape_from_runs(a) for n in range(2, 17)
                  for k in range(1, n // 2 + 1) for a in compositions_min2(n, k)]
        shapes += [shape.conjugated() for shape in shapes]
        shapes += [SkewShape((2, 2), (2, 2)), SkewShape((3, 2), (2, 2)),
                   SkewShape((4, 3, 3), (3, 3, 1))]
        for shape in shapes:
            m = aitken_matrix(shape)
            assert det_rational(m) == det_bareiss(m) == det_fraction(m) > 0, shape

    @given(skew_shapes())
    def test_aitken_matrices_match_oracles_random(self, shape):
        m = aitken_matrix(shape)
        assert det_rational(m) == det_bareiss(m) == det_fraction(m) > 0

    def test_staircase_matches_bareiss_on_run_shapes(self, monkeypatch):
        profiles = [(3,) * 12, (2, 5, 2, 2, 4, 3, 2), (4, 3) * 5, (9, 2, 2, 9),
                    (4,) * 8 + (2,) * 8, (3, 4) * 20]
        staircase = [skew_syt_count(shape_from_runs(a)) for a in profiles]
        monkeypatch.setattr(tableaux, "det_rational", det_bareiss)
        assert [skew_syt_count(shape_from_runs(a)) for a in profiles] == staircase

    @given(skew_shapes())
    def test_transpose_invariance(self, shape):
        assert skew_syt_count(shape) == skew_syt_count(shape.conjugated())

    @given(skew_shapes(max_cells=8))
    def test_fillings_pass_full_validation(self, shape):
        # the fillings are built by tuple.__new__; the validating
        # constructor must accept each one and give it back
        for t in skew_standard_tableaux(shape):
            assert t == SkewTableau(SkewShape(t.shape.outer, t.shape.inner), t.rows)

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

    def test_cap(self, monkeypatch):
        # 17 cells: the cell cap of 16 refused this shape in both functions
        shape = SkewShape((9, 8))
        assert sum(1 for _ in skew_standard_tableaux(shape)) == 4862
        assert count_standard_fillings(shape) == 4862
        # (2, 2) expands 5 sub-shapes, which build 6 keys: 11 keys of 3 entries
        shape = SkewShape((2, 2))
        monkeypatch.setattr(tableaux, "MAX_PATH_WORK", 33)
        assert count_standard_fillings(shape) == 2
        monkeypatch.setattr(tableaux, "MAX_PATH_WORK", 32)
        with pytest.raises(CapExceededError, match=re.escape(
                "the path count of a shape of 4 cells in 2 rows passes the cap of 32 key "
                "entries")):
            count_standard_fillings(shape)

    def test_cap_refuses_promptly(self):
        # 2,704,156 sub-shapes of 13 entries each, before their keys
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="144 cells in 12 rows"):
            count_standard_fillings(SkewShape((12,) * 12))
        assert time.perf_counter() - start < 3

    def test_sixteen_unrelated_cells(self):
        # every subset of an antichain is a sub-shape, and every cell outside
        # it is addable, so no shape of 16 cells in 16 rows takes more work
        shape = SkewShape(tuple(range(16, 0, -1)), tuple(range(15, -1, -1)))
        assert shape.size == 16
        assert count_standard_fillings(shape) == math.factorial(16)

    def test_sixteen_unrelated_cells_among_fully_inner_rows(self):
        # a fully inner row on top and one in the middle hold no cell, so
        # they add nothing to the work of the 16 unrelated cells
        outer = (17, *range(16, 8, -1), 8, *range(8, 0, -1))
        inner = (17, *range(15, 7, -1), 8, *range(7, -1, -1))
        shape = SkewShape(outer, inner)
        assert shape.size == 16 and shape.row_count == 18
        assert count_standard_fillings(shape) == math.factorial(16)

    def test_first_filling_of_a_large_square(self):
        start = time.perf_counter()
        t = next(skew_standard_tableaux(SkewShape((30,) * 30)))
        assert time.perf_counter() - start < 0.5
        assert t.rows[0] == tuple(range(1, 31)) and t.rows[-1][-1] == 900

    def test_deep_shape_past_recursion_limit(self):
        column = SkewShape((1,) * 1100)
        assert count_standard_fillings(column) == 1
        (t,) = skew_standard_tableaux(column)
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
            shape = _random_skew_shape(rng, 9)
            assert count_standard_fillings(shape) == skew_syt_count(shape)


def backtracking_count(shape):
    """The slow path count_standard_fillings replaced: one step per filling."""
    return sum(1 for _ in tableaux._fillings(shape))


class TestPathCount:
    def test_run_shapes_match_backtracking(self):
        for total in range(2, 12):
            for parts in range(1, total // 2 + 1):
                for a in compositions_min2(total, parts):
                    shape = shape_from_runs(a)
                    assert count_standard_fillings(shape) == backtracking_count(shape), a

    def test_random_shapes_match_backtracking(self):
        from minperm.verify import _random_skew_shape
        rng = random.Random(5)
        for _ in range(3000):
            shape = _random_skew_shape(rng, 12)
            assert count_standard_fillings(shape) == backtracking_count(shape), shape

    def test_run_shapes_of_17_and_18_cells_match_determinant(self):
        # past 16 cells backtracking is slow; the path count takes no
        # determinant, so it still checks one there
        for total in (17, 18):
            for parts in range(1, total // 2 + 1):
                for a in compositions_min2(total, parts):
                    assert count_standard_fillings(shape_from_runs(a)) == minimal_count_by_runs(a), a

    def test_sampled_run_shapes_of_19_to_30_cells_match_determinant(self):
        rng = random.Random(30)
        sampled = 0
        while sampled < 30:
            a = tuple(rng.choice((2, 2, 2, 3, 3, 4)) for _ in range(rng.randint(5, 12)))
            if 19 <= sum(a) <= 30:
                assert count_standard_fillings(shape_from_runs(a)) == minimal_count_by_runs(a), a
                sampled += 1
