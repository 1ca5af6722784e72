import itertools
import random
from collections import Counter

import pytest

from minperm import (SkewShape, SkewTableau, compositions_min2,
                     decreasing_run_lengths, enumerate_minimal, is_minimal,
                     is_standard, is_two_regular, perm_to_tableau,
                     shape_from_runs, skew_standard_tableaux, tableau_to_perm)
from minperm.verify import (WORKED_PERM_16, WORKED_TABLEAU_16_ROWS,
                            WORKED_TABLEAU_16_SHAPE)
from minperm.tableaux import format_shape


def perm_to_tableau_by_grid(w):
    """Reference map: cells keyed by (row, col) are filled run by run, each
    run upward from the lowest cell of its column, then read row by row."""
    runs = decreasing_run_lengths(w)
    by_cols = shape_from_runs(runs)
    shape = by_cols.conjugated()
    grid = {}
    pos = 0
    for j, run_length in enumerate(runs):
        run = w[pos:pos + run_length]
        pos += run_length
        top = by_cols.inner[j] + 1
        for offset, value in enumerate(reversed(run)):
            grid[(top + offset, j + 1)] = value
    rows = tuple(
        tuple(grid.get((i, c)) for c in range(1, shape.outer[i - 1] + 1))
        for i in range(1, shape.row_count + 1))
    return SkewTableau(shape, rows)


def random_filling(shape, rng):
    """A standard filling built by placing 1, 2, ... each in a cell chosen
    uniformly among those whose left and upper neighbours are filled or
    outside the shape."""
    outer, nxt = shape.outer, list(shape.inner)  # nxt[i]: first empty column
    rows = [[None] * lam for lam in outer]
    for v in range(1, shape.size + 1):
        i = rng.choice([i for i, c in enumerate(nxt)
                        if c < outer[i] and (i == 0 or c < nxt[i - 1])])
        rows[i][nxt[i]] = v
        nxt[i] += 1
    return SkewTableau(shape, rows)


def test_single_run_is_one_column():
    t = perm_to_tableau((3, 2, 1))
    assert t.rows == ((1,), (2,), (3,))
    assert tableau_to_perm(t) == (3, 2, 1)


def test_length_four_cases():
    assert perm_to_tableau((2, 1, 4, 3)).rows == ((1, 3), (2, 4))
    assert perm_to_tableau((3, 1, 4, 2)).rows == ((1, 2), (3, 4))
    # together these exhaust the two fillings of the 2x2 square
    square = SkewShape((2, 2))
    fillings = {t.rows for t in skew_standard_tableaux(square)}
    assert fillings == {((1, 3), (2, 4)), ((1, 2), (3, 4))}


def test_reverse_of_length_four():
    t = SkewTableau(SkewShape((2, 2)), ((1, 3), (2, 4)))
    assert tableau_to_perm(t) == (2, 1, 4, 3)


def test_worked_sixteen_cell_example():
    t = perm_to_tableau(WORKED_PERM_16)
    assert format_shape(t.shape) == WORKED_TABLEAU_16_SHAPE
    assert t.rows == WORKED_TABLEAU_16_ROWS
    assert tableau_to_perm(t) == WORKED_PERM_16


def test_non_minimal_input_rejected_with_reason():
    with pytest.raises(ValueError, match="position 1 is an ascent"):
        perm_to_tableau((1, 3, 2))
    with pytest.raises(ValueError, match="2143 or 3142"):
        perm_to_tableau((3, 1, 2, 5, 4))


def test_non_permutation_rejected_before_minimality():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2: \(2\.0, 1\)"):
        perm_to_tableau((2.0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        perm_to_tableau((3, 1, 3))


def test_bad_tableaux_rejected():
    not_standard = SkewTableau(SkewShape((2, 2)), ((1, 2), (4, 3)))
    with pytest.raises(ValueError, match="standard"):
        tableau_to_perm(not_standard)
    three_overlap = next(skew_standard_tableaux(SkewShape((3, 3, 3))))
    with pytest.raises(ValueError, match="2-regular"):
        tableau_to_perm(three_overlap)


def test_round_trips_small():
    for n in range(2, 9):
        for w in enumerate_minimal(n):
            t = perm_to_tableau(w)
            assert is_standard(t) and is_two_regular(t)
            assert tableau_to_perm(t) == w


def test_cardinality_per_run_profile():
    for n in range(2, 9):
        by_runs = Counter(decreasing_run_lengths(w) for w in enumerate_minimal(n))
        for parts in range(1, n // 2 + 1):
            for a in compositions_min2(n, parts):
                drawn = shape_from_runs(a).conjugated()
                tableaux = list(skew_standard_tableaux(drawn))
                assert all(is_two_regular(t) for t in tableaux)
                assert len(tableaux) == by_runs[a]
                for t in tableaux:
                    assert perm_to_tableau(tableau_to_perm(t)) == t


def test_grid_reference_agrees():
    for n in range(2, 10):
        for w in enumerate_minimal(n):
            assert perm_to_tableau(w) == perm_to_tableau_by_grid(w)


def test_round_trips_long():
    rng = random.Random(2010)
    # drawn lazily, so each profile's filling follows it in the seeded stream
    seeded = (tuple(rng.randint(2, 6) for _ in range(k)) for k in (50, 120, 250, 400))
    # a band of 302 drawn rows at most 3 cells wide; then 2s before a block
    # of long runs, whose drawn rows reach 301 cells
    for runs in itertools.chain(seeded, [(3,) * 300, (2,) * 300 + (9,) * 30]):
        t = random_filling(shape_from_runs(runs).conjugated(), rng)
        assert is_standard(t) and is_two_regular(t)
        w = tableau_to_perm(t)
        assert decreasing_run_lengths(w) == runs
        assert is_minimal(w)
        assert perm_to_tableau(w) == t
        assert perm_to_tableau_by_grid(w) == t
