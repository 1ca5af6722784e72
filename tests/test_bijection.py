import itertools
import json
import random
from collections import Counter

import pytest

from minperm import (SkewShape, SkewTableau, compositions_min2,
                     decreasing_run_lengths, enumerate_minimal, is_minimal,
                     is_standard, is_two_regular, perm_to_tableau,
                     shape_from_runs, skew_standard_tableaux, tableau_to_perm)
import minperm.bijection as bijection
import minperm.tableaux as tableaux
from minperm.cli import main
from minperm.verify import (WORKED_PERM_16, WORKED_TABLEAU_16_ROWS,
                            WORKED_TABLEAU_16_SHAPE, check_bijection_round_trip)
from minperm.tableaux import format_shape, parse_shape, shape_is_two_regular


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


@pytest.mark.parametrize("shape, rows, message", [
    # the 2x2 square is 2-regular; its second row decreases
    ("2,2", ((1, 2), (4, 3)), "tableau is not standard"),
    # the 2-regular skew shape of runs (2, 3): its first column increases
    # when read upward; its rows increase
    ("2,2,2/1", ((None, 1), (3, 4), (2, 5)), "tableau is not standard"),
    # one column of two cells is 2-regular; its values are not 1..2
    ("1,1", ((2,), (3,)), "tableau is not standard"),
    # standard, but adjacent columns of the 3x3 square share three rows
    ("3,3,3", ((1, 2, 3), (4, 5, 6), (7, 8, 9)), "tableau is not 2-regular"),
    # standard, but one column of a single cell
    ("1", ((1,),), "tableau is not 2-regular"),
    # standard, with no cells at all
    ("", (), "tableau is not 2-regular"),
    # standard, with an empty first column
    ("2,2/1,1", ((None, 1), (None, 2)), "tableau is not 2-regular"),
    # neither: standardness is reported first
    ("3,3,3", ((1, 2, 3), (4, 5, 6), (7, 9, 8)), "tableau is not standard"),
    ("3", ((1, 3, 2),), "tableau is not standard"),
    ("3", ((1, 2, 3),), "tableau is not 2-regular"),
])
def test_refusals_and_their_order(capsys, shape, rows, message):
    t = SkewTableau(parse_shape(shape), rows)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tableau_to_perm(t)
    assert main(["bijection", "--tableau", json.dumps({"shape": shape, "rows": rows})]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_images_pass_full_validation():
    # perm_to_tableau builds its image by tuple.__new__; the validating
    # constructors must accept it and give it back
    def revalidated(t):
        return SkewTableau(SkewShape(t.shape.outer, t.shape.inner), t.rows)

    for n in range(2, 10):
        for w in enumerate_minimal(n):
            t = perm_to_tableau(w)
            assert t == revalidated(t)
    rng = random.Random(1856)
    for k in (60, 200, 450):
        runs = tuple(rng.randint(2, 6) for _ in range(k))
        w = tableau_to_perm(random_filling(shape_from_runs(runs).conjugated(), rng))
        t = perm_to_tableau(w)
        assert t == revalidated(t)


def decided_as_oracle(t, rng):
    """Compare the one-pass decision with is_standard and is_two_regular on
    t, on t with two entries swapped, and on t with one entry set to 0,
    N + 1 or another entry's value; the cells are drawn from rng."""
    cells = [(r, c) for r, row in enumerate(t.rows) for c, x in enumerate(row) if x is not None]
    variants = [t.rows]
    if len(cells) >= 2:
        (r1, c1), (r2, c2) = rng.sample(cells, 2)
        swapped = [list(row) for row in t.rows]
        swapped[r1][c1], swapped[r2][c2] = swapped[r2][c2], swapped[r1][c1]
        changed = [list(row) for row in t.rows]
        changed[r1][c1] = rng.choice((0, len(cells) + 1, changed[r2][c2]))
        variants += [swapped, changed]
    for rows in variants:
        # every entry is still an integer, so the constructor accepts it
        u = SkewTableau(t.shape, rows)
        word = bijection._column_word(u)
        assert (word is not None) == (is_standard(u) and is_two_regular(u)), u
        if word is not None:  # each column from its lowest cell upward
            assert word == tuple(x for col in itertools.zip_longest(*u.rows)
                                 for x in reversed(col) if x is not None)


def test_one_pass_decision_matches_oracle_on_two_regular_shapes():
    # every standard filling of every 2-regular shape of at most 10 cells
    rng = random.Random(23)
    for total in range(2, 11):
        for parts in range(1, total // 2 + 1):
            for a in compositions_min2(total, parts):
                for t in skew_standard_tableaux(shape_from_runs(a).conjugated()):
                    decided_as_oracle(t, rng)


def test_one_pass_decision_matches_oracle_on_other_shapes():
    # seeded skew shapes, most of them not 2-regular; some have a column or
    # a top row of inner cells only, and some are 2-regular shapes moved down
    rng = random.Random(1010)
    shapes = [SkewShape(()), SkewShape((2, 2, 2), (2,)), SkewShape((3, 3, 2, 2), (3, 1))]
    while len(shapes) < 300:
        outer = sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 5))), reverse=True)
        inner = sorted((rng.randint(0, lam) for lam in outer), reverse=True)
        shape = SkewShape(tuple(outer), tuple(min(mu, lam) for mu, lam in zip(inner, outer)))
        if shape.size <= 9:
            shapes.append(shape)
    assert sum(map(shape_is_two_regular, shapes)) < 100
    for shape in shapes:
        for t in itertools.islice(skew_standard_tableaux(shape), 200):
            decided_as_oracle(t, rng)


def test_maps_take_no_conjugate(monkeypatch):
    def refused(parts):
        raise AssertionError("a conjugate was taken")

    monkeypatch.setattr(tableaux, "_conjugate", refused)
    for n in range(2, 9):
        for w in enumerate_minimal(n):
            assert tableau_to_perm(perm_to_tableau(w)) == w


def test_round_trip_check_validates_each_value_once(monkeypatch):
    # no tableau or shape is rebuilt through its validating constructor, and
    # _column_word runs once per image, in tableau_to_perm; is_standard,
    # which only words a refusal, never runs
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in (SkewShape, SkewTableau):
        monkeypatch.setattr(cls, "__new__", counted(cls.__name__, cls.__new__))
    monkeypatch.setattr(bijection, "is_standard", counted("is_standard", is_standard))
    monkeypatch.setattr(bijection, "_column_word",
                        counted("_column_word", bijection._column_word))
    assert check_bijection_round_trip(7).passed
    words = sum(1 for n in range(2, 8) for _ in enumerate_minimal(n))
    assert calls == {"_column_word": words + 1}  # + 1: the 16-cell example


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
