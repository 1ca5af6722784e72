import bisect
import collections.abc
import contextlib
import itertools
import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_bijection import random_filling
from test_tableaux import assert_value_type

from minperm import (CapExceededError, KnuthMove, SkewShape, apply_knuth_move,
                     descent_set, double_descent_class, enumerate_minimal, even_odd_split,
                     format_permutation, insertion_tableau, inverse_bump,
                     knuth_chain, legal_knuth_moves, minimal_to_syt,
                     minimality_violation, row_insert, rsk, rsk_inverse,
                     rsk_trace, standardize, syt_to_minimal, tableau_to_perm)
from minperm.cli import main
from minperm.rsk import _knuth_swap
from minperm.verify import WORKED_PERM_13, WORKED_SPLIT_13


def random_syt(rng, values):
    order = list(values)
    rng.shuffle(order)
    p = ()
    for x in order:
        p, _ = row_insert(p, x)
    return p


def double_descent_class_by_pairs(perm):
    """Oracle for double_descent_class that reads the descent set instead of
    the run profile: it requires exactly one adjacent descent pair, starting
    at an odd position."""
    w = tuple(perm)
    reason = minimality_violation(w)
    if reason is not None:
        raise ValueError(f"permutation {w} is not minimal: {reason}")
    if len(w) % 2 == 0:
        raise ValueError(f"length must be odd, got {len(w)}")
    n = (len(w) - 1) // 2
    descents = descent_set(w)
    if len(descents) != n + 1:
        raise ValueError(f"{w} has {len(descents)} descents, expected {n + 1}")
    pairs = sorted(j for j in descents if j + 1 in descents)
    if len(pairs) != 1:
        raise ValueError(f"{w} has adjacent descent pairs starting at {pairs}, "
                         "expected exactly one")
    start = pairs[0]
    if start % 2 == 0:
        raise ValueError(f"adjacent descent pair starts at even position {start}")
    return n, (start + 1) // 2


def class_outcome(fn, w):
    """fn(w), or the message of the ValueError it raises."""
    try:
        return fn(w)
    except ValueError as exc:
        return str(exc)


def longest_increasing(word):
    """Patience sorting: pile tops stay sorted, and the pile count is the
    length of a longest increasing subsequence."""
    tops = []
    for x in word:
        k = bisect.bisect_left(tops, x)
        tops[k:k + 1] = [x]
    return len(tops)


KNUTH_PATTERNS = {"bac": (2, 1, 3), "bca": (2, 3, 1), "acb": (1, 3, 2), "cab": (3, 1, 2)}


def apply_knuth_move_by_copies(word, move):
    """Oracle for apply_knuth_move, the slow path: standardize the triple,
    compare it with the move's pattern, and build a new tuple."""
    w = tuple(word)
    t = move.position
    if not 1 <= t <= len(w) - 2:
        raise ValueError(f"no triple starts at position {t} in a word of length {len(w)}")
    triple = w[t - 1:t + 2]
    found = standardize(triple)
    if found != KNUTH_PATTERNS[move.kind]:
        kinds = {pattern: kind for kind, pattern in KNUTH_PATTERNS.items()}
        raise ValueError(f"triple {triple} at position {t} has pattern "
                         f"{kinds.get(found, found)}, not {move.kind}")
    if move.kind in ("acb", "cab"):
        return w[:t - 1] + (w[t], w[t - 1]) + w[t + 1:]
    return w[:t] + (w[t + 1], w[t]) + w[t + 2:]


def knuth_chain_by_copies(perm):
    """Oracle for knuth_chain: the same sweep schedule, every move replayed
    through apply_knuth_move_by_copies.  Returns the moves and each word
    the chain passes through."""
    n, i = double_descent_class(perm)
    word, moves, words = tuple(perm), [], []
    for s in range(1, n - i + 1):
        sweep = [KnuthMove(2 * i + s - 1, "bac")]
        sweep += [KnuthMove(q, "acb") for q in range(2 * i + s + 2, 2 * n - s + 1, 2)]
        for move in sweep:
            word = apply_knuth_move_by_copies(word, move)
            moves.append(move)
            words.append(word)
    return moves, words


def rsk_trace_by_loop(word):
    """Oracle for rsk_trace: one self-contained loop that bumps each letter
    inline, keeps its path and records its step."""
    w = tuple(word)
    if len(set(w)) != len(w):
        raise ValueError(f"entries are not distinct: {w}")
    p, q, paths = [], [], []
    for step, x in enumerate(w, start=1):
        path = []
        for r, row in enumerate(p, start=1):
            pos = bisect.bisect_left(row, x)
            path.append((r, pos + 1))
            if pos == len(row):
                row.append(x)
                break
            x, row[pos] = row[pos], x
        else:
            p.append([x])
            path.append((len(p), 1))
        paths.append(tuple(path))
        r, _ = path[-1]
        if r > len(q):
            q.append([])
        q[r - 1].append(step)
    return tuple(map(tuple, p)), tuple(map(tuple, q)), tuple(paths)


def swap_outcome(word, move):
    """The word _knuth_swap leaves, or its ValueError message (the word
    must then be unchanged)."""
    w = list(word)
    try:
        j = _knuth_swap(w, move.position, move.kind)
    except ValueError as exc:
        assert w == list(word)
        return str(exc)
    assert [k for k in range(len(w)) if w[k] != word[k]] == [j, j + 1]
    return tuple(w)


class TestRowInsert:
    def test_into_empty(self):
        assert row_insert((), 5) == (((5,),), ((1, 1),))

    def test_bump_down(self):
        assert row_insert(((2,),), 1) == (((1,), (2,)), ((1, 1), (2, 1)))

    def test_two_row_example(self):
        assert row_insert(((1, 4), (2,)), 3) == (((1, 3), (2, 4)), ((1, 2), (2, 2)))

    def test_present_value_rejected(self):
        with pytest.raises(ValueError, match="already present"):
            row_insert(((1, 3), (2,)), 3)

    def test_malformed_tableau_rejected(self):
        # (((3, 1, 2),), ((1, 3),)) came back once: 2 appended to a decreasing row
        with pytest.raises(ValueError, match="tableau row 1 is empty or not increasing"):
            row_insert(((3, 1),), 2)
        for rows, message in [(((1, 2.0),), "must be integers"),
                              (((1, 3), (3,)), "not distinct"),
                              (((1,), ()), "row 2 is empty"),
                              (((2, 3), (1,)), "row 2 does not lie strictly below row 1"),
                              (((1,), (2, 3)), "row 2 does not lie strictly below row 1")]:
            with pytest.raises(ValueError, match=message):
                row_insert(rows, 9)
        with pytest.raises(ValueError, match="value must be an integer, got 'a'"):
            row_insert(((1,),), "a")
        # rows of ints, not a tuple of rows, once raised TypeError
        with pytest.raises(ValueError, match="tableau rows must be sequences"):
            row_insert((1, 2), 3)

    def test_rows_of_any_sequence_type(self):
        class Row(collections.abc.Sequence):
            def __init__(self, *values):
                self.values = values

            def __getitem__(self, k):
                return self.values[k]

            def __len__(self):
                return len(self.values)

        expected = (((1, 3), (2, 4)), ((1, 2), (2, 2)))
        for rows in [((1, 4), (2,)), [[1, 4], [2]], (range(1, 5, 3), range(2, 3)),
                     (Row(1, 4), Row(2)), [Row(1, 4), range(2, 3)]]:
            assert row_insert(rows, 3) == expected
            assert inverse_bump(rows, (2, 1)) == (((2, 4),), 1)
        # a str is a sequence too, of non-integers
        with pytest.raises(ValueError, match="tableau entries must be integers"):
            row_insert(("ab",), 3)


class TestRSK:
    def test_examples(self):
        assert rsk((2, 1, 4, 3)) == (((1, 3), (2, 4)), ((1, 3), (2, 4)))
        n = 6
        ident = tuple(range(1, n + 1))
        assert rsk(ident) == ((ident,), (ident,))
        p, q = rsk((3, 2, 1, 5, 4))
        assert p == ((1, 4), (2, 5), (3,))
        assert tuple(map(len, p)) == (2, 2, 1)

    def test_same_shape(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 9)
            w = tuple(rng.sample(range(1, n + 1), n))
            p, q = rsk(w)
            assert tuple(map(len, p)) == tuple(map(len, q))

    def test_bijective(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 9)
            w = tuple(rng.sample(range(1, n + 1), n))
            assert rsk_inverse(*rsk(w)) == w

    def test_long_words(self):
        # long enough that an aliasing slip in the in-place bump would show
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(10, 500)
            w = tuple(rng.sample(range(1, 3 * n), n))
            p, q = rsk(w)
            assert rsk_inverse(p, q) == w
            assert all(a < b for row in p for a, b in zip(row, row[1:]))
            assert all(upper[c] < lower[c] for upper, lower in zip(p, p[1:])
                       for c in range(len(lower)))
            assert len(p[0]) == longest_increasing(w)

    def test_inverse_rejects_malformed_tableaux(self):
        # each P once came back as a word, although rsk of that word is not (P, Q):
        # rsk((2, 1)) is (((1,), (2,)), ((1,), (2,)))
        for p, message in [(((2, 1),), "insertion tableau row 1 is empty or not increasing"),
                           (((1, 1),), "insertion tableau entries are not distinct"),
                           (((1, "a"),), "insertion tableau entries must be integers")]:
            with pytest.raises(ValueError, match=message):
                rsk_inverse(p, ((1, 2),))
        with pytest.raises(ValueError, match="insertion tableau row 2 does not lie"):
            rsk_inverse(((2,), (1,)), ((1,), (2,)))
        with pytest.raises(ValueError, match="recording tableau row 1 is empty or not"):
            rsk_inverse(((1, 2),), ((2, 1),))
        with pytest.raises(ValueError, match="recording tableau is not standard on 1..n"):
            rsk_inverse(((1, 2),), ((1, 3),))
        with pytest.raises(ValueError, match="insertion tableau rows must be sequences"):
            rsk_inverse((1, 2), ((1, 2),))

    def test_inverse_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            rsk_inverse(((1, 2),), ((1,), (2,)))
        with pytest.raises(ValueError, match="shape"):
            rsk_inverse(((1,), (2,)), ((1,),))

    def test_paths_reported(self):
        _, _, paths = rsk_trace((3, 2, 1, 5, 4))
        assert paths[0] == ((1, 1),)
        assert paths[-1] == ((1, 2), (2, 2))

    def test_trace_matches_loop_oracle(self):
        rng = random.Random(7)
        words = [(), (1,), tuple(range(1, 30)), tuple(range(30, 0, -1))]
        words += [tuple(rng.sample(range(1, 3 * n), n)) for n in range(2, 400, 37)]
        for w in words:
            p, q, paths = rsk_trace(w)
            assert (p, q, paths) == rsk_trace_by_loop(w)
            assert rsk(w) == (p, q) and insertion_tableau(w) == p

    @pytest.mark.parametrize("n", [300, 2000])
    def test_paths_from_columns_match_loop_oracle(self, n):
        # _bump returns a path as its columns; rsk_trace and row_insert pair
        # them with rows 1..k, and must give the oracle's (row, column) cells
        w = tuple(random.Random(n).sample(range(1, 3 * n), n))
        p, q, paths = rsk_trace_by_loop(w)
        assert rsk_trace(w) == (p, q, paths)
        rows = ()
        for x, path in zip(w, paths):
            rows, got = row_insert(rows, x)
            assert got == path
        assert rows == p

    def test_duplicate_entries_rejected(self):
        for fn in (rsk_trace, rsk, insertion_tableau):
            with pytest.raises(ValueError, match="not distinct"):
                fn((1, 1, 2))


class TestInverseBump:
    def test_examples(self):
        assert inverse_bump(((1, 3), (2, 4)), (2, 2)) == (((1, 4), (2,)), 3)
        assert inverse_bump(((7,),), (1, 1)) == ((), 7)

    def test_non_corner_rejected(self):
        with pytest.raises(ValueError):
            inverse_bump(((1, 3), (2, 4)), (1, 2))
        with pytest.raises(ValueError):
            inverse_bump(((1, 3), (2, 4)), (2, 1))

    @pytest.mark.parametrize("corner", [(1, 1.0), (1.0, 1), (True, 1), (1, True), ("1", 1)])
    def test_non_int_corner_rejected(self, corner):
        # (1, 1.0) once removed the cell and (1.0, 1) raised TypeError
        with pytest.raises(ValueError, match=r"^cell coordinates must be integers: \("):
            inverse_bump(((1,),), corner)

    @pytest.mark.parametrize("corner", [5, None, 1.5])
    def test_corner_not_a_pair_rejected(self, corner):
        # 5 once raised TypeError: cannot unpack non-iterable int object
        with pytest.raises(ValueError, match=r"^corner must be a \(row, column\) pair, got "):
            inverse_bump(((1,),), corner)

    def test_malformed_tableau_rejected(self):
        # (((3, 2),), 1) came back once: P's first row decreases
        with pytest.raises(ValueError, match="tableau row 1 is empty or not increasing"):
            inverse_bump(((3, 1), (2,)), (2, 1))
        with pytest.raises(ValueError, match="row 2 does not lie strictly below row 1"):
            inverse_bump(((2, 3), (1,)), (2, 1))
        with pytest.raises(ValueError, match="tableau rows must be sequences"):
            inverse_bump((1, 2), (1, 1))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            p = random_syt(rng, rng.sample(range(1, 40), rng.randint(1, 12)))
            corners = [(r + 1, len(row)) for r, row in enumerate(p)
                       if r == len(p) - 1 or len(p[r + 1]) < len(row)]
            corner = rng.choice(corners)
            shrunk, value = inverse_bump(p, corner)
            restored, path = row_insert(shrunk, value)
            assert restored == p and path[-1] == corner


class TestKnuthMoves:
    def test_bac_example(self):
        word = WORKED_PERM_13
        moved = apply_knuth_move(word, KnuthMove(4, "bac"))
        assert moved[:7] == (6, 3, 7, 4, 5, 1, 2)

    def test_acb_example(self):
        word = (6, 3, 7, 4, 5, 1, 9, 2, 8, 11, 10, 13, 12)
        moved = apply_knuth_move(word, KnuthMove(9, "acb"))
        assert moved == (6, 3, 7, 4, 5, 1, 9, 2, 11, 8, 10, 13, 12)

    def test_inverse_restores(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(3, 8)
            w = tuple(rng.sample(range(1, n + 1), n))
            moves = legal_knuth_moves(w)
            if not moves:
                continue
            move = rng.choice(moves)
            assert apply_knuth_move(apply_knuth_move(w, move), move.inverse()) == w

    def test_mismatch_names_pattern(self):
        with pytest.raises(ValueError, match="pattern acb"):
            apply_knuth_move((1, 3, 2), KnuthMove(1, "bac"))
        with pytest.raises(ValueError, match=r"pattern \(1, 2, 3\)"):
            apply_knuth_move((1, 2, 3), KnuthMove(1, "bac"))
        with pytest.raises(ValueError, match="no triple"):
            apply_knuth_move((2, 1), KnuthMove(1, "bac"))
        with pytest.raises(ValueError):
            KnuthMove(1, "abc")

    @pytest.mark.parametrize("position", [True, 1.0, "2", None])
    def test_non_int_position_rejected(self, position):
        # True once acted as position 1, and "2" raised TypeError when applied
        with pytest.raises(ValueError, match="position must be an integer"):
            KnuthMove(position, "bac")

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown move kind"):
            KnuthMove(1, ["bac"])

    def test_value_type(self):
        assert_value_type(KnuthMove(2, "bac"), [2, "bac"], (2, "abc"),
                          "^unknown move kind 'abc'$", "KnuthMove(position=2, kind='bac')")
        assert_value_type(KnuthMove(-1, "cab"), (-1, "cab"), (True, "cab"),
                          "^position must be an integer, got True$",
                          "KnuthMove(position=-1, kind='cab')")

    def test_in_place_swap_matches_copying_oracle(self):
        # every ordering of a triple at every position of a length-5 word,
        # positions outside the word, short words, and repeated letters,
        # which apply_knuth_move refuses whatever the move
        words = [*itertools.permutations(range(1, 6)), (), (1,), (2, 1), (1, 1, 2, 3, 4)]
        for word in words:
            for t, kind in itertools.product(range(-1, 7), KNUTH_PATTERNS):
                move = KnuthMove(t, kind)
                expected = class_outcome(lambda w: apply_knuth_move_by_copies(w, move), word)
                assert swap_outcome(word, move) == expected, (word, move)
                if len(set(word)) < len(word):
                    expected = f"word entries are not distinct: {word}"
                assert class_outcome(lambda w: apply_knuth_move(w, move), word) == expected

    @pytest.mark.parametrize("word, message", [
        ((2, 1.5, 3), "must be integers"),  # once returned (2, 3, 1.5)
        ((None, 1, 2), "must be integers"),  # once raised TypeError
        ((2, True, 3), "must be integers"),
        ((2, 1, 2), "are not distinct"),
    ])
    def test_word_validated(self, word, message):
        with pytest.raises(ValueError, match=f"^word entries {message}: "):
            apply_knuth_move(word, KnuthMove(1, "bac"))
        with pytest.raises(ValueError, match=f"^word entries {message}: "):
            legal_knuth_moves(word)

    def test_insertion_tableau_invariant(self):
        rng = random.Random(17)
        cases = 0
        while cases < 1000:
            n = rng.randint(3, 8)
            w = tuple(rng.sample(range(1, n + 1), n))
            moves = legal_knuth_moves(w)
            if not moves:
                continue
            move = rng.choice(moves)
            assert insertion_tableau(apply_knuth_move(w, move)) == insertion_tableau(w)
            cases += 1


class TestDoubleDescentClass:
    def test_examples(self):
        assert double_descent_class((3, 2, 1)) == (1, 1)
        assert double_descent_class((3, 2, 1, 5, 4)) == (2, 1)
        assert double_descent_class(WORKED_PERM_13) == (6, 2)

    def test_rejections(self):
        with pytest.raises(ValueError, match="not minimal"):
            double_descent_class((1, 2, 3))
        with pytest.raises(ValueError, match="odd"):
            double_descent_class((2, 1, 4, 3))
        # minimal and of odd length, but with n+2 descents instead of n+1
        with pytest.raises(ValueError, match="descents"):
            double_descent_class((5, 4, 3, 2, 1))
        # not a permutation, though its runs (2, 3) would read as class (2, 2)
        for fn in (double_descent_class, even_odd_split, knuth_chain, minimal_to_syt):
            with pytest.raises(ValueError, match="not a permutation"):
                fn((5, 4, 4, 2, 1))

    def test_matches_pairs_oracle_small(self):
        # every permutation of odd length up to 7, minimal or not
        for length in (1, 3, 5, 7):
            for w in itertools.permutations(range(1, length + 1)):
                assert (class_outcome(double_descent_class, w)
                        == class_outcome(double_descent_class_by_pairs, w))
        for w in enumerate_minimal(9, d=5):
            assert double_descent_class(w) == double_descent_class_by_pairs(w)

    def test_matches_pairs_oracle_long(self):
        # (m, m, i)/(i-1) is the drawn shape of the class (m, i): its i-th
        # column has three cells, every other column two
        rng = random.Random(13)
        for m in (50, 150):
            for i in sorted({1, 2, m // 2, m - 1, m, *rng.sample(range(1, m + 1), 5)}):
                t = random_filling(SkewShape((m, m, i), (i - 1,)), rng)
                w = tableau_to_perm(t)
                assert len(w) == 2 * m + 1
                assert double_descent_class(w) == double_descent_class_by_pairs(w) == (m, i)


class TestEvenOddSplit:
    def test_examples(self):
        assert even_odd_split(WORKED_PERM_13) == WORKED_SPLIT_13
        assert even_odd_split((3, 2, 1, 5, 4)) == (3, 2, 5, 1, 4)
        assert even_odd_split((3, 2, 1)) == (3, 2, 1)


class TestKnuthChain:
    def test_trivial_chain(self):
        assert knuth_chain((3, 2, 1)) == []

    def test_single_move_chain(self):
        moves = knuth_chain((3, 2, 1, 5, 4))
        assert [(m.position, m.kind) for m in moves] == [(2, "bac")]
        assert apply_knuth_move((3, 2, 1, 5, 4), moves[0]) == (3, 2, 5, 1, 4)

    def test_worked_chain_moves(self):
        moves = [(m.position, m.kind) for m in knuth_chain(WORKED_PERM_13)]
        assert moves == [(4, "bac"), (7, "acb"), (9, "acb"), (11, "acb"),
                         (5, "bac"), (8, "acb"), (10, "acb"),
                         (6, "bac"), (9, "acb"), (7, "bac")]

    def test_chain_reaches_split_everywhere(self):
        for length in (3, 5, 7):
            for w in enumerate_minimal(length, d=(length + 1) // 2):
                word = w
                for move in knuth_chain(w):
                    word = apply_knuth_move(word, move)
                assert word == even_odd_split(w)
                assert insertion_tableau(word) == insertion_tableau(w)


    def test_chain_matches_copying_oracle_long(self, capsys):
        # class members filled from (m, m, i)/(i-1); length 9 prints its
        # words space-separated, the longer ones comma-separated
        rng = random.Random(101)
        for m in (4, 50, 150):
            for i in sorted({1, 2, 3, 4, m}):
                w = tableau_to_perm(random_filling(SkewShape((m, m, i), (i - 1,)), rng))
                moves, words = knuth_chain_by_copies(w)
                assert knuth_chain(w) == moves
                assert len(moves) == (m - i) * (m - i + 1) // 2
                assert (words[-1] if words else w) == even_odd_split(w)
                assert main(["knuth-chain", "--perm", format_permutation(w)]) == 0
                payload = json.loads(capsys.readouterr().out)
                assert payload["words"] == [format_permutation(x) for x in words]


class TestClassMaps:
    def test_forward_examples(self):
        assert minimal_to_syt((3, 2, 1, 5, 4)) == ((1, 4), (2, 5), (3,))
        assert minimal_to_syt((3, 2, 1)) == ((1,), (2,), (3,))

    def test_forward_shape_law_length_seven(self):
        # all 42 members with the pair at (3, 4) land in shapes (3,3,1), (3,2,2)
        members = list(enumerate_minimal(7, d=4, double_descent_at=3))
        assert len(members) == 42
        shapes = {tuple(map(len, minimal_to_syt(w))) for w in members}
        assert shapes == {(3, 3, 1), (3, 2, 2)}
        images = {minimal_to_syt(w) for w in members}
        assert len(images) == 42

    def test_inverse_round_trip(self):
        for i in (1, 2):
            for w in enumerate_minimal(5, d=3, double_descent_at=2 * i - 1):
                assert syt_to_minimal(minimal_to_syt(w), i) == w

    def test_inverse_validates(self):
        with pytest.raises(ValueError, match="incompatible"):
            syt_to_minimal(((1, 4), (2, 5), (3,)), 3)  # k=1 needs i <= n
        with pytest.raises(ValueError):
            syt_to_minimal(((1, 2), (3, 4)), 1)
        with pytest.raises(ValueError, match=r"^expected shape \(n, n\+1-k, k\), got \(3, 1, 1\)$"):
            syt_to_minimal(((1, 2, 3), (4,), (5,)), 1)
        # rows that are not a tableau are refused before any unbumping
        with pytest.raises(ValueError, match="does not lie strictly below row 1"):
            syt_to_minimal(((5, 6), (1, 2), (3,)), 1)
        with pytest.raises(ValueError, match="i must be an integer"):
            syt_to_minimal(((1, 4), (2, 5), (3,)), 1.0)
        with pytest.raises(ValueError, match="entries must be integers"):
            syt_to_minimal(((1, 4), (2, "5"), (3,)), 1)
        with pytest.raises(ValueError, match="entries must be integers"):
            syt_to_minimal(((1, 4), (2, None), (3,)), 1)
        with pytest.raises(ValueError, match="rows must be sequences"):
            syt_to_minimal((1, 2, 3), 1)


# arguments of every kind: small ints that can spell permutations and
# tableaux, ints of any sign and size, and non-ints; words and rows drawn
# from them, or class members and their tableaux, so that valid input also
# reaches the checks past the type checks
SCALARS = st.one_of(st.integers(-2, 9), st.integers(), st.booleans(), st.floats(),
                    st.text(max_size=3), st.none())
MEMBERS = [(3, 2, 1), *enumerate_minimal(5, d=3), *enumerate_minimal(7, d=4, double_descent_at=3)]
WORDS = st.one_of(st.sampled_from(MEMBERS), st.permutations(range(1, 6)).map(tuple),
                  st.lists(SCALARS, max_size=7).map(tuple), SCALARS)
ROWS = st.one_of(st.sampled_from([minimal_to_syt(w) for w in MEMBERS]),
                 st.lists(st.one_of(WORDS, SCALARS), max_size=4).map(tuple), SCALARS)
KINDS = st.one_of(st.sampled_from(sorted(KNUTH_PATTERNS)), SCALARS, st.lists(st.text(max_size=3)))


def returns_or_refuses(fn, *args):
    """Call fn(*args), allowing only the errors the CLI turns into exit codes."""
    with contextlib.suppress(ValueError, ArithmeticError, CapExceededError):
        fn(*args)


class TestArguments:
    """The rsk-layer entry points return or raise ValueError, ArithmeticError
    or CapExceededError on arguments of any kind; a TypeError, IndexError or
    AttributeError from deep inside would fail the test."""

    @pytest.mark.parametrize("fn", [double_descent_class, even_odd_split, knuth_chain,
                                    minimal_to_syt])
    @seed(22)
    @settings(max_examples=50, deadline=None)
    @given(word=WORDS)
    def test_class_maps(self, fn, word):
        returns_or_refuses(fn, word)

    @pytest.mark.parametrize("fn", [rsk, rsk_trace, insertion_tableau])
    @seed(22)
    @settings(max_examples=50, deadline=None)
    @given(word=WORDS)
    def test_rsk_maps(self, fn, word):
        returns_or_refuses(fn, word)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(ROWS, SCALARS)
    def test_syt_to_minimal(self, rows, i):
        returns_or_refuses(syt_to_minimal, rows, i)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(ROWS, SCALARS)
    def test_row_insert(self, rows, value):
        returns_or_refuses(row_insert, rows, value)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(ROWS, WORDS)
    def test_inverse_bump(self, rows, corner):
        returns_or_refuses(inverse_bump, rows, corner)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(ROWS, ROWS)
    def test_rsk_inverse(self, p, q):
        returns_or_refuses(rsk_inverse, p, q)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(SCALARS, KINDS)
    def test_knuth_move(self, position, kind):
        returns_or_refuses(KnuthMove, position, kind)

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(WORDS, st.builds(KnuthMove, st.integers(-2, 9), st.sampled_from(sorted(KNUTH_PATTERNS))))
    def test_knuth_moves_on_words(self, word, move):
        returns_or_refuses(apply_knuth_move, word, move)
        returns_or_refuses(legal_knuth_moves, word)

    @pytest.mark.parametrize("fn, args", [
        (row_insert, (5, 1)), (rsk, (5,)), (rsk_trace, (None,)), (insertion_tableau, (2.0,)),
        (rsk_inverse, (None, ())), (rsk_inverse, ((), 7)), (inverse_bump, (5, (1, 1))),
        (syt_to_minimal, (3, 1)), (apply_knuth_move, (5, KnuthMove(1, "bac"))),
        (legal_knuth_moves, (None,)), (double_descent_class, (5,)), (even_odd_split, (None,)),
        (knuth_chain, (1.0,)), (minimal_to_syt, (3,)),
    ])
    def test_not_iterable(self, fn, args):
        # a word or tableau that is not iterable once raised TypeError
        with pytest.raises(ValueError, match="expected an iterable for"):
            fn(*args)

    @pytest.mark.parametrize("fn, args, tableaux", [
        (row_insert, (((1, 4), (2,)), 3), (0,)),
        (row_insert, (((1, 2.0),), 3), (0,)),
        (row_insert, ((1, 2), 3), (0,)),
        (rsk_inverse, (((1, 3), (2, 4)), ((1, 3), (2, 4))), (0, 1)),
        (rsk_inverse, (((1,), (1,)), ((1,), (2,))), (0, 1)),
        (inverse_bump, (((1, 3), (2, 4)), (2, 2)), (0,)),
        (inverse_bump, (((2, 3), (1,)), (2, 1)), (0,)),
        (syt_to_minimal, (((1, 4), (2, 5), (3,)), 1), (0,)),
        (syt_to_minimal, (((1, 4), (2, "5"), (3,)), 1), (0,)),
    ])
    def test_one_shot_rows(self, fn, args, tableaux):
        # a tableau given as a one-shot iterator of rows gives the result, or
        # the refusal, that the tuple of the same rows gives
        once = [iter(a) if k in tableaux else a for k, a in enumerate(args)]
        assert class_outcome(lambda a: fn(*a), once) == class_outcome(lambda a: fn(*a), args)
