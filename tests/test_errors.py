"""The exact-int rule for many values, errors._check_ints: every entry is
an int, not a bool, a float or anything else.  Each site names what it
checks and shows the values it read as a tuple.  The bounds of one int,
errors._check_int: each site's refusal, word for word.  And the value
types, errors._check_type: a function that takes a SkewShape, a
SkewTableau or a KnuthMove refuses anything else at the call.  A refused
value nested too deeply for repr is named by its type, errors._shown, so
that the refusal stays a ValueError."""

import pytest

from minperm import (KnuthMove, SkewShape, SkewTableau, apply_knuth_move, catalan,
                     compositions_min2, conjugate, count_standard_fillings,
                     double_descent_count, duplicate_loss, enumerate_minimal, format_shape,
                     hook_length, insertion_tableau, inverse_bump, is_standard,
                     is_two_regular, legal_knuth_moves, mansour_yan,
                     one_ascent_count, row_insert, rsk, rsk_trace, run_suite,
                     shape_from_runs, shape_is_two_regular, skew_standard_tableaux,
                     skew_syt_count, tableau_to_json, tableau_to_perm,
                     three_row_syt_count, two_ascent_count)
from minperm.cli import _build_parser
from minperm.permutations import parse_permutation
from minperm.tableaux import parse_shape, tableau_from_json


def count_command(*argv):
    """Run `minperm count` on argv past the parser, so that its ValueError
    propagates."""
    args = _build_parser().parse_args(["count", *argv])
    return args.handler(args)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: conjugate((3, 2.0)), "partition parts must be integers: (3, 2.0)",
                 id="partition"),
    pytest.param(lambda: shape_from_runs((2, True)), "run lengths must be integers: (2, True)",
                 id="shape_from_runs"),
    pytest.param(lambda: enumerate_minimal(5, runs=(2.0, 3)),
                 "run lengths must be integers: (2.0, 3)", id="enumerate_minimal"),
    pytest.param(lambda: apply_knuth_move((2, 1.5, 3), KnuthMove(1, "bac")),
                 "word entries must be integers: (2, 1.5, 3)", id="apply_knuth_move"),
    pytest.param(lambda: legal_knuth_moves([None, 1]),
                 "word entries must be integers: (None, 1)", id="legal_knuth_moves"),
    pytest.param(lambda: rsk((2.5, 1)), "word entries must be integers: (2.5, 1)",
                 id="rsk"),
    pytest.param(lambda: rsk_trace((None, 1)), "word entries must be integers: (None, 1)",
                 id="rsk_trace"),
    pytest.param(lambda: insertion_tableau((1, "a")), "word entries must be integers: (1, 'a')",
                 id="insertion_tableau"),
    pytest.param(lambda: row_insert(((1, 2.0),), 3), "tableau entries must be integers: (1, 2.0)",
                 id="row_insert"),
    pytest.param(lambda: inverse_bump(((1,),), (1.0, 1)),
                 "cell coordinates must be integers: (1.0, 1)", id="inverse_bump"),
    pytest.param(lambda: hook_length((3, 2), 1, "2"),
                 "cell coordinates must be integers: (1, '2')", id="hook_length"),
])
def test_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: count_command("--n", "0"), "--n must be >= 1, got 0", id="count --n"),
    pytest.param(lambda: count_command("--n", "5", "--d", "-1"), "--d must be >= 0, got -1",
                 id="count --d"),
    pytest.param(lambda: catalan(-1), "n must be >= 0, got -1", id="catalan"),
    pytest.param(lambda: compositions_min2(3, -1), "k must be >= 0, got -1",
                 id="compositions_min2"),
    pytest.param(lambda: one_ascent_count(3), "n must be >= 4, got 3", id="one_ascent_count"),
    pytest.param(lambda: two_ascent_count(4), "n must be >= 5, got 4", id="two_ascent_count"),
    pytest.param(lambda: mansour_yan(0), "n must be >= 1, got 0", id="mansour_yan"),
    pytest.param(lambda: double_descent_count(3, 4), "i must be in 1..3, got 4",
                 id="double_descent_count"),
    pytest.param(lambda: three_row_syt_count(3, 3), "k must be in 1..2, got 3",
                 id="three_row_syt_count"),
    pytest.param(lambda: enumerate_minimal(0), "n must be >= 1, got 0", id="enumerate_minimal n"),
    pytest.param(lambda: enumerate_minimal(5, d=-1), "d must be >= 0, got -1",
                 id="enumerate_minimal d"),
    pytest.param(lambda: enumerate_minimal(5, double_descent_at=4),
                 "double-descent position must be in 1..3, got 4", id="enumerate_minimal j"),
    # an empty range is worded as empty, not as a range that holds values
    pytest.param(lambda: double_descent_count(0, 1), "no i is valid here (1..0 is empty), got 1",
                 id="double_descent_count empty"),
    pytest.param(lambda: three_row_syt_count(0, 1), "no k is valid here (1..0 is empty), got 1",
                 id="three_row_syt_count empty"),
    pytest.param(lambda: enumerate_minimal(1, double_descent_at=1),
                 "no double-descent position is valid here (1..-1 is empty), got 1",
                 id="enumerate_minimal j empty"),
    pytest.param(lambda: run_suite("all", 0), "max_n must be >= 1, got 0", id="run_suite"),
])
def test_bound_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: format_shape(5), "shape must be a SkewShape, got 5", id="format_shape"),
    pytest.param(lambda: shape_is_two_regular(5), "shape must be a SkewShape, got 5",
                 id="shape_is_two_regular"),
    pytest.param(lambda: skew_syt_count((2, 2)), "shape must be a SkewShape, got (2, 2)",
                 id="skew_syt_count"),
    # refused at the call, not at the first next
    pytest.param(lambda: skew_standard_tableaux((2, 2)),
                 "shape must be a SkewShape, got (2, 2)", id="skew_standard_tableaux"),
    pytest.param(lambda: count_standard_fillings((2, 2)),
                 "shape must be a SkewShape, got (2, 2)", id="count_standard_fillings"),
    pytest.param(lambda: count_standard_fillings(5), "shape must be a SkewShape, got 5",
                 id="count_standard_fillings int"),
    pytest.param(lambda: SkewTableau((2, 2), ((1, 2), (3, 4))),
                 "shape must be a SkewShape, got (2, 2)", id="SkewTableau"),
    pytest.param(lambda: is_two_regular(5), "tableau must be a SkewTableau, got 5",
                 id="is_two_regular"),
    pytest.param(lambda: is_standard(5), "tableau must be a SkewTableau, got 5", id="is_standard"),
    pytest.param(lambda: tableau_to_json(5), "tableau must be a SkewTableau, got 5",
                 id="tableau_to_json"),
    pytest.param(lambda: tableau_to_perm(5), "tableau must be a SkewTableau, got 5",
                 id="tableau_to_perm"),
    pytest.param(lambda: apply_knuth_move((3, 1, 2), (1, "bac")),
                 "move must be a KnuthMove, got (1, 'bac')", id="apply_knuth_move"),
])
def test_value_type_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def deep():
    """A list nested past repr's recursion limit."""
    value = []
    for _ in range(5000):
        value = [value]
    return value


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: enumerate_minimal(deep()), "n must be an integer, got a list",
                 id="_check_int"),
    pytest.param(lambda: enumerate_minimal(5, runs=[deep()]), "run lengths must be integers: "
                 "a tuple", id="_check_ints"),
    pytest.param(lambda: format_shape(deep()), "shape must be a SkewShape, got a list",
                 id="_check_type"),
    pytest.param(lambda: parse_shape(deep()), "shape text must be a string, got a list",
                 id="parse_shape"),
    pytest.param(lambda: tableau_from_json({"shape": deep(), "rows": []}),
                 "tableau JSON 'shape' must be a string, got a list", id="tableau_from_json"),
    pytest.param(lambda: SkewTableau(SkewShape((1,)), [[deep()]]),
                 "cell (1,1) must hold an integer, got a list", id="SkewTableau"),
    pytest.param(lambda: parse_permutation(deep()), "permutation text must be a string, got "
                 "a list", id="parse_permutation"),
    pytest.param(lambda: duplicate_loss((1, 2), 1, 2, [deep(), "first"]),
                 "keep entries must be 'first' or 'second', got a list", id="duplicate_loss"),
    pytest.param(lambda: row_insert([deep(), 5], 1), "tableau rows must be sequences: a tuple",
                 id="row_insert"),
    pytest.param(lambda: KnuthMove(1, deep()), "unknown move kind a list", id="KnuthMove"),
    pytest.param(lambda: run_suite(deep()), "unknown suite a list", id="run_suite"),
])
def test_deeply_nested_value_message(call, message):
    # each once raised RecursionError while building its message
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{message} nested too deeply to show")
