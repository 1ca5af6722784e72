"""The exact-int rule for many values, errors._check_ints: every entry is
an int, not a bool, a float or anything else.  Each site names what it
checks and shows the values it read as a tuple.  And the bounds of one
int, errors._check_int: each site's refusal, word for word."""

import pytest

from minperm import (KnuthMove, SkewShape, apply_knuth_move, catalan,
                     compositions_min2, conjugate, count_standard_fillings,
                     double_descent_count, enumerate_minimal, hook_length,
                     insertion_tableau, inverse_bump, legal_knuth_moves,
                     mansour_yan, one_ascent_count, row_insert,
                     rsk, rsk_trace, run_suite, shape_from_runs,
                     three_row_syt_count, two_ascent_count)
from minperm.cli import _build_parser


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
