"""The exact-int rule for many values, errors._check_ints: every entry is
an int, not a bool, a float or anything else.  Each site names what it
checks and shows the values it read as a tuple."""

import pytest

from minperm import (KnuthMove, apply_knuth_move, conjugate, enumerate_minimal,
                     hook_length, insertion_tableau, inverse_bump, legal_knuth_moves,
                     row_insert, rsk, rsk_trace, shape_from_runs)


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
