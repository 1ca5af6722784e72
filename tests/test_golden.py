"""Golden CLI outputs: each invocation replays through cli.main and its
stdout must match the committed file under tests/golden/ byte for byte.

Regenerate the files (only when an output is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from minperm.cli import main
from minperm.permutations import format_permutation
from minperm.verify import WORKED_PERM_13, WORKED_PERM_16

GOLDEN = Path(__file__).parent / "golden"
# a class member of length 61 with its double descent at (13, 14), i = 7: the
# column reading of test_bijection.random_filling(SkewShape((30, 30, 7), (6,)),
# random.Random(61)); its Knuth chain has 276 moves
CLASS_MEMBER_61 = ("3,1,8,5,20,6,21,7,23,10,30,11,34,12,2,14,4,15,9,16,13,18,17,25,19,"
                   "27,22,31,24,32,26,33,28,35,29,37,36,40,38,41,39,47,42,48,43,50,44,"
                   "52,45,54,46,57,49,58,51,59,53,60,55,61,56")
# a seeded random word of length 300 for rsk: long insertion paths and rows
WORD_300 = random.Random(300).sample(range(1, 301), 300)

INVOCATIONS = {
    "count_n14_json": ["count", "--n", "14", "--format", "json"],
    "count_n9_closed": ["count", "--n", "9", "--method", "closed"],
    # one 40x40 big-integer determinant
    "count_ascents40": ["count", "--n", "140", "--ascents", ",".join(["3,4"] * 20)],
    "enumerate_n8": ["enumerate", "--n", "8"],
    "enumerate_n8_d5": ["enumerate", "--n", "8", "--d", "5"],
    "enumerate_n8_ascents": ["enumerate", "--n", "8", "--ascents", "2,3,3"],
    "enumerate_n8_double_descent": ["enumerate", "--n", "8", "--double-descent-at", "3"],
    "bijection_perm16": ["bijection", "--perm", format_permutation(WORKED_PERM_16)],
    # a standard filling of the drawn shape of a 40-run profile
    "bijection_tableau40": ["bijection", "--tableau",
                            (GOLDEN / "tableau40.json").read_text().strip()],
    "rsk_perm16": ["rsk", "--perm", format_permutation(WORKED_PERM_16)],
    "rsk_word300": ["rsk", "--perm", format_permutation(WORD_300)],
    "knuth_chain_perm13": ["knuth-chain", "--perm", format_permutation(WORKED_PERM_13)],
    "knuth_chain_perm61": ["knuth-chain", "--perm", CLASS_MEMBER_61],
    "verify_bijection_7": ["verify", "--suite", "bijection", "--max-n", "7"],
    "verify_rsk_5": ["verify", "--suite", "rsk", "--max-n", "5"],
    # the determinant is checked against counted standard fillings
    "verify_counts_8": ["verify", "--suite", "counts", "--max-n", "8"],
    # the benchmark's verify invocation: every check, S_1..S_9 brute force
    "verify_all_9": ["verify", "--suite", "all", "--max-n", "9"],
}


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_golden(name):
    code, out = replay(INVOCATIONS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for name, argv in INVOCATIONS.items():
        code, out = replay(argv)
        if code != 0:
            sys.exit(f"{name} exited {code}")
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
