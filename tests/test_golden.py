"""Golden CLI outputs: each invocation replays through cli.main and its
stdout must match the committed file under tests/golden/ byte for byte.

Regenerate the files (only when an output is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from minperm.cli import main
from minperm.permutations import format_permutation
from minperm.verify import WORKED_PERM_13, WORKED_PERM_16

GOLDEN = Path(__file__).parent / "golden"

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
    "knuth_chain_perm13": ["knuth-chain", "--perm", format_permutation(WORKED_PERM_13)],
    "verify_bijection_7": ["verify", "--suite", "bijection", "--max-n", "7"],
    "verify_rsk_5": ["verify", "--suite", "rsk", "--max-n", "5"],
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
