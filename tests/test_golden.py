"""Golden CLI outputs: each invocation replays through cli.main and its
stdout must match the committed file under tests/golden/ byte for byte.
The count matrix holds the exit code, stdout and stderr of several hundred
`count` invocations, refusals included, and each must replay the same.

Regenerate the files (only when an output is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from minperm.cli import (MAX_ASCENT_CELLS, MAX_ASCENT_PARTS, MAX_CLOSED_N, MAX_DET_N,
                         main)
from minperm.bijection import tableau_to_perm
from minperm.permutations import format_permutation
from minperm.tableaux import shape_from_runs
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


@functools.cache
def minimal_1000_runs():
    """A seeded minimal permutation of 1000 decreasing runs of 2 and 3
    letters (2,507 letters): the column reading of a standard filling of its
    drawn shape, whose padded rows hold 260,882 cells."""
    from test_bijection import random_filling
    rng = random.Random(1000)
    runs = tuple(rng.choice((2, 3)) for _ in range(1000))
    return tableau_to_perm(random_filling(shape_from_runs(runs).conjugated(), rng))


# the long arguments that DIGESTS names in capitals, made when a test runs
LONG_ARGS = {
    "WORD_8000": lambda: format_permutation(random.Random(1).sample(range(1, 8001), 8000)),
    "RUNS_1000": lambda: format_permutation(minimal_1000_runs()),
}

# outputs past the goldens, in the comma format, pinned by their sha256 and
# line count
DIGESTS = {
    "enumerate --n 10": ("1919468fa4319123939646ea0a9eacb1db8d25707680c523f951ecdd4feb30ab", 31914),
    "enumerate --n 11 --d 6":
        ("306c4b7154f8ac7c44d793d9a5842bf4b064601330579a08d7df23758a2cf0a5", 5280),
    # the maps workload's rsk length, and a tableau of the bijection's size
    "rsk --perm WORD_8000":
        ("dcaa212b4a8dd05c333d0e1c32f4e774e2453f4e5e303f9e7cb5e0b2c1ac3172", 1),
    "bijection --perm RUNS_1000":
        ("613c0735fa85c3f595f1f857dfc3ce005f8e3a6b730d3a88dfc1be81f5b91953", 1),
}


COUNT_MATRIX = GOLDEN / "count_matrix.json"
HUGE_N = 99_999_999_999


def count_matrix_argvs():
    """The `count` argvs of the matrix.  Every one parses: argparse's own
    messages differ between Python versions.  Accepted inputs at the slow
    caps are left out (the det band near MAX_DET_N, brute force at n = 10
    and 11 and its band at n = 12, closed near MAX_CLOSED_N, profiles near
    the ascent caps), and so is every count too long for the int-to-text
    limit."""
    argvs = []

    def add(n, *rest):
        for fmt in ("csv", "json"):
            argvs.append(["count", "--n", str(n), *rest, "--format", fmt])

    for n in range(-1, 15):
        low = (n + 1) // 2
        ds = sorted({-1, 0, low - 1, low, n - 1, n, n + 1})
        for method in ("det", "closed", "brute"):
            if method == "brute" and n in (10, 11):
                continue
            if not (method == "brute" and n == 12):
                add(n, "--method", method)
            for d in ds:
                add(n, "--d", str(d), "--method", method)
    # each cap and its neighbours, on the side that answers quickly
    for n in (MAX_DET_N, MAX_DET_N + 1):
        for d in (None, n // 2, n + 1, n - 1):
            for method in ("det", "closed"):
                if d is None and n == MAX_DET_N and method == "det":
                    continue
                add(n, *(() if d is None else ("--d", str(d))), "--method", method)
    for n in (MAX_CLOSED_N - 1, MAX_CLOSED_N, MAX_CLOSED_N + 1, HUGE_N):
        for d in (None, n - 1, n // 2 - 1, n + 2, 3):
            if d is None and n <= MAX_CLOSED_N:
                continue
            for method in ("det", "closed", "brute"):
                add(n, *(() if d is None else ("--d", str(d))), "--method", method)
    # --ascents profiles: good ones, parts below 2, wrong sums, --d beside them
    two = ",".join(["2"] * (MAX_ASCENT_PARTS + 1))
    big = f"{MAX_ASCENT_CELLS // 2},{MAX_ASCENT_CELLS // 2 + 1}"
    profiles = [(2, "2"), (5, "5"), (6, "2,2,2"), (7, "3,4"), (7, "2,2,3"), (9, "4,2,3"),
                (4, "1,3"), (4, "0,4"), (3, "1,1,1"), (1, "1"), (0, "0"), (-1, "-1"),
                (6, "2,3"), (5, "2,2,2"), (2 * MAX_ASCENT_PARTS + 2, two),
                (MAX_ASCENT_CELLS + 1, big), (MAX_ASCENT_CELLS + 1, str(MAX_ASCENT_CELLS + 1)),
                (HUGE_N, "2,2")]
    for n, runs in profiles:
        for method in ("det", "closed", "brute"):
            add(n, "--ascents", runs, "--method", method)
    for n, runs, d in ((6, "2,2,2", 3), (6, "2,2,2", 4), (7, "3,4", -1), (4, "1,3", 2)):
        for method in ("det", "closed", "brute"):
            add(n, "--d", str(d), "--ascents", runs, "--method", method)
    return argvs


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_golden(name):
    case = replay(INVOCATIONS[name])
    assert case["exit"] == 0
    assert case["stdout"].encode() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_digest(command):
    case = replay([LONG_ARGS[arg]() if arg in LONG_ARGS else arg for arg in command.split()])
    stdout = case["stdout"].encode()
    assert case["exit"] == 0
    assert (hashlib.sha256(stdout).hexdigest(), stdout.count(b"\n")) == DIGESTS[command]


def test_count_matrix_replays():
    cases = json.loads(COUNT_MATRIX.read_text())
    assert [case["argv"] for case in cases] == count_matrix_argvs()
    changed = [(case, got) for case in cases
               if (got := replay(case["argv"])) != case]
    assert not changed, changed[:3]


if __name__ == "__main__":
    for name, argv in INVOCATIONS.items():
        case = replay(argv)
        if case["exit"] != 0:
            sys.exit(f"{name} exited {case['exit']}")
        (GOLDEN / f"{name}.txt").write_bytes(case["stdout"].encode())
    cases = [replay(argv) for argv in count_matrix_argvs()]
    # one case a line, so that a change shows as a one-line diff
    COUNT_MATRIX.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")
