import contextlib
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from test_bijection import random_filling
from test_golden import minimal_1000_runs

import minperm.verify as verify
from minperm import (SkewShape, SkewTableau, catalan, decreasing_run_lengths,
                     enumerate_minimal, even_odd_split, format_permutation,
                     insertion_tableau, knuth_chain, one_ascent_count,
                     perm_to_tableau, rsk_inverse, rsk_trace, shape_from_runs,
                     tableau_to_json, tableau_to_perm, two_ascent_count)
import minperm.cli as cli
import minperm.permutations as permutations_module
from minperm.cli import MAX_ASCENT_CELLS, MAX_CLOSED_N, MAX_DET_N, main
from minperm.counting import _closed_form, _column_count, minimal_count_by_runs
from minperm.permutations import _separator
from minperm.rsk import _knuth_swap
from minperm.verify import (WORKED_PERM_13, WORKED_SPLIT_13,
                            check_bijection_round_trip, check_catalan_law,
                            check_double_descent_refinement,
                            check_odd_length_formula, check_rsk_refinement)

SRC = Path(__file__).resolve().parent.parent / "src"
# `minperm` run in a child that imports it from the source tree
CHILD = [sys.executable, "-m", "minperm"]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
# minperm.rsk, the module: the package binds the name rsk to the function
rsk_module = importlib.import_module("minperm.rsk")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def staircase(m):
    """3,2,1,5,4,...,2m+1,2m: the class member (m, 1)."""
    return [3, 2, 1] + [x for k in range(2, m + 1) for x in (2 * k + 1, 2 * k)]


def rsk_stdout_by_dumps(w):
    """Oracle for `rsk`: the whole object built first and printed through
    one json.dumps."""
    p, q, paths = rsk_trace(w)
    return json.dumps({
        "perm": format_permutation(w),
        "shape": [len(row) for row in p],
        "P": p, "Q": q, "paths": paths,
    }) + "\n"


def bijection_stdout_by_dumps(w=None, t=None):
    """Oracle for `bijection --perm w`, or `--tableau t`: the whole object,
    its keys in the order of the direction taken, printed through one
    json.dumps."""
    if t is None:
        t = perm_to_tableau(w)
        payload = {"perm": format_permutation(w), "tableau": tableau_to_json(t)}
    else:
        w = tableau_to_perm(t)
        payload = {"tableau": tableau_to_json(t), "perm": format_permutation(w)}
    return json.dumps({**payload, "round_trip": "ok"}) + "\n"


def knuth_chain_stdout_by_dumps(w):
    """Oracle for `knuth-chain`: every word joined and held first, and the
    whole object printed through one json.dumps."""
    moves = knuth_chain(w)
    word, tokens, words = list(w), list(map(str, w)), []
    sep = _separator(len(w))
    for move in moves:
        j = _knuth_swap(word, move.position, move.kind)
        tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
        words.append(sep.join(tokens))
    word = tuple(word)
    target = even_odd_split(w)
    return json.dumps({
        "perm": format_permutation(w),
        "moves": [{"position": m.position, "kind": m.kind} for m in moves],
        "words": words,
        "final": format_permutation(word),
        "target": format_permutation(target),
        "insertion_tableau_unchanged": insertion_tableau(w) == insertion_tableau(word),
    }) + "\n"


def peak_rss_mb(argv, timeout):
    """Exit code and peak RSS in MB of `minperm argv`, stdout discarded,
    killed after timeout seconds.  A child's ru_maxrss starts at the memory
    of the process that starts it, so a fresh interpreter starts it and
    reads its ru_maxrss (KiB on Linux) through os.wait4 on its pid."""
    starter = """
import os, signal, subprocess, sys
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
signal.signal(signal.SIGALRM, lambda *_: proc.kill())
signal.alarm(int(sys.argv[1]))
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"""
    out = subprocess.run([sys.executable, "-c", starter, str(timeout), *CHILD, *argv],
                         env=CHILD_ENV, stdout=subprocess.PIPE, check=True,
                         timeout=timeout + 30).stdout
    code, kib = map(int, out.split())
    return code, kib / 1024


def traced_peak(argv):
    """Exit code and peak traced memory in bytes of main(argv), with its
    stdout discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


# refusals print one error line and nothing to stdout
REFUSED_PERMS = {
    "not a permutation": ("1 2 x", 2),
    "a repeated letter": ("1 1 2", 2),
    "not minimal": ("3 1 2", 2),
    "even length": ("2 1 4 3", 2),
    "wrong descent count": ("5 4 3 2 1", 2),
    "output cap": (",".join(map(str, staircase(1000))), 3),
}


class TestCount:
    def test_det_single_cell(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "6", "--d", "3", "--method", "det")
        assert code == 0
        assert out == "n,d,count\n6,3,5\n"

    def test_default_method_is_det(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--d", "2")
        assert code == 0 and out.splitlines()[1] == "3,2,1"

    def test_ascents_cell(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "7", "--ascents", "2,2,3",
                           "--method", "det", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 7, "d": 4, "count": "21"}

    def test_ascents_brute_agrees(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "7", "--ascents", "2,2,3",
                           "--method", "brute")
        assert code == 0 and out.splitlines()[1] == "7,4,21"

    def test_short_runs_count_zero_by_every_method(self, capsys):
        # a decreasing run below 2 allows no minimal permutation: det answers
        # the 0 row that brute force finds, and enumerate prints nothing,
        # where det exited 2; the library still refuses the profile
        for runs in ("1,3", "0,4", "1,1,1", "1", "-1,5", "2,1,2"):
            n = str(sum(map(int, runs.split(","))))
            for fmt in ("csv", "json"):
                det, brute = (run(capsys, "count", "--n", n, f"--ascents={runs}",
                                  "--method", method, "--format", fmt)
                              for method in ("det", "brute"))
                assert det == brute, runs
                assert det[0] == 0 and det[1].endswith(
                    f"{n},{int(n) - runs.count(',') - 1},0\n" if fmt == "csv"
                    else '"count": "0"}\n'), runs
            assert run(capsys, "enumerate", "--n", n, f"--ascents={runs}") == (0, "", ""), runs
            with pytest.raises(ValueError, match="every run length must be >= 2"):
                minimal_count_by_runs(tuple(map(int, runs.split(","))))

    def test_band_table(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "6")
        assert code == 0
        assert out.splitlines() == ["n,d,count", "6,3,5", "6,4,32", "6,5,1"]

    def test_brute_matches_det(self, capsys):
        _, det_out, _ = run(capsys, "count", "--n", "7", "--method", "det")
        _, brute_out, _ = run(capsys, "count", "--n", "7", "--method", "brute")
        assert det_out == brute_out

    def test_closed_matches_det_on_overlap(self, capsys):
        for n in range(4, 11):
            code, closed_out, _ = run(capsys, "count", "--n", str(n),
                                      "--method", "closed")
            assert code == 0
            _, det_out, _ = run(capsys, "count", "--n", str(n), "--method", "det")
            det_cells = dict(line.rsplit(",", 1) for line in det_out.splitlines()[1:])
            for line in closed_out.splitlines()[1:]:
                key, value = line.rsplit(",", 1)
                assert det_cells[key] == value, line

    def test_json_counts_are_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "30", "--d", "28",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert row["count"] == str(2 ** 30 - 30 * 29 - 2)

    def test_usage_errors(self, capsys):
        assert run(capsys, "count", "--n", "6", "--d", "3", "--ascents", "2,2,2")[0] == 2
        assert run(capsys, "count", "--n", "6", "--ascents", "2,2,3")[0] == 2
        assert run(capsys, "count", "--n", "7", "--d", "9", "--method", "closed")[0] == 2
        assert run(capsys, "count", "--n", "6", "--method", "nope")[0] == 2
        assert run(capsys, "count")[0] == 2
        for argv in (["--n", "5", "--d", "-3"], ["--n", "0"], ["--n", "-2"]):
            code, out, err = run(capsys, "count", *argv)
            assert (code, out) == (2, ""), argv
            assert "must be" in err
        # every integer option takes ASCII digits only, where int() also
        # reads other scripts' digits and underscores
        for argv, option, text in (
                (("count", "--n", "٩"), "--n", "٩"),
                (("count", "--n", "1_0", "--d", "5"), "--n", "1_0"),
                (("count", "--n", "5", "--d", "３"), "--d", "３"),
                (("enumerate", "--n", "٥"), "--n", "٥"),
                (("enumerate", "--n", "5", "--double-descent-at", "١"), "--double-descent-at", "١"),
                (("verify", "--max-n", "٤"), "--max-n", "٤")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")

    def test_cap_exceeded(self, capsys):
        # brute force prints the totals of the completion-count tables, one
        # per d, all sized before any is built: the band at n = 33 (941,180
        # entries) answers, and at n = 34 the sum passes the table cap
        assert run(capsys, "count", "--n", "33", "--method", "brute") == \
            run(capsys, "count", "--n", "33")
        assert run(capsys, "count", "--n", "34", "--method", "brute") == (
            3, "", "error: n=34 needs completion-count tables of at least 1002841 entries, "
                   "above the cap of 1000000\n")

    def test_brute_matches_det_to_n30(self, capsys):
        # the tables' totals are the determinant's counts, byte for byte: on
        # the band and on every d in and out of the band (the count matrix
        # holds the json rows to n = 14)
        for n in range(1, 31):
            for argv in ((), *(("--d", str(d)) for d in range(n + 2))):
                brute = run(capsys, "count", "--n", str(n), *argv, "--method", "brute")
                assert brute == run(capsys, "count", "--n", str(n), *argv), (n, argv)
                assert brute[0] == 0, (n, argv)

    def test_det_profile_cap(self, capsys):
        # the band at n = 40 sums 63 million run profiles, and answers
        code, out, _ = run(capsys, "count", "--n", "40")
        assert code == 0
        rows = dict(line.rsplit(",", 1) for line in out.splitlines()[1:])
        assert list(rows) == [f"40,{d}" for d in range(20, 40)]
        assert rows["40,20"] == str(catalan(20)) == "6564120420"
        assert rows["40,39"] == "1"
        assert rows["40,38"] == str(one_ascent_count(40))
        assert rows["40,37"] == str(two_ascent_count(40))
        _, out, _ = run(capsys, "count", "--n", "40", "--d", "26")
        assert out == f"n,d,count\n40,26,{rows['40,26']}\n"
        # above the cap on n an in-band request is refused before any work
        top = MAX_DET_N + 1
        for argv in (("--n", str(top)), ("--n", str(top), "--d", str(top - 2))):
            code, out, err = run(capsys, "count", *argv)
            assert code == 3 and out == "" and f"cap {MAX_DET_N}" in err
        # outside the band the count is 0 at any n
        code, out, _ = run(capsys, "count", "--n", "10000", "--d", "3")
        assert (code, out) == (0, "n,d,count\n10000,3,0\n")

    def test_caps_come_before_the_band(self, capsys):
        # listing the band of this n first died with a MemoryError traceback
        n = "99999999999"
        det = f"error: n={n} is above the cap {MAX_DET_N} for --method det\n"
        brute = (f"error: enumeration over S_{n} needs a completion-count table of at least "
                 "5000000000049999999999 entries, above the cap of 1000000\n")
        closed = f"error: n={n} is above the cap {MAX_CLOSED_N} for --method closed\n"
        for argv, err in [((), det), (("--method", "det"), det), (("--method", "brute"), brute),
                          (("--method", "brute", "--format", "json"), brute),
                          (("--method", "closed"), closed),
                          (("--method", "closed", "--d", "99999999997"), closed)]:
            assert run(capsys, "count", "--n", n, *argv) == (3, "", err), argv
        # closed has a cap of its own; outside the band no closed form applies
        top = str(MAX_CLOSED_N + 1)
        code, out, err = run(capsys, "count", "--n", top, "--method", "closed")
        assert (code, out) == (3, "") and f"cap {MAX_CLOSED_N} for --method closed" in err
        code, out, err = run(capsys, "count", "--n", n, "--d", "3", "--method", "closed")
        assert (code, out) == (2, "") and "no closed form covers" in err

    def test_closed_band_rows(self, capsys):
        # the rows are those of every d in the band that a closed form covers
        for n in range(1, 60):
            rows = [(d, _closed_form(n, d)) for d in range((n + 1) // 2, n)]
            want = "".join(f"{n},{d},{value}\n" for d, value in rows if value is not None)
            code, out, err = run(capsys, "count", "--n", str(n), "--method", "closed")
            if want:
                assert (code, out) == (0, "n,d,count\n" + want), n
            else:
                assert (code, out) == (2, "") and "no closed form" in err, n

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python converts an int of any length to text")
    def test_unprintable_count_prints_nothing(self, capsys):
        # at a limit of 640 digits the band at n = 1400 formats its first rows,
        # Catalan(700) of 420 digits among them, but not the 668 digits of
        # two_ascent_count(1400) at d = 1397.  Every row is formatted before
        # the first write, and the count is refused as a cap, which
        # PYTHONINTMAXSTRDIGITS raises
        message = ("error: a count has more digits than the int-to-text limit of 640 "
                   "digits; set PYTHONINTMAXSTRDIGITS to a higher limit, or to 0 for none\n")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for argv in (("--n", "1400"), ("--n", "1400", "--format", "json"),
                         ("--n", "1400", "--d", "1397")):
                assert run(capsys, "count", *argv, "--method", "closed") == (3, "", message), argv
        finally:
            sys.set_int_max_str_digits(old)
        argv = [*CHILD, "count", "--n", "1400", "--d", "1397", "--method", "closed"]
        row = f"n,d,count\n1400,1397,{two_ascent_count(1400)}\n"
        for limit, code, out in (("640", 3, ""), ("0", 0, row)):
            child = subprocess.run(argv, capture_output=True, text=True,
                                   env=dict(CHILD_ENV, PYTHONINTMAXSTRDIGITS=limit))
            assert (child.returncode, child.stdout) == (code, out), limit
            assert child.stderr == (message if code else ""), limit

    def test_ascents_caps(self, capsys):
        # the one cap is on cells: parts of 2 or more bound its 1,500 cells
        # to 750 parts, so 501 parts of 2, the straight two-column shape
        # that a cap of 500 parts refused, answer
        parts = 501
        code, out, _ = run(capsys, "count", "--n", str(2 * parts),
                           "--ascents", ",".join(["2"] * parts))
        assert (code, out) == (0, f"n,d,count\n{2 * parts},{parts},{catalan(parts)}\n")
        half = MAX_ASCENT_CELLS // 2
        code, out, _ = run(capsys, "count", "--n", str(2 * half), "--ascents", f"{half},{half}")
        assert (code, out) == (0, f"n,d,count\n{2 * half},{2 * half - 2},"
                                  f"{math.comb(2 * half, half) - 2 * half}\n")
        for runs in ((2,) * (half + 1), (half, half + 1)):
            code, out, err = run(capsys, "count", "--n", str(sum(runs)),
                                 "--ascents", ",".join(map(str, runs)))
            assert (code, out) == (3, "")
            assert err == (f"error: --ascents has {sum(runs)} cells, above the cap of "
                           f"{MAX_ASCENT_CELLS} cells\n")

    def test_max_brute_n_flag_removed(self, capsys):
        # no cap on n is left to raise: --max-brute-n is an unknown option,
        # and n = 14 answers within the table and line caps
        for argv in (("enumerate", "--n", "8"), ("count", "--n", "8", "--method", "brute")):
            code, out, err = run(capsys, *argv, "--max-brute-n", "7")
            assert (code, out) == (2, ""), argv
            assert "--max-brute-n" in err, argv
        code, out, _ = run(capsys, "enumerate", "--n", "14", "--d", "12")
        assert code == 0 and len(out.splitlines()) == one_ascent_count(14) == 16200
        assert run(capsys, "count", "--n", "14", "--d", "12", "--method", "brute") == \
            (0, "n,d,count\n14,12,16200\n", "")

    def test_brute_walk_cap(self, capsys, monkeypatch):
        # brute force walks no word, so the walk cap of 5,000,000 words is
        # gone: what it refused answers as det does, and the enumerate line
        # cap leaves count alone
        monkeypatch.setattr(cli, "MAX_ENUMERATE_LINES", 0)
        for argv in (("--n", "20"), ("--n", "30", "--d", "20"), ("--n", "14", "--format", "json"),
                     ("--n", "14", "--ascents", "2,2,3,3,4")):
            assert run(capsys, "count", *argv, "--method", "brute") == \
                run(capsys, "count", *argv), argv
        # the tables of d = 4, 5, 6 at n = 7 hold 222, 256 and 35 entries;
        # the band is refused on their sum, and --d sizes one table
        monkeypatch.setattr(permutations_module, "MAX_TABLE_ENTRIES", 513)
        assert run(capsys, "count", "--n", "7", "--method", "brute") == \
            (0, "n,d,count\n7,4,84\n7,5,84\n7,6,1\n", "")
        monkeypatch.setattr(permutations_module, "MAX_TABLE_ENTRIES", 512)
        assert run(capsys, "count", "--n", "7", "--method", "brute") == (
            3, "", "error: n=7 needs completion-count tables of at least 513 entries, "
                   "above the cap of 512\n")
        monkeypatch.setattr(permutations_module, "MAX_TABLE_ENTRIES", 256)
        assert run(capsys, "count", "--n", "7", "--method", "brute")[:2] == (3, "")
        assert run(capsys, "count", "--n", "7", "--d", "5", "--method", "brute") == \
            (0, "n,d,count\n7,5,84\n", "")
        monkeypatch.setattr(permutations_module, "MAX_TABLE_ENTRIES", 255)
        assert run(capsys, "count", "--n", "7", "--d", "5", "--method", "brute") == (
            3, "", "error: enumeration over S_7 needs a completion-count table of at least "
                   "256 entries, above the cap of 255\n")

    def test_no_cap_read_from_the_environment(self, capsys, monkeypatch):
        # no cap is read from the environment: a stray variable changes nothing
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "5")
        assert run(capsys, "count", "--n", "7", "--method", "brute") == \
            (0, "n,d,count\n7,4,84\n7,5,84\n7,6,1\n", "")


class TestEnumerate:
    def test_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--d", "2")
        assert code == 0
        assert out.splitlines() == ["2 1 4 3", "3 1 4 2"]
        # the pruned enumeration and the determinant count agree
        _, out, _ = run(capsys, "enumerate", "--n", "10", "--d", "6")
        assert run(capsys, "count", "--n", "10", "--d", "6")[1] == \
            f"n,d,count\n10,6,{len(out.splitlines())}\n"

    def test_double_descent_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--d", "3",
                           "--double-descent-at", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5 and "3 2 1 5 4" in lines

    def test_negative_descents_rejected(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "5", "--d", "-3")
        assert (code, out) == (2, "") and "d must be >= 0" in err

    def test_d_with_ascents_rejected(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "5", "--ascents", "2,3", "--d", "2")
        assert (code, out) == (2, "") and "--d and --ascents are mutually exclusive" in err

    def test_deterministic(self, capsys):
        first = run(capsys, "enumerate", "--n", "6")
        second = run(capsys, "enumerate", "--n", "6")
        assert first == second

    def test_line_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ENUMERATE_LINES", 62)
        # a count at the cap is listed; one above it is refused before any
        # search, with --d, --ascents, --double-descent-at or none, and the
        # count is exact under each
        code, out, _ = run(capsys, "enumerate", "--n", "8", "--ascents", "4,4")
        assert code == 0 and len(out.splitlines()) == 62
        for argv, lines in ((("--n", "7", "--d", "4"), "84"),
                            (("--n", "7"), "169"),
                            (("--n", "7", "--d", "5", "--double-descent-at", "1"), "70"),
                            (("--n", "10", "--ascents", "5,5"), "242")):
            code, out, err = run(capsys, "enumerate", *argv)
            assert (code, out) == (3, ""), argv
            assert err == f"error: enumerate would print {lines} lines, above the cap of 62\n"

    def test_line_cap_at_large_n(self, capsys):
        # Catalan(15) lines, and the 14,207,779 of n = 13, are refused by
        # the line cap alone
        for argv, lines in ((("--n", "30", "--d", "15"), 9694845), (("--n", "13"), 14207779)):
            assert run(capsys, "enumerate", *argv) == (
                3, "", f"error: enumerate would print {lines} lines, above the cap of "
                       f"{cli.MAX_ENUMERATE_LINES}\n"), argv

    def test_table_cap(self, capsys):
        # the completion-count table is sized before it is built, and
        # refused before the line cap is asked; a huge n is refused by the
        # row of m + 2 entries or more that each m holds
        code, out, err = run(capsys, "enumerate", "--n", "200")
        assert (code, out) == (3, "")
        assert err == ("error: enumeration over S_200 needs a completion-count table of "
                       "at least 3980197 entries, above the cap of 1000000\n")
        huge = "99999999999"
        assert run(capsys, "enumerate", "--n", huge) == (
            3, "", f"error: enumeration over S_{huge} needs a completion-count table of at "
                   "least 5000000000049999999999 entries, above the cap of 1000000\n")
        # more ascents than a minimal permutation has are answered at once
        assert run(capsys, "enumerate", "--n", huge, "--d", "3") == (0, "", "")
        # one run keeps the table small: about n^2 / 2 entries
        code, out, _ = run(capsys, "enumerate", "--n", "1000", "--d", "999")
        assert (code, out) == (0, ",".join(map(str, range(1000, 0, -1))) + "\n")

    def test_three_ascents_refused_on_the_table_size(self):
        # no closed form counts (1000, 996), and the column program took 45 s
        # on it; the table's size, found first, refuses the run at once
        start = time.perf_counter()
        proc = subprocess.run([*CHILD, "enumerate", "--n", "1000", "--d", "996"], env=CHILD_ENV,
                              capture_output=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr == (b"error: enumeration over S_1000 needs a completion-count "
                               b"table of at least 1987541173 entries, above the cap of "
                               b"1000000\n")

    def test_output_cap(self, capsys, monkeypatch):
        # every line is as long as the first, so the characters are counted
        # before any line is printed: n = 5 prints 11 lines of 10 characters
        monkeypatch.setattr(cli, "MAX_OUTPUT_CHARS", 110)
        code, out, _ = run(capsys, "enumerate", "--n", "5")
        assert code == 0 and len(out) == 110
        monkeypatch.setattr(cli, "MAX_OUTPUT_CHARS", 109)
        assert run(capsys, "enumerate", "--n", "5") == (
            3, "", "error: enumerate would print 11 lines of 10 characters, above the cap "
                   "of 109 characters\n")

    def test_output_cap_refuses_promptly(self):
        # 498,500 lines pass the line cap, but they hold 1,940,660,500
        # characters
        start = time.perf_counter()
        proc = subprocess.run([*CHILD, "enumerate", "--n", "1000", "--ascents", "998,2"],
                              env=CHILD_ENV, capture_output=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr == (b"error: enumerate would print 498500 lines of 3893 characters, "
                               b"above the cap of 250000000 characters\n")

    def test_ten_runs_of_two(self):
        # ten runs of 2 list all Catalan(10) = 16,796 words in well under a
        # second; a walk that only counted ascents took 16 s already at n = 18
        out = subprocess.run([*CHILD, "enumerate", "--n", "20", "--ascents", ",".join(["2"] * 10)],
                             env=CHILD_ENV, stdout=subprocess.PIPE, check=True, timeout=20).stdout
        assert out.count(b"\n") == 16796

    def test_batches_match_lines(self, capsys, monkeypatch):
        # 31,914 lines cross many batches and end on a partial one
        code, out, _ = run(capsys, "enumerate", "--n", "10")
        monkeypatch.setattr(cli, "WRITE_BATCH", 1)
        assert (code, out) == (0, "".join(format_permutation(w) + "\n"
                                           for w in enumerate_minimal(10)))
        assert run(capsys, "enumerate", "--n", "10") == (0, out, "")

    def test_empty_double_descent_range(self, capsys):
        # below length 3 no position can hold a double descent; the message
        # said "must be in 1..0" as if that range held values
        for n, empty in (("2", "1..0"), ("1", "1..-1")):
            assert run(capsys, "enumerate", "--n", n, "--double-descent-at", "1") == (
                2, "", f"error: no double-descent position is valid here ({empty} is empty), "
                       "got 1\n"), n

    def test_non_ascii_ascents_rejected(self, capsys):
        # int() also reads other scripts' digits and underscores
        for text in ("٢,٣", "2,3_0", "２,３"):
            code, out, err = run(capsys, "enumerate", "--n", "5", "--ascents", text)
            assert (code, out) == (2, ""), text
            assert f"cannot parse ascent sequence {text!r}" in err


class TestBijection:
    def test_perm_to_tableau(self, capsys):
        code, out, _ = run(capsys, "bijection", "--perm", "2 1 4 3")
        assert code == 0
        payload = json.loads(out)
        assert payload["round_trip"] == "ok"
        assert payload["tableau"]["rows"] == [[1, 3], [2, 4]]

    def test_tableau_to_perm(self, capsys):
        tableau = json.dumps({"shape": "2,2", "rows": [[1, 3], [2, 4]]})
        code, out, _ = run(capsys, "bijection", "--tableau", tableau)
        assert code == 0
        payload = json.loads(out)
        assert payload["perm"] == "2 1 4 3" and payload["round_trip"] == "ok"

    def test_parse_failure_reports_token(self, capsys):
        code, _, err = run(capsys, "bijection", "--perm", "1 2 x")
        assert code == 2 and "token 3" in err

    def test_non_ascii_digits_rejected(self, capsys):
        # int() also reads other scripts' digits and underscores
        for perm, bad in (("٢,١", "1 ('٢')"), ("0_2,1", "1 ('0_2')"), ("2 １", "2 ('１')")):
            code, out, err = run(capsys, "bijection", "--perm", perm)
            assert (code, out) == (2, ""), perm
            assert err == f"error: token {bad} is not an integer\n"
        tableau = json.dumps({"shape": "٢,٢", "rows": [[1, 3], [2, 4]]})
        code, out, err = run(capsys, "bijection", "--tableau", tableau)
        assert (code, out) == (2, "")
        assert err == "error: cannot parse outer partition from '٢,٢'\n"

    def test_non_minimal_rejected(self, capsys):
        code, _, err = run(capsys, "bijection", "--perm", "1 2 3")
        assert code == 2 and "not minimal" in err

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "bijection")[0] == 2

    def test_bool_entry_rejected(self, capsys):
        tableau = json.dumps({"shape": "2,2", "rows": [[True, 3], [2, 4]]})
        code, out, err = run(capsys, "bijection", "--tableau", tableau)
        assert (code, out) == (2, "")
        assert "cell (1,1) must hold an integer, got True" in err

    def test_non_string_shape_rejected(self, capsys):
        for shape in (None, 5, [2, 2]):
            tableau = json.dumps({"shape": shape, "rows": []})
            code, out, err = run(capsys, "bijection", "--tableau", tableau)
            assert (code, out) == (2, "")
            assert f"'shape' must be a string, got {shape!r}" in err

    def test_stdout_matches_dumps(self, capsys):
        # one run of 3 prints its shape 1,1,1/∅ with the sign escaped
        words = [(3, 2, 1), (2, 1, 4, 3), (2, 1, 5, 4, 3)]
        words += random.Random(7).sample(list(enumerate_minimal(8)), 20)
        words += [minimal_1000_runs()]
        for w in words:
            t = perm_to_tableau(w)
            for argv, want in (
                    (["--perm", format_permutation(w)], bijection_stdout_by_dumps(w=w)),
                    (["--tableau", json.dumps(tableau_to_json(t))],
                     bijection_stdout_by_dumps(t=t))):
                assert run(capsys, "bijection", *argv) == (0, want, ""), w
        code, out, _ = run(capsys, "bijection", "--perm", "3 2 1")
        assert code == 0 and '"shape": "1,1,1/\\u2205"' in out

    def test_traced_memory(self):
        # printed through one json.dumps, with the tableau copied into lists,
        # the 1000-run word peaked at 7.2 MiB and its tableau, read back, at
        # 9.3 MiB; written row by row they peak at 2.28 and 4.27 MiB, the
        # second while the parsed JSON and the tableau built from it
        # coexist.  The first peaked at 3.18 MiB when 64 rows of about 1,000
        # entries went to a write, and the rows now go WRITE_CHARS characters
        # to a write
        w = minimal_1000_runs()
        code, peak = traced_peak(["bijection", "--perm", format_permutation(w)])
        assert code == 0 and peak < 3 * 2**20, peak
        tableau = json.dumps(tableau_to_json(perm_to_tableau(w)))
        code, peak = traced_peak(["bijection", "--tableau", tableau])
        assert code == 0 and peak < 6 * 2**20, peak

    def test_deep_nesting_rejected(self, capsys):
        # json.loads raised RecursionError, a traceback and exit 1; 50,000
        # levels are above the nesting json.loads reads on Python 3.10-3.13
        deep = "[" * 50_000 + "]" * 50_000
        for tableau in (deep, f'{{"shape": {deep}, "rows": []}}',
                        f'{{"shape": "2,2", "rows": {deep}}}'):
            code, out, err = run(capsys, "bijection", "--tableau", tableau)
            assert (code, out) == (2, "")
            assert err == "error: --tableau is nested too deeply to read\n"


class TestRsk:
    def test_shape_reported(self, capsys):
        code, out, _ = run(capsys, "rsk", "--perm", "3 2 1 5 4")
        assert code == 0
        payload = json.loads(out)
        assert payload["shape"] == [2, 2, 1]
        assert payload["P"] == [[1, 4], [2, 5], [3]]
        assert payload["paths"][0] == [[1, 1]]

    def test_stdout_matches_dumps(self, capsys):
        # the decreasing word of length 300 has paths of every length 1..300,
        # so its paths grow the text template one cell at a time
        rng = random.Random(8000)
        words = [(1,), tuple(range(1, 41)), tuple(range(40, 0, -1)), tuple(range(300, 0, -1))]
        words += [tuple(rng.sample(range(1, n + 1), n)) for n in (10, 11, 97, 300, 2000)]
        # columns past 255 move the paths from an array of a byte a cell to
        # one of 4: the increasing word of length 300 passes 255 on its own
        # first row, and the even letters of 2..600 do so before the odd
        # ones, in a seeded order, bump into every one of their columns
        wide = [tuple(range(1, 301)),
                tuple(range(2, 601, 2)) + tuple(random.Random(301).sample(range(1, 600, 2), 300))]
        _, _, paths = rsk_trace(wide[1])
        assert paths[299][-1] == (1, 300) and max(len(path) for path in paths[300:]) > 1
        words += wide
        for w in words:
            code, out, _ = run(capsys, "rsk", "--perm", format_permutation(w))
            assert code == 0
            assert out == rsk_stdout_by_dumps(w), w
        # without rsk_trace, at the maps workload's length: rsk_inverse gives the
        # word back; each path runs down rows 1..k to the cell where Q records it
        w = list(range(1, 8001))
        random.Random(8000).shuffle(w)
        code, out, _ = run(capsys, "rsk", "--perm", format_permutation(w))
        payload = json.loads(out)
        p, q = (tuple(map(tuple, payload[key])) for key in ("P", "Q"))
        assert code == 0 and rsk_inverse(p, q) == tuple(w) and len(payload["paths"]) == 8000
        for step, path in enumerate(payload["paths"], start=1):
            r, c = path[-1]
            assert [row for row, _ in path] == list(range(1, r + 1)) and q[r - 1][c - 1] == step

    def test_traced_memory(self):
        # the paths of a length-8000 word took 29 MB when held as tuples and
        # printed through one json.dumps, and 5.0 MiB held as one text per
        # path; kept as columns in one array of 4 bytes a cell, formatted 64
        # paths per % call, the run peaked at 2.74 MiB, and at a byte a
        # cell it peaks at 1.71 MiB, formatted about 2,048 cells per call or
        # one path per call
        w = random.Random(1).sample(range(1, 8001), 8000)
        code, peak = traced_peak(["rsk", "--perm", ",".join(map(str, w))])
        assert code == 0 and peak < 2 * 2**20, peak

    def test_traced_memory_every_path_length(self):
        # the decreasing word of length 1000 has paths of every length
        # 1..1000, 500,500 cells: held as one text per path they peaked at
        # 6.1 MiB, and as columns in one array of 4 bytes a cell at 3.97 MiB,
        # 1.65 MiB of it for formatting 64 of these long paths per % call;
        # at a byte a cell it peaks at 0.93 MiB with about 2,048 cells per
        # call, and at 0.89 MiB with one path per call
        code, peak = traced_peak(["rsk", "--perm", ",".join(map(str, range(1000, 0, -1)))])
        assert code == 0 and peak < 1.5 * 2**20, peak

    @pytest.mark.parametrize("case", ["not a permutation", "a repeated letter"])
    def test_refusal_prints_nothing(self, capsys, case):
        perm, want = REFUSED_PERMS[case]
        code, out, err = run(capsys, "rsk", "--perm", perm)
        assert (code, out) == (want, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestKnuthChain:
    def test_worked_example(self, capsys):
        perm = " ".join(map(str, WORKED_PERM_13))
        code, out, _ = run(capsys, "knuth-chain", "--perm", perm)
        assert code == 0
        payload = json.loads(out)
        assert payload["final"] == ",".join(map(str, WORKED_SPLIT_13))
        assert payload["insertion_tableau_unchanged"] is True
        assert len(payload["moves"]) == 10

    def test_out_of_class_rejected(self, capsys):
        code, _, err = run(capsys, "knuth-chain", "--perm", "2 1 4 3")
        assert code == 2 and "odd" in err

    def test_non_minimal_rejected(self, capsys):
        # worded as bijection words it: both read the word through one check
        assert run(capsys, "knuth-chain", "--perm", "3,1,2") == (
            2, "", "error: permutation (3, 1, 2) is not minimal: "
                   "position 2 is an ascent, not a descent\n")

    def test_staircase_member(self, capsys):
        # 3,2,1,5,4,...,301,300 is the class (150, 1): 149 * 150 / 2 moves
        code, out, _ = run(capsys, "knuth-chain", "--perm", ",".join(map(str, staircase(150))))
        payload = json.loads(out)
        assert code == 0 and len(payload["moves"]) == len(payload["words"]) == 11175
        # each word is the one before it with one adjacent pair swapped,
        # read from the output itself rather than replayed
        words = [w.split(",") for w in [payload["perm"], *payload["words"]]]
        for k, (before, after) in enumerate(zip(words, words[1:]), start=1):
            j = next((j for j, (x, y) in enumerate(zip(before, after)) if x != y), 0)
            assert after == before[:j] + [before[j + 1], before[j]] + before[j + 2:], k
        assert payload["insertion_tableau_unchanged"] is True
        assert payload["final"] == payload["target"] == payload["words"][-1]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    @pytest.mark.parametrize("m, bound", [(300, 100), (400, 40)])
    def test_peak_rss(self, m, bound):
        # length 601 writes 105 MB of words, which peaked at 332 MB held whole;
        # length 801, the largest chain under the cap, peaked at 26.5 MB with
        # one KnuthMove per move, and at 16.6 MB replaying the schedule once
        code, peak = peak_rss_mb(["knuth-chain", "--perm", ",".join(map(str, staircase(m)))],
                                 timeout=60)
        assert code == 0 and peak <= bound, peak

    def test_output_cap(self, capsys, monkeypatch):
        # the class (1000, 1) at length 2001 is refused before any move is made
        code, out, err = run(capsys, "knuth-chain", "--perm", ",".join(map(str, staircase(1000))))
        assert (code, out) == (3, "")
        assert "length 2001 with i=1 would print 499500 words of 8897 characters" in err
        # 3 2 1 5 4 7 6 passes through 3 words of 13 characters each
        monkeypatch.setattr(cli, "MAX_OUTPUT_CHARS", 39)
        assert run(capsys, "knuth-chain", "--perm", "3 2 1 5 4 7 6")[0] == 0
        monkeypatch.setattr(cli, "MAX_OUTPUT_CHARS", 38)
        code, out, err = run(capsys, "knuth-chain", "--perm", "3 2 1 5 4 7 6")
        assert (code, out) == (3, "")
        assert err == ("error: knuth-chain on length 7 with i=1 would print 3 words of "
                       "13 characters, above the cap of 38 characters\n")

    def test_stdout_matches_dumps(self, capsys):
        # class members filled from (m, m, i)/(i-1), as in test_rsk
        rng = random.Random(301)
        perms = [(3, 2, 1), (3, 2, 1, 5, 4)]
        for m in (4, 50, 150):
            for i in sorted({1, 2, 3, 4, m}):
                perms.append(tableau_to_perm(random_filling(SkewShape((m, m, i), (i - 1,)),
                                                            rng)))
        unequal = 0
        for w in perms:
            code, out, _ = run(capsys, "knuth-chain", "--perm", format_permutation(w))
            assert code == 0
            assert out == knuth_chain_stdout_by_dumps(w), w
            word = list(w)
            for move in knuth_chain(w):
                j = _knuth_swap(word, move.position, move.kind)
                unequal += len(str(word[j])) != len(str(word[j + 1]))
        # some moves swap tokens of unequal width, such as 9 and 10, whose
        # swap moves the offset of the second token in the replay's text
        assert unequal > 0
        assert '"moves": [], "words": []' in knuth_chain_stdout_by_dumps((3, 2, 1))

    def test_traced_memory(self):
        # the staircase's 11,175 words took 40 MB when held and printed
        # through one json.dumps, and 1.18 MB written one at a time beside a
        # list of one KnuthMove per move; from the schedule, they take one word
        code, peak = traced_peak(["knuth-chain", "--perm", ",".join(map(str, staircase(150)))])
        assert code == 0 and peak < 2**19, peak

    def test_one_replay(self, capsys, monkeypatch):
        # every move is made once, by the replay that prints the words
        calls = []
        swap = rsk_module._knuth_swap

        def counted(*args):
            calls.append(args[1:])
            return swap(*args)

        monkeypatch.setattr(rsk_module, "_knuth_swap", counted)
        code, out, _ = run(capsys, "knuth-chain", "--perm", format_permutation(WORKED_PERM_13))
        assert code == 0 and len(calls) == len(json.loads(out)["moves"]) == 10

    @pytest.mark.parametrize("fault", ["last move dropped", "one kind swapped"])
    def test_wrong_schedule_fails(self, capsys, monkeypatch, fault):
        # a wrong schedule ends away from the split form (exit 1), or makes a
        # move the replay finds illegal partway through the output (exit 2)
        sweeps = rsk_module._sweeps

        def wrong_sweeps(n, i):
            moves = list(sweeps(n, i))
            if fault == "last move dropped":
                moves.pop()
            else:
                moves[5] = (moves[5][0], "bac")  # an "acb" move in WORKED_PERM_13's chain
            return iter(moves)

        monkeypatch.setattr(rsk_module, "_sweeps", wrong_sweeps)
        error, message, want = {
            "last move dropped": (AssertionError, "sweep schedule for", 1),
            "one kind swapped": (ValueError, "at position 8 has pattern acb, not bac", 2),
        }[fault]
        with pytest.raises(error, match=message):
            knuth_chain(WORKED_PERM_13)
        code, out, err = run(capsys, "knuth-chain", "--perm", format_permutation(WORKED_PERM_13))
        assert code == want
        if fault == "last move dropped":
            payload = json.loads(out)
            assert len(payload["words"]) == 9 and payload["final"] != payload["target"]
        else:
            # the output stops after the five words before the illegal move
            assert out.split('"words": ')[1].count('"') == 10 and not out.endswith("\n")
            assert err == f"error: triple (2, 11, 8) {message}\n"

    @pytest.mark.parametrize("case", sorted(REFUSED_PERMS))
    def test_refusal_prints_nothing(self, capsys, case):
        perm, want = REFUSED_PERMS[case]
        code, out, err = run(capsys, "knuth-chain", "--perm", perm)
        assert (code, out) == (want, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class Writes:
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def array_writes(texts):
    """How many writes _write_array makes of the element texts between its
    brackets: each write ends as soon as it holds WRITE_CHARS characters or
    more, counting the ", " before every element but the first."""
    writes, held = 0, -2
    for text in texts:
        held += 2 + len(text)
        if held >= cli.WRITE_CHARS:
            writes, held = writes + 1, 0
    return writes + (held > 0)


class TestWriteArray:
    # JSON strings of about a third of a write, and longer than a write
    THIRD, LONG = json.dumps("7" * (cli.WRITE_CHARS // 3)), json.dumps("1" * cli.WRITE_CHARS)

    def check_sizes(self, out, texts):
        # the output is json.dumps's; every write between the brackets but
        # the last holds WRITE_CHARS characters or more, and none holds more
        # than WRITE_CHARS plus one element and its separator
        assert "".join(out.writes) == json.dumps(list(map(json.loads, texts)))
        body = out.writes[1:-1]
        assert [out.writes[0], out.writes[-1]] == ["[", "]"]
        assert all(len(write) >= cli.WRITE_CHARS for write in body[:-1])
        longest = max(map(len, texts), default=0)
        assert all(len(write) < cli.WRITE_CHARS + longest + 2 for write in body)
        assert len(body) == array_writes(texts)

    @pytest.mark.parametrize("count", [0, 1, 64, 65, 191])
    def test_one_write_per_batch(self, count):
        # count elements of each size: numbers, which fill one write at
        # most, strings of a third of a write, and strings longer than one
        for texts in (list(map(str, range(count))), [self.THIRD] * count, [self.LONG] * count):
            out = Writes()
            cli._write_array(out, iter(texts))
            self.check_sizes(out, texts)

    def test_tiny_elements_count_their_separators(self):
        # 20,000 one-letter elements take 3 characters each with their
        # separators, so a write holds 5,462 of them, not 16,384
        texts = ["1"] * 20_000
        out = Writes()
        cli._write_array(out, texts)
        self.check_sizes(out, texts)
        assert [len(write) for write in out.writes[1:-1]] == [16_384, 16_386, 16_386, 10_842]

    def test_mixed_sizes(self):
        # a long element after short ones ends a write at once, and short
        # ones after it start the next
        rng = random.Random(16)
        texts = [str(rng.randrange(10 ** rng.choice((1, 4, 9)))) for _ in range(4000)]
        for i in (10, 2500, 3999):
            texts[i] = rng.choice((self.THIRD, self.LONG))
        out = Writes()
        cli._write_array(out, texts)
        self.check_sizes(out, texts)

    def test_elements_before_an_error_are_written(self):
        def texts():
            yield from map(str, range(10_000))
            raise ValueError("stop")

        out = Writes()
        with pytest.raises(ValueError, match="stop"):
            cli._write_array(out, texts())
        assert "".join(out.writes) == json.dumps(list(range(10_000)))[:-1]
        assert len(out.writes) > 2

    def test_commands_write_in_batches(self, monkeypatch):
        # written one element at a time, the staircase's chain took 44,705
        # writes and rsk on a length-8000 word 16,003, each a system call on
        # an unbuffered stdout.  Each array is written by the size rule,
        # rsk's over one text per path
        w = random.Random(1).sample(range(1, 8001), 8000)
        runs_1000 = minimal_1000_runs()
        chain = knuth_chain_stdout_by_dumps(staircase(150))
        payload = json.loads(chain)
        moves = [json.dumps(move) for move in payload["moves"]]
        words = [json.dumps(word) for word in payload["words"]]
        rows = [json.dumps(row) for row in perm_to_tableau(runs_1000).rows]
        paths = [json.dumps(path) for path in rsk_trace(w)[2]]
        for argv, want, writes in [
                (["knuth-chain", "--perm", ",".join(map(str, staircase(150)))],
                 chain, 7 + array_writes(moves) + array_writes(words)),
                (["rsk", "--perm", ",".join(map(str, w))],
                 rsk_stdout_by_dumps(w), 4 + array_writes(paths)),
                (["bijection", "--perm", format_permutation(runs_1000)],
                 bijection_stdout_by_dumps(w=runs_1000), 4 + array_writes(rows))]:
            out = Writes()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(argv) == 0
            assert "".join(out.writes) == want
            assert len(out.writes) == writes, argv[0]
        # 11,175 moves and words, 8,000 paths and 509 rows
        assert (array_writes(moves), array_writes(words)) == (24, 745)
        assert array_writes(paths) == 205 and array_writes(rows) == 86


class TestVerify:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "5")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and all(c["passed"] for c in report["checks"])

    def test_rsk_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        assert code == 0 and json.loads(out)["passed"]

    def test_injected_fault_detected(self, capsys, monkeypatch):
        self.check_injected_fault(capsys, monkeypatch)

    def test_injected_fault_detected_in_two_shares(self, capsys, monkeypatch):
        # the forked child sees the patched module too: the off-by-one
        # count fails checks 0-4 of the counts suite, in both shares
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
        report = self.check_injected_fault(capsys, monkeypatch)
        assert [c["passed"] for c in report["checks"]] == [False] * 5 + [True] * 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def check_injected_fault(capsys, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_column_count", lambda n, d: _column_count(n, d) + 1)
            code, out, err = run(capsys, "verify", "--suite", "counts", "--max-n", "4")
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing and failing[0]["detail"]
        assert "FAIL" in err
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "4")
        assert code == 0 and json.loads(out)["passed"]
        return report

    def test_non_standard_image_fails_the_check(self, capsys, monkeypatch):
        # an image relabelled x -> n + 1 - x has decreasing rows; tableau_to_perm
        # refuses it with a ValueError, which the check reports (exit 1, not 2)
        def relabelled(w):
            t = perm_to_tableau(w)
            return SkewTableau(t.shape, tuple(tuple(x if x is None else len(w) + 1 - x
                                                    for x in row) for row in t.rows))

        monkeypatch.setattr(verify, "perm_to_tableau", relabelled)
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--max-n", "5")
        assert code == 1 and err.startswith("FAIL: bijection round trips")
        [check] = json.loads(out)["checks"]
        assert check["detail"] == "image of (2, 1) is not a standard 2-regular tableau"

    def test_image_of_wrong_shape_fails_the_check(self, capsys, monkeypatch):
        # a consistent pair of maps: the 5 words of runs (2, 3) fill the drawn
        # shape of the run (5,), one column, read back bottom-up unchecked.
        # Every forward round trip holds, but that shape now has 6 images
        column = shape_from_runs((5,)).conjugated()

        def to_tableau(w):
            if decreasing_run_lengths(w) != (2, 3):
                return perm_to_tableau(w)
            return SkewTableau(column, tuple((x,) for x in reversed(w)))

        def to_perm(t):
            return tuple(x for col in itertools.zip_longest(*t.rows)
                         for x in reversed(col) if x is not None)

        monkeypatch.setattr(verify, "perm_to_tableau", to_tableau)
        monkeypatch.setattr(verify, "tableau_to_perm", to_perm)
        code, out, _ = run(capsys, "verify", "--suite", "bijection", "--max-n", "5")
        assert code == 1
        [check] = json.loads(out)["checks"]
        assert check["detail"] == "cardinality mismatch for runs (5,): 1 tableaux vs 6 permutations"

    def test_inject_fault_flag_removed(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "counts", "--inject-fault")
        assert code == 2 and "--inject-fault" in err

    def test_large_max_n_runs_the_checks_of_11(self, capsys):
        # --max-n asks only for an int of at least 1: each check bounds its
        # own sweep, so 12 and a huge n run the checks of 11
        reports = {}
        for max_n in ("11", "12", "9" * 30):
            code, out, err = run(capsys, "verify", "--suite", "rsk", "--max-n", max_n)
            assert (code, err) == (0, ""), max_n
            reports[max_n] = json.loads(out)
            assert reports[max_n]["max_n"] == int(max_n)
        assert reports["12"]["checks"] == reports["11"]["checks"] == reports["9" * 30]["checks"]

    def test_max_n_below_one_rejected(self, capsys):
        for max_n in ("0", "-5"):
            code, out, err = run(capsys, "verify", "--max-n", max_n, "--suite", "counts")
            assert (code, out) == (2, "") and "max_n must be >= 1" in err

    def test_brute_force_details_follow_max_n(self):
        # the details of `verify --suite counts --max-n 3`
        assert check_catalan_law(3).detail == "determinants to n=16, brute force to n=2"
        assert check_odd_length_formula(3).detail == \
            "formula = determinant sum for m <= 12, brute force to length 3"
        assert check_odd_length_formula(8).detail.endswith("brute force to length 7")
        assert check_odd_length_formula(2).detail.endswith("no brute force at max_n=2")
        assert check_catalan_law(1).detail.endswith("no brute force at max_n=1")
        # below length 3 no double-descent class is enumerated
        assert check_double_descent_refinement(2).detail == \
            "sum identity, symmetry, hooks, and skew determinants; no enumeration at max_n=2"
        assert check_double_descent_refinement(3).detail == \
            "enumeration, sum identity, symmetry, hooks, and skew determinants"
        assert check_rsk_refinement(2).detail == "no class at max_n=2"
        assert check_rsk_refinement(1).detail == "no class at max_n=1"
        assert check_rsk_refinement(3).detail == \
            "all classes through length 3, with explicit inverses"
        # the bijection check maps words of length 2 and up
        assert check_bijection_round_trip(1).detail == \
            "no enumeration at max_n=1, plus the 16-cell example"
        assert check_bijection_round_trip(2).detail == \
            "both directions for n <= 2, plus the 16-cell example"

    def test_byte_identical_reports(self, capsys):
        first = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        second = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        assert first == second


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "10"),
        ("knuth-chain", "--perm", ",".join(map(str, staircase(150)))),
        ("rsk", "--perm", ",".join(map(str, random.Random(1).sample(range(1, 8001), 8000)))),
        ("bijection", "--perm", format_permutation(minimal_1000_runs())),
    ], ids=["enumerate", "knuth-chain", "rsk", "bijection"])
    def test_closed_pipe_is_quiet(self, argv):
        # the reader takes 10 bytes of a much longer output and closes the pipe
        with subprocess.Popen([*CHILD, *argv], env=CHILD_ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (cli.BROKEN_PIPE, b"")
        assert cli.BROKEN_PIPE == 141
