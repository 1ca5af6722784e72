import contextlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_bijection import random_filling

import minperm.verify as verify
from minperm import (SkewShape, SkewTableau, catalan, decreasing_run_lengths,
                     even_odd_split, format_permutation, insertion_tableau, knuth_chain,
                     minimal_count, one_ascent_count, perm_to_tableau, rsk_trace,
                     shape_from_runs, tableau_to_perm, two_ascent_count)
import minperm.cli as cli
from minperm.cli import (MAX_ASCENT_CELLS, MAX_ASCENT_PARTS, MAX_CLOSED_N, MAX_DET_N,
                         _closed_form, main)
from minperm.permutations import _separator
from minperm.rsk import _knuth_swap
from minperm.verify import (WORKED_PERM_13, WORKED_SPLIT_13, check_catalan_law,
                            check_double_descent_refinement,
                            check_odd_length_formula, check_rsk_refinement)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def knuth_chain_stdout_by_dumps(w):
    """Oracle for `knuth-chain`: every word joined and held first, and the
    whole object printed through one json.dumps."""
    moves = knuth_chain(w)
    word, tokens, words = list(w), list(map(str, w)), []
    sep = _separator(len(w))
    for move in moves:
        j = _knuth_swap(word, move)
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

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "count", "--n", "12", "--method", "brute")
        assert code == 3 and "cap" in err

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
        brute = (f"error: enumeration over S_{n} exceeds the brute-force cap 11; "
                 "raise it via --max-brute-n\n")
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
        # at a limit of 640 digits the band at n = 1400 prints its first rows,
        # Catalan(700) of 420 digits among them, but not 3^1400 at d = 1397;
        # every row is formatted before the first write
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for argv in (("--n", "1400"), ("--n", "1400", "--format", "json"),
                         ("--n", "1400", "--d", "1397")):
                code, out, err = run(capsys, "count", *argv, "--method", "closed")
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: Exceeds the limit (640 digits)")
                assert err.count("\n") == 1
        finally:
            sys.set_int_max_str_digits(old)

    def test_ascents_caps(self, capsys):
        # MAX_ASCENT_PARTS parts of 2 give the straight two-column shape
        parts = MAX_ASCENT_PARTS
        code, out, _ = run(capsys, "count", "--n", str(2 * parts),
                           "--ascents", ",".join(["2"] * parts))
        assert (code, out) == (0, f"n,d,count\n{2 * parts},{parts},{catalan(parts)}\n")
        half = MAX_ASCENT_CELLS // 2
        code, out, _ = run(capsys, "count", "--n", str(2 * half), "--ascents", f"{half},{half}")
        assert (code, out) == (0, f"n,d,count\n{2 * half},{2 * half - 2},"
                                  f"{math.comb(2 * half, half) - 2 * half}\n")
        for runs in ((2,) * (parts + 1), (half, half + 1)):
            code, out, err = run(capsys, "count", "--n", str(sum(runs)),
                                 "--ascents", ",".join(map(str, runs)))
            assert (code, out) == (3, "") and "above the cap" in err

    def test_brute_cap_names_flag(self, capsys):
        # the CLI user raises the cap with --max-brute-n, not the library's max_n
        for argv in (("enumerate", "--n", "12"), ("count", "--n", "12", "--method", "brute")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err == ("error: enumeration over S_12 exceeds the brute-force cap 11; "
                           "raise it via --max-brute-n\n")
        code, out, err = run(capsys, "enumerate", "--n", "8", "--max-brute-n", "7")
        assert (code, out) == (3, "") and "cap 7; raise it via --max-brute-n" in err

    def test_cap_env_override(self, capsys, monkeypatch):
        # only --max-brute-n sets the cap; a stray variable changes nothing
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "5")
        assert run(capsys, "count", "--n", "7", "--method", "brute")[0] == 0
        assert run(capsys, "count", "--n", "8", "--method", "brute",
                   "--max-brute-n", "7")[0] == 3
        assert run(capsys, "count", "--n", "7", "--method", "brute",
                   "--max-brute-n", "7")[0] == 0


class TestEnumerate:
    def test_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--d", "2")
        assert code == 0
        assert out.splitlines() == ["2 1 4 3", "3 1 4 2"]

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


class TestRsk:
    def test_shape_reported(self, capsys):
        code, out, _ = run(capsys, "rsk", "--perm", "3 2 1 5 4")
        assert code == 0
        payload = json.loads(out)
        assert payload["shape"] == [2, 2, 1]
        assert payload["P"] == [[1, 4], [2, 5], [3]]
        assert payload["paths"][0] == [[1, 1]]

    def test_stdout_matches_dumps(self, capsys):
        rng = random.Random(8000)
        words = [(1,), tuple(range(1, 41)), tuple(range(40, 0, -1))]
        words += [tuple(rng.sample(range(1, n + 1), n)) for n in (10, 11, 97, 300, 2000)]
        for w in words:
            code, out, _ = run(capsys, "rsk", "--perm", format_permutation(w))
            assert code == 0
            assert out == rsk_stdout_by_dumps(w), w

    def test_traced_memory(self):
        # the paths of a length-8000 word took 29 MB when held as tuples and
        # printed through one json.dumps; kept as text, the run peaks near 5 MB
        w = random.Random(1).sample(range(1, 8001), 8000)
        code, peak = traced_peak(["rsk", "--perm", ",".join(map(str, w))])
        assert code == 0 and peak < 8 * 2**20, peak

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

    def test_staircase_member(self, capsys):
        # 3,2,1,5,4,...,301,300 is the class (150, 1): 149 * 150 / 2 moves
        code, out, _ = run(capsys, "knuth-chain", "--perm", ",".join(map(str, staircase(150))))
        payload = json.loads(out)
        assert code == 0 and len(payload["moves"]) == len(payload["words"]) == 11175
        assert payload["insertion_tableau_unchanged"] is True
        assert payload["final"] == payload["target"] == payload["words"][-1]

    def test_output_cap(self, capsys, monkeypatch):
        # the class (1000, 1) at length 2001 is refused before any move is made
        code, out, err = run(capsys, "knuth-chain", "--perm", ",".join(map(str, staircase(1000))))
        assert (code, out) == (3, "")
        assert "length 2001 with i=1 would print 499500 words of 8897 characters" in err
        # 3 2 1 5 4 7 6 passes through 3 words of 13 characters each
        monkeypatch.setattr(cli, "MAX_CHAIN_CHARS", 39)
        assert run(capsys, "knuth-chain", "--perm", "3 2 1 5 4 7 6")[0] == 0
        monkeypatch.setattr(cli, "MAX_CHAIN_CHARS", 38)
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
        for w in perms:
            code, out, _ = run(capsys, "knuth-chain", "--perm", format_permutation(w))
            assert code == 0
            assert out == knuth_chain_stdout_by_dumps(w), w
        assert '"moves": [], "words": []' in knuth_chain_stdout_by_dumps((3, 2, 1))

    def test_traced_memory(self):
        # the staircase's 11,175 words took 40 MB when held and printed
        # through one json.dumps; written one at a time, they take one word
        code, peak = traced_peak(["knuth-chain", "--perm", ",".join(map(str, staircase(150)))])
        assert code == 0 and peak < 8 * 2**20, peak

    @pytest.mark.parametrize("case", sorted(REFUSED_PERMS))
    def test_refusal_prints_nothing(self, capsys, case):
        perm, want = REFUSED_PERMS[case]
        code, out, err = run(capsys, "knuth-chain", "--perm", perm)
        assert (code, out) == (want, "")
        assert err.startswith("error: ") and err.count("\n") == 1


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
            patch.setattr(verify, "minimal_count", lambda n, d: minimal_count(n, d) + 1)
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

    def test_cap_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "12")
        assert code == 3 and "cap" in err

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

    def test_byte_identical_reports(self, capsys):
        first = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        second = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        assert first == second


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "10"),
        ("knuth-chain", "--perm", ",".join(map(str, staircase(150)))),
    ], ids=["enumerate", "knuth-chain"])
    def test_closed_pipe_is_quiet(self, argv):
        # the reader takes 10 bytes of a much longer output and closes the pipe
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen([sys.executable, "-m", "minperm", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (cli.BROKEN_PIPE, b"")
        assert cli.BROKEN_PIPE == 141
