import json
import math

from minperm import catalan, one_ascent_count, two_ascent_count
from minperm.cli import MAX_ASCENT_CELLS, MAX_ASCENT_PARTS, MAX_DET_N, main
from minperm.verify import (WORKED_PERM_13, WORKED_SPLIT_13, check_catalan_law,
                            check_odd_length_formula)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MINPERM_MAX_BRUTE_N", "6")
        assert run(capsys, "count", "--n", "7", "--method", "brute")[0] == 3
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


class TestVerify:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "5")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and all(c["passed"] for c in report["checks"])

    def test_rsk_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        assert code == 0 and json.loads(out)["passed"]

    def test_injected_fault_detected(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "counts", "--max-n", "4",
                             "--inject-fault")
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing and failing[0]["detail"]
        assert "FAIL" in err

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

    def test_byte_identical_reports(self, capsys):
        first = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        second = run(capsys, "verify", "--suite", "rsk", "--max-n", "5")
        assert first == second
