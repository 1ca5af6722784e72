"""run_suite deals its checks into shares, runs every share after the first
in a forked child, and must give the report, and the errors, of a serial
run at any share count, with no child left behind.  Each check must fail
when the route it checks is broken."""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import minperm.verify as verify
from minperm.bijection import perm_to_tableau, tableau_to_perm
from minperm.cli import main
from minperm.counting import _column_count, double_descent_count
from minperm.rsk import (apply_knuth_move, insertion_tableau, knuth_chain,
                         row_insert, syt_to_minimal)
from minperm.tableaux import count_standard_fillings, hook_count, shape_from_runs, skew_syt_count
from minperm.verify import (Check, check_bijection_round_trip, check_catalan_law,
                            check_determinant_vs_enumeration,
                            check_double_descent_refinement,
                            check_insertion_paths, check_odd_length_formula,
                            check_one_ascent_closed_form, check_rsk_refinement,
                            check_three_way_counts, check_two_ascent_closed_form,
                            check_worked_chain, run_suite)

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def shares(monkeypatch):
    """Sets the CPU count run_suite sees, which caps its share count, so
    that a test runs the same on any machine; afterwards this process
    must have no child, running or zombie."""
    yield lambda k: monkeypatch.setattr(verify, "_usable_cpus", lambda: k)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_checks(monkeypatch, *functions):
    """Make the counts suite run exactly these checks."""
    monkeypatch.setitem(verify.SUITES, "counts", functions)


def pid_check(max_n):
    return Check("pid", True, str(os.getpid()))


def in_child(action):
    """A check that does action() in a forked child and, run in this
    process, fails instead."""
    parent = os.getpid()

    def check(max_n):
        if os.getpid() == parent:
            return Check("ran in the calling process", False, "")
        return action()

    return check


def fail(message):
    def action():
        raise ValueError(message)
    return action


@pytest.mark.parametrize("k", [1, 2, 11])
def test_report_is_byte_identical(capsys, shares, k):
    shares(k)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "9")
    assert code == 0
    assert out == (GOLDEN / "verify_all_9.txt").read_text()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_one_cpu_runs_one_share():
    # in a child pinned to one CPU (preexec_fn acts on the child only), the
    # real _usable_cpus gives one share: verify runs its checks serially, in
    # one process, and must print the report of the checks spread over CPUs
    cpu = min(os.sched_getaffinity(0))
    code = ("from minperm.verify import _usable_cpus; from minperm.cli import main; "
            "print(_usable_cpus()); raise SystemExit(main(['verify', '--suite', 'all', '--max-n', '9']))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
                         stdout=subprocess.PIPE, check=True, timeout=60).stdout
    assert out == b"1\n" + (GOLDEN / "verify_all_9.txt").read_bytes()


def test_checks_are_dealt_round_robin(shares, monkeypatch):
    shares(3)
    with_checks(monkeypatch, *[pid_check] * 7)
    pids = [int(c["detail"]) for c in run_suite("counts")["checks"]]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3


@pytest.mark.parametrize("case", ["one CPU", "no fork", "a second thread"])
def test_serial_cases(shares, monkeypatch, case):
    shares(1 if case == "one CPU" else 2)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    with_checks(monkeypatch, pid_check, pid_check)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, daemon=True)
    if case == "a second thread":
        thread.start()
    try:
        pids = {c["detail"] for c in run_suite("counts")["checks"]}
    finally:
        done.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()  # a live thread would make the next test serial
    assert pids == {str(os.getpid())}


def test_child_exception_is_raised_here(capsys, shares, monkeypatch):
    shares(2)
    with_checks(monkeypatch, pid_check, in_child(fail("raised in share 1")))
    with pytest.raises(ValueError) as info:
        run_suite("counts", 4)
    assert type(info.value) is ValueError and str(info.value) == "raised in share 1"
    code, out, err = run(capsys, "verify", "--suite", "counts", "--max-n", "4")
    assert (code, out, err) == (2, "", "error: raised in share 1\n")


@pytest.mark.parametrize("k", [1, 2])
def test_first_exception_in_suite_order_wins(shares, monkeypatch, k):
    # check 1 (share 1 of 2) raises before check 2 (share 0) in suite order
    shares(k)

    def raising(message):
        def check(max_n):
            raise ValueError(message)
        return check

    with_checks(monkeypatch, pid_check, raising("check 1"), raising("check 2"))
    with pytest.raises(ValueError, match="^check 1$"):
        run_suite("counts", 4)


def test_child_that_dies_raises(shares, monkeypatch):
    shares(2)
    with_checks(monkeypatch, pid_check, in_child(lambda: os._exit(1)))
    with pytest.raises(RuntimeError, match="exited with status 1 before reporting"):
        run_suite("counts", 4)


def test_interrupt_kills_the_children(shares, monkeypatch):
    # an interrupt in the calling process's share does not wait for a child
    shares(2)

    def interrupted(max_n):
        raise KeyboardInterrupt

    with_checks(monkeypatch, interrupted, in_child(lambda: time.sleep(60)))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite("counts", 4)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("max_n", [2.0, True, "2", None])
def test_non_int_max_n_rejected(max_n):
    # 2.0 once raised TypeError from deep inside a check
    with pytest.raises(ValueError, match="^max_n must be an integer, got "):
        run_suite("rsk", max_n)


@pytest.mark.parametrize("suite", [["all"], {"a": 1}, 5, "All"], ids=repr)
def test_unknown_suite_rejected(suite):
    # a list or a dict raised TypeError (unhashable type) from `suite in SUITES`
    message = f"unknown suite {suite!r}; choose all, counts, bijection, rsk"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(suite)


def test_transpose_mismatch_fails(monkeypatch):
    # a shape with more rows than columns counts one more than its conjugate
    monkeypatch.setattr(verify, "skew_syt_count",
                        lambda shape: skew_syt_count(shape) + (len(shape.outer) > shape.outer[0]))
    check = check_determinant_vs_enumeration(4)
    assert not check.passed and check.detail.startswith("transpose mismatch"), check


@pytest.mark.parametrize("check", [check_catalan_law, check_one_ascent_closed_form,
                                   check_two_ascent_closed_form, check_odd_length_formula])
def test_closed_form_checks_read_the_column_program(monkeypatch, check):
    # minimal_count returns the closed form itself, so a check that read it
    # would pass here
    monkeypatch.setattr(verify, "_column_count", lambda n, d: _column_count(n, d) + 1)
    result = check(4)
    assert not result.passed, result
    assert result.detail.startswith("closed form and determinant sum differ"), result


def assert_fails(check, detail):
    assert (check.passed, check.detail) == (False, detail), check


def test_short_profile_fails(monkeypatch):
    # one more filling than the runs (2, 2) have words
    drawn = shape_from_runs((2, 2)).conjugated()
    monkeypatch.setattr(verify, "count_standard_fillings",
                        lambda shape: count_standard_fillings(shape) + (shape == drawn))
    assert_fails(check_bijection_round_trip(4),
                 "cardinality mismatch for runs (2, 2): 3 tableaux vs 2 permutations")


def test_misread_image_fails(monkeypatch):
    image = perm_to_tableau((2, 1))
    monkeypatch.setattr(verify, "tableau_to_perm",
                        lambda t: (1, 2) if t == image else tableau_to_perm(t))
    assert_fails(check_bijection_round_trip(4), "round trip failed for (2, 1)")


def test_inverse_to_another_member_fails(monkeypatch):
    # (3, 2, 1, 5, 4) and (4, 2, 1, 5, 3) are both in the class (m=2, i=1)
    def inverse(p, i):
        w = syt_to_minimal(p, i)
        return (4, 2, 1, 5, 3) if w == (3, 2, 1, 5, 4) else w

    monkeypatch.setattr(verify, "syt_to_minimal", inverse)
    assert_fails(check_rsk_refinement(5), "inverse reconstruction of (3, 2, 1, 5, 4) "
                                          "in class (m=2, i=1) gives (4, 2, 1, 5, 3)")


def test_tableau_changed_along_a_chain_fails(monkeypatch):
    w = (3, 2, 1, 5, 4)
    [move] = knuth_chain(w)
    moved = apply_knuth_move(w, move)
    monkeypatch.setattr(verify, "insertion_tableau", lambda word: (
        ((0,),) if word == moved else insertion_tableau(word)))
    assert_fails(check_rsk_refinement(5),
                 "insertion tableau changed along the chain of (3, 2, 1, 5, 4)")


def test_missing_three_row_tableau_fails(monkeypatch):
    # one more tableau of shape (2, 2, 1) than the class (m=2, i=1) has members
    monkeypatch.setattr(verify, "hook_count", lambda parts: (
        hook_count(parts) + (tuple(parts) == (2, 2, 1))))
    assert_fails(check_rsk_refinement(5), "image of class (m=2, i=1) is not the full "
                                          "union of three-row tableaux")


def paths_of(fake_path):
    """row_insert with the tableau it makes, but the path fake_path(p, x, path)."""
    def insert(p, x):
        q, path = row_insert(p, x)
        return q, fake_path(p, x, path)
    return insert


# one failure branch of each check per case, reached by one name of
# minperm.verify patched: (check, max_n, name, stand-in, expected detail);
# max_n is the least that reaches the branch
FAILURE_BRANCHES = [
    pytest.param(check_three_way_counts, 2, "is_minimal_by_deletion", lambda w: False,
                 "oracles disagree at (2, 1)", id="oracles"),
    pytest.param(check_catalan_law, 2, "enumerate_minimal", lambda *args, **kwargs: iter(()),
                 "brute count at (n=2, d=1) is 0, expected 1", id="closed-form brute"),
    pytest.param(check_double_descent_refinement, 3, "enumerate_minimal",
                 lambda *args, **kwargs: iter(()),
                 "enumeration at (m=1, i=1) gives 0, expected 1", id="double-descent class"),
    pytest.param(check_double_descent_refinement, 1, "three_row_syt_count", lambda m, k: 0,
                 "tableau-count sum differs at (m=1, i=1)", id="three-row sum"),
    # the upper half of each refinement one too large
    pytest.param(check_double_descent_refinement, 1, "double_descent_count",
                 lambda m, i: double_descent_count(m, i) + (2 * i > m + 1),
                 "symmetry fails at (m=2, i=1)", id="symmetry"),
    pytest.param(check_double_descent_refinement, 1, "mansour_yan", lambda m: 0,
                 "refinement does not sum to the total at m=1", id="refinement total"),
    pytest.param(check_double_descent_refinement, 1, "hook_count", lambda shape: 0,
                 "three-row formula differs from hooks at (m=1, k=1)", id="three-row hooks"),
    pytest.param(check_double_descent_refinement, 1, "skew_syt_count", lambda shape: 0,
                 "skew determinant differs at (m=1, i=1)", id="double-descent determinant"),
    pytest.param(check_determinant_vs_enumeration, 1, "minimal_count_by_runs", lambda runs: 0,
                 "runs (2,): determinant=0 path count=1", id="profile determinant"),
    # a shape and its conjugate agree, and both differ from the path count
    pytest.param(check_determinant_vs_enumeration, 1, "skew_syt_count", lambda shape: 0,
                 "random shape 4/1: determinant 0 differs from the path count",
                 id="random shape"),
    pytest.param(check_determinant_vs_enumeration, 1, "hook_count", lambda shape: 0,
                 "hooks and determinant differ on (15,)", id="hooks"),
    pytest.param(check_bijection_round_trip, 1, "WORKED_TABLEAU_16_ROWS", (),
                 "16-cell worked example does not reproduce the known tableau",
                 id="worked tableau"),
    pytest.param(check_bijection_round_trip, 1, "tableau_to_perm", lambda t: (),
                 "16-cell worked example does not invert", id="worked inverse"),
    pytest.param(check_rsk_refinement, 3, "even_odd_split", lambda w: (),
                 "chain of (3, 2, 1) ends at (3, 2, 1), not the split form", id="chain end"),
    pytest.param(check_rsk_refinement, 3, "insertion_tableau", lambda w: (),
                 "the first 2 letters of the split form of (3, 2, 1) insert to shape (), "
                 "not (1, 1)", id="split prefix"),
    pytest.param(check_insertion_paths, 1, "row_insert",
                 paths_of(lambda p, x, path: tuple((r + 1, c) for r, c in path)),
                 "path ((2, 1),) skips rows", id="rows skipped"),
    pytest.param(check_insertion_paths, 1, "row_insert",
                 paths_of(lambda p, x, path: (*path, (len(path) + 1, path[-1][1] + 1))),
                 "path ((1, 1), (2, 2)) moves right going down", id="path moves right"),
    # one cell down column 1 for each entry of p below x
    pytest.param(check_insertion_paths, 1, "row_insert",
                 paths_of(lambda p, x, path: tuple(
                     (r, 1) for r in range(1, 2 + sum(y < x for row in p for y in row)))),
                 "second path longer: ((1, 1),) then ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1))",
                 id="second path longer"),
    pytest.param(check_insertion_paths, 1, "row_insert", paths_of(lambda p, x, path: ((1, 1),)),
                 "paths not strictly separated: ((1, 1),) then ((1, 1),)", id="paths meet"),
    pytest.param(check_worked_chain, 1, "apply_knuth_move", lambda word, move: word,
                 "chain ends at (6, 3, 7, 4, 1, 5, 2, 9, 8, 11, 10, 13, 12)",
                 id="worked chain end"),
    pytest.param(check_worked_chain, 1, "even_odd_split", lambda w: (),
                 "split form differs from the known terminal word", id="worked split"),
    pytest.param(check_worked_chain, 1, "insertion_tableau", lambda w: w,
                 "insertion tableau is not preserved", id="worked tableau kept"),
]


@pytest.mark.parametrize("check, max_n, name, stand_in, detail", FAILURE_BRANCHES)
def test_failure_branch(monkeypatch, check, max_n, name, stand_in, detail):
    monkeypatch.setattr(verify, name, stand_in)
    assert_fails(check(max_n), detail)
