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
from minperm.counting import _column_count
from minperm.rsk import (apply_knuth_move, insertion_tableau, knuth_chain,
                         syt_to_minimal)
from minperm.tableaux import (SkewShape, count_standard_fillings, shape_from_runs,
                              skew_standard_tableaux, skew_syt_count)
from minperm.verify import (Check, check_bijection_round_trip, check_catalan_law,
                            check_determinant_vs_enumeration,
                            check_odd_length_formula,
                            check_one_ascent_closed_form, check_rsk_refinement,
                            check_two_ascent_closed_form, run_suite)

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
    dropped = SkewShape((2, 2, 1))
    monkeypatch.setattr(verify, "skew_standard_tableaux", lambda shape: (
        list(skew_standard_tableaux(shape))[shape == dropped:]))
    assert_fails(check_rsk_refinement(5), "image of class (m=2, i=1) is not the full "
                                          "union of three-row tableaux")
