"""run_suite deals its checks into shares, runs every share after the first
in a forked child, and must give the report, and the errors, of a serial
run at any share count, with no child left behind."""

import os
import threading
import time
from pathlib import Path

import pytest

import minperm.verify as verify
from minperm.cli import main
from minperm.verify import Check, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


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
