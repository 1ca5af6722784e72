"""Seeded fuzz of the `bijection` command, and of `enumerate` and
`count --method brute`, and seeded properties of the library entry points
that read outside data: parse_shape, tableau_from_json and
enumerate_minimal return, or refuse with ValueError, ArithmeticError or
CapExceededError, on any argument.

Each bijection argv is drawn from adversarial tokens with a fixed seed and
a fixed count: malformed, deeply nested and non-object JSON, cells that are
not ints (bools, floats, NaN, strings, huge ints), bad shapes,
non-permutations and non-minimal words, beside valid inputs.  main must
return 0, 2 or 3 and raise nothing; a refusal prints nothing to stdout and
one `error:` line to stderr, and an answer reports a round trip that holds.

The search commands have no cap on n: they refuse only on the size of the
completion-count tables, and enumerate on its exact line total.  Their argvs
draw n up to 40 and far past the table cap, with --d, --ascents and
--double-descent-at around their bounds, and each call must end within a
time budget, which shows that no input hangs.
"""

import contextlib
import io
import itertools
import json
import random
import signal
from collections import Counter

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import minperm.cli as cli
from minperm import (enumerate_minimal, minimal_count, minimal_count_by_runs,
                     perm_to_tableau, tableau_to_json)
from minperm.cli import main
from minperm.errors import CapExceededError
from minperm.permutations import _minimal_search
from minperm.tableaux import parse_shape, tableau_from_json

SEED = 20101029
CASES = 400
MINIMAL = [w for n in range(1, 8) for w in enumerate_minimal(n)]
DEPTHS = (5, 200, 900, 1200, 3000, 50_000)


def deep(rng):
    """JSON text nested to a drawn depth, as arrays or as objects."""
    depth = rng.choice(DEPTHS)
    if rng.random() < 0.5:
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


def cell(rng):
    return rng.choice([
        lambda: rng.randint(-2, 30), lambda: 10 ** 30, lambda: True, lambda: False,
        lambda: None, lambda: 1.5, lambda: 2.0, lambda: float("nan"),
        lambda: float("inf"), lambda: "3", lambda: [], lambda: {"x": 1}])()


def shape(rng, good):
    return rng.choice([good, good, "2,2", "3,2/1", "", "/", "∅", "2,3", "0", "-1,1",
                       "99999999999", "99999999999/1", "1e3", "x", "2,2/3", "2/1/1",
                       "2,2/1,1,1", None, 5, [2, 2], {"outer": [2]}, 1.5])


def rows(rng, good):
    """good's rows with one cell changed, two cells swapped, a row dropped,
    added or cut short, or something that is not a list of rows."""
    out = [list(row) for row in good]
    kind = rng.randrange(8)
    if kind == 0 and out:
        row = rng.choice(out)
        if row:
            row[rng.randrange(len(row))] = cell(rng)
    elif kind == 1:
        cells = [(i, j) for i, row in enumerate(out) for j in range(len(row))]
        if len(cells) > 1:
            (a, b), (c, d) = rng.sample(cells, 2)
            out[a][b], out[c][d] = out[c][d], out[a][b]
    elif kind == 2 and out:
        out.pop(rng.randrange(len(out)))
    elif kind == 3:
        out.append([cell(rng) for _ in range(rng.randrange(4))])
    elif kind == 4 and out:
        out[-1] = out[-1][:-1]
    elif kind == 5:
        return rng.choice(["1,2", 7, None, {"1": [1]}, [1, 2], [[None]], []])
    return out


def tableau_text(rng):
    w = rng.choice(MINIMAL)
    good = tableau_to_json(perm_to_tableau(w))
    kind = rng.randrange(10)
    if kind == 0:
        return deep(rng)
    if kind == 1:
        data = {"shape": good["shape"], "rows": good["rows"]}
        data[rng.choice(["shape", "rows"])] = "@DEEP@"
        return json.dumps(data).replace('"@DEEP@"', deep(rng))
    if kind == 2:
        return json.dumps(rng.choice([[1, 2], 3, "2,2", None, True, [], {}, 1e400]))
    if kind == 3:
        text = json.dumps(good)
        cut = rng.randrange(len(text) + 1)
        return rng.choice([text[:cut], text[:cut] + "," + text[cut:], text + ",",
                           text[:cut] + "\x00" + text[cut:], "", "{", "NaN"])
    if kind == 4:
        data = dict(good)
        del data[rng.choice(["shape", "rows"])]
        return json.dumps(data)
    if kind == 5:
        return json.dumps(good)
    return json.dumps({"shape": shape(rng, good["shape"]), "rows": rows(rng, good["rows"])})


def perm_text(rng):
    n = rng.randint(1, 9)
    kind = rng.randrange(9)
    if kind == 0:
        word = list(rng.choice(MINIMAL))
    elif kind == 1:
        word = rng.sample(range(1, n + 1), n)
    elif kind == 2:
        word = [rng.randint(1, n) for _ in range(n)]
    elif kind == 3:
        word = rng.sample(range(1, n + 2), n)
    elif kind == 4:
        word = [0, *range(1, n)] if rng.random() < 0.5 else [-1, *range(1, n)]
    elif kind == 5:
        word = [99_999_999_999, *range(1, n)]
    elif kind == 6:
        return rng.choice(["", " ", ",", "1.5", "nan", "True", "1,,2", "1 x 2", "٣,١,٢",
                           "9" * 5000, "1e3", "0x1", "2 1 4 3 ", " 3,1,2"])
    else:
        word = list(range(1, n + 1))
    return rng.choice([" ", ",", ", "]).join(map(str, word))


def argvs():
    rng = random.Random(SEED)
    for _ in range(CASES):
        if rng.random() < 0.4:
            yield ["bijection", f"--perm={perm_text(rng)}"]
        else:
            yield ["bijection", f"--tableau={tableau_text(rng)}"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bijection_fuzz():
    codes = Counter()
    for argv in argvs():
        code, out, err = run(argv)
        codes[code] += 1
        shown = [arg[:200] for arg in argv]
        assert code in (0, 2, 3), shown
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, shown
        else:
            assert json.loads(out)["round_trip"] == "ok" and err == "", shown
    # the draws reach both answers and refusals
    assert codes[0] >= CASES // 20 and codes[2] >= CASES // 2, codes


SEARCH_SEED = 1010_6261
SEARCH_CASES = 400
# the enumerate line cap while the search fuzz runs, so that an answer
# stays cheap to print
SEARCH_LINES = 2000
# seconds for one call; the slowest draw takes a few hundredths
BUDGET = 2.0
# each is past the table cap, whose rows of m + 2 entries or more refuse
# any n above 1412 unsized
HUGE = (1413, 5000, 99_999_999_999, 10 ** 30)


def parts(rng, total):
    """A few run lengths summing to total: small ones, and the rest in one."""
    small = [rng.choice((2, 2, 3, 4)) for _ in range(rng.randrange(6))]
    runs = [total - sum(small), *small]
    rng.shuffle(runs)
    return runs


def search_argv(rng):
    """An argv of enumerate or count --method brute, and the n, d, run
    lengths and double-descent position it asks for (None where unset)."""
    n = rng.randint(1, 40) if rng.random() < 0.85 else rng.choice((-1, 0, *HUGE))
    d = runs = j = None
    if rng.random() < 0.5:
        d = rng.choice((-1, 0, (n + 1) // 2 - 1, (n + 1) // 2, n - 2, n - 1, n, n + 1,
                        rng.randint(0, max(n, 0))))
    if rng.random() < (0.5 if d is None else 0.1):
        kind = rng.randrange(4)
        runs = (parts(rng, n) if kind < 2 else parts(rng, n + rng.choice((-1, 1))) if kind == 2
                else [n])
        if rng.random() < 0.2:
            runs[rng.randrange(len(runs))] = rng.choice((0, 1))
    command = rng.choice(("enumerate", "count"))
    if command == "enumerate" and rng.random() < 0.3:
        j = rng.choice((0, 1, n - 3, n - 2, n - 1, rng.randint(1, max(n, 1))))
    # option=value, so that argparse reads a leading minus as part of it
    argv = [command, f"--n={n}"]
    if command == "count":
        argv += ["--method=brute", f"--format={rng.choice(('csv', 'json'))}"]
    for option, value in (("--d", d), ("--double-descent-at", j)):
        if value is not None:
            argv.append(f"{option}={value}")
    if runs is not None:
        argv.append(f"--ascents={','.join(map(str, runs))}")
    return argv, n, d, runs, j


class Hang(Exception):
    """Raised by the timer when a call outruns BUDGET."""


def _hang(signum, frame):
    raise Hang


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_search_fuzz(monkeypatch):
    monkeypatch.setattr(cli, "MAX_ENUMERATE_LINES", SEARCH_LINES)
    rng = random.Random(SEARCH_SEED)
    codes = Counter()
    old = signal.signal(signal.SIGALRM, _hang)
    try:
        for _ in range(SEARCH_CASES):
            argv, n, d, runs, j = search_argv(rng)
            signal.setitimer(signal.ITIMER_REAL, BUDGET)
            try:
                code, out, err = run(argv)
            except Hang:
                pytest.fail(f"{argv} ran past {BUDGET} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            codes[code] += 1
            assert code in (0, 1, 2, 3), argv
            if code:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
                continue
            assert err == "", argv
            if argv[0] == "enumerate":
                assert out.count("\n") == _minimal_search(n, d, runs, j)[0], argv
                continue
            if "--format=json" in argv:
                rows = [(int(row["n"]), int(row["d"]), int(row["count"]))
                        for row in map(json.loads, out.splitlines())]
            else:
                rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
            if runs is not None:  # the table holds no word with a run below 2
                want = [(n, n - len(runs), minimal_count_by_runs(runs) if min(runs) > 1 else 0)]
            else:
                want = [(n, k, minimal_count(n, k))
                        for k in (range((n + 1) // 2, n) if d is None else (d,))]
            assert rows == want, argv
    finally:
        signal.signal(signal.SIGALRM, old)
    # the draws reach answers, usage errors and each cap
    assert min(codes[0], codes[2], codes[3]) >= SEARCH_CASES // 10, codes


# the library entry points that read outside data: each returns, or refuses
# with one of REFUSALS, on any argument
REFUSALS = (ValueError, ArithmeticError, CapExceededError)


class Deep:
    """Stands, in a drawn argument, for a list nested depth deep, past
    repr's recursion limit; built only in the test, since hypothesis itself
    prints what it draws."""

    def __init__(self, depth):
        self.depth = depth

    def __repr__(self):
        return f"Deep({self.depth})"


def built(value):
    """value with each Deep in its lists and dicts made a nested list."""
    if isinstance(value, Deep):
        nested = []
        for _ in range(value.depth):
            nested = [nested]
        return nested
    if isinstance(value, list):
        return [built(item) for item in value]
    if isinstance(value, dict):
        return {key: built(item) for key, item in value.items()}
    return value


SCALARS = st.one_of(
    st.integers(-3, 14), st.sampled_from((2 ** 64, 10 ** 30, -(10 ** 30), 99_999_999_999)),
    st.booleans(), st.none(), st.floats(allow_nan=True), st.text(max_size=6),
    st.binary(max_size=3), st.sampled_from((1000, 5000)).map(Deep))
# JSON-like values, nested a little
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(("shape", "rows", "x")), inner, max_size=3)),
    max_leaves=8)
# odd partitions: negative, zero, increasing or huge parts, bad tokens
PARTS = st.lists(st.one_of(st.integers(-2, 6), st.sampled_from(("99999999999", "x", "", "1.5"))),
                 max_size=4).map(lambda parts: ",".join(map(str, parts)))
SHAPE_TEXT = st.one_of(PARTS, st.tuples(PARTS, PARTS).map("/".join),
                       st.sampled_from(("∅", "/", "2/1/1", "2,1/∅", "9" * 5000)))
ROWS = st.lists(st.lists(st.one_of(st.none(), st.integers(1, 6), VALUES), max_size=3), max_size=3)
# a value, or the same scalars behind an iterator, which is read once
ARGUMENTS = st.one_of(VALUES, st.lists(SCALARS, max_size=4).map(lambda v: iter(built(v))))


def refuses_cleanly(call, *args):
    """call(*args) with each Deep built, which must return or raise one of
    REFUSALS."""
    try:
        call(*map(built, args))
    except REFUSALS:
        pass


@seed(41)
@settings(max_examples=120, deadline=None)
@given(text=st.one_of(SHAPE_TEXT, ARGUMENTS))
@example(text=Deep(5000))
def test_parse_shape_refuses_cleanly(text):
    refuses_cleanly(parse_shape, text)


@seed(42)
@settings(max_examples=120, deadline=None)
@given(data=st.one_of(
    ARGUMENTS, st.fixed_dictionaries({"shape": st.one_of(SHAPE_TEXT, VALUES),
                                      "rows": st.one_of(ROWS, ARGUMENTS)})))
@example(data={"shape": Deep(5000), "rows": []})
@example(data={"shape": "1", "rows": [[Deep(5000)]]})
def test_tableau_from_json_refuses_cleanly(data):
    refuses_cleanly(tableau_from_json, data)


SMALL = st.integers(-2, 16)


def first_words(*args):
    """The first words of enumerate_minimal(*args): the table is built on
    the call, and a few words also run the walk."""
    return list(itertools.islice(enumerate_minimal(*args), 20))


@seed(43)
@settings(max_examples=120, deadline=None)
@given(n=st.one_of(SMALL, ARGUMENTS), d=st.one_of(st.none(), SMALL, ARGUMENTS),
       runs=st.one_of(st.none(), st.lists(st.integers(-1, 6), max_size=5),
                      st.lists(st.integers(-1, 6), max_size=5).map(iter), ARGUMENTS),
       j=st.one_of(st.none(), SMALL, ARGUMENTS))
@example(n=5, d=None, runs=[Deep(5000)], j=None)
@example(n=Deep(5000), d=None, runs=None, j=None)
def test_enumerate_minimal_refuses_cleanly(n, d, runs, j):
    refuses_cleanly(first_words, n, d, runs, j)
