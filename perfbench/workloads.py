"""Seeded workloads: the CLI invocations each one runs, and how each
invocation's stdout is checked.

Every workload is built from the benchmark's seed alone; the program sees
only the generated arguments.  Seeded choices are drawn so that the amount
of work stays nearly the same from seed to seed (fixed part multisets,
shuffled; narrow ranges for positions), because run-to-run spread is what
the benchmark's bounds are judged against.

The long permutations and tableaux of the `maps` workload come from random
standard fillings made by `random_filling`: each step puts the next value
into a uniformly chosen addable cell.  Every filling is valid, but the
fillings are not uniformly distributed over all standard fillings of the
shape (an exact uniform sampler is a separate roadmap item).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from minperm import (catalan, decreasing_run_lengths, descent_count,
                     double_descent_count, format_permutation, format_shape,
                     is_minimal_by_deletion, mansour_yan, minimal_count,
                     minimal_count_by_runs, one_ascent_count, rsk_inverse,
                     shape_from_runs, skew_syt_count, two_ascent_count)

# Linux refuses any single argv string longer than 32 pages (MAX_ARG_STRLEN).
MAX_ARG_BYTES = 128 * 1024

Check = Callable[[str, int], "str | None"]


@dataclass(frozen=True)
class Invocation:
    label: str           # short name for reports; long arguments elided
    argv: tuple[str, ...]
    check: Check         # (stdout, exit code) -> None if correct, else why not


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, bool], list[Invocation]]


# ---------------------------------------------------------------- inputs

def random_filling(outer, inner, rng: random.Random) -> list[list]:
    """A random standard filling of the skew shape outer/inner (English
    convention), rows padded with None in the inner cells.  Valid, not
    uniform: each value goes into a uniformly chosen addable cell."""
    r = len(outer)
    inner = tuple(inner) + (0,) * (r - len(inner))
    nxt = list(inner)
    rows = [[None] * outer[i] for i in range(r)]

    def addable(i: int) -> bool:
        c = nxt[i]
        if c >= outer[i]:
            return False
        return not (i > 0 and inner[i - 1] <= c < outer[i - 1] and nxt[i - 1] <= c)

    avail = [i for i in range(r) if addable(i)]
    where = {i: k for k, i in enumerate(avail)}
    for value in range(1, sum(outer) - sum(inner) + 1):
        i = avail[rng.randrange(len(avail))]
        rows[i][nxt[i]] = value
        nxt[i] += 1
        for j in (i, i + 1):
            if j == r:
                continue
            ok = addable(j)
            if ok and j not in where:
                where[j] = len(avail)
                avail.append(j)
            elif not ok and j in where:
                k = where.pop(j)
                last = avail.pop()
                if last != j:
                    avail[k] = last
                    where[last] = k
    return rows


def column_reading(rows: list[list]) -> tuple[int, ...]:
    """Read each column from its lowest filled cell upward, columns left to
    right: the tableau-to-permutation direction of the bijection."""
    word = []
    for c in range(max(len(row) for row in rows)):
        column = [row[c] for row in rows if c < len(row) and row[c] is not None]
        word.extend(reversed(column))
    return tuple(word)


def shuffled_parts(rng: random.Random, counts: dict[int, int]) -> tuple[int, ...]:
    parts = [p for p, k in sorted(counts.items()) for _ in range(k)]
    rng.shuffle(parts)
    return tuple(parts)


def twos_and_threes(rng: random.Random, k: int) -> tuple[int, ...]:
    return shuffled_parts(rng, {2: k // 2, 3: k - k // 2})


def minimal_from_runs(rng: random.Random, runs: tuple[int, ...]) -> tuple[int, ...]:
    """A minimal permutation with the given decreasing runs, read off a
    random filling of the drawn 2-regular shape."""
    drawn = shape_from_runs(runs).conjugated()
    return column_reading(random_filling(drawn.outer, drawn.inner, rng))


def class_member(rng: random.Random, m: int, i: int) -> tuple[int, ...]:
    """A minimal permutation of length 2m+1 with m+1 descents whose double
    descent sits at positions (2i-1, 2i): a filling of (m, m, i)/(i-1)."""
    return column_reading(random_filling((m, m, i), (i - 1,), rng))


def _arg(text: str) -> str:
    if len(text.encode()) >= MAX_ARG_BYTES:
        raise ValueError(f"generated argument of {len(text)} bytes exceeds the "
                         f"{MAX_ARG_BYTES}-byte per-argument limit")
    return text


def _csv(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------- checks

def _expect_exit(code: int, want: int = 0) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def closed_form(n: int, d: int) -> int | None:
    """The closed form covering (n, d), if any; the command under test sums
    determinants instead."""
    if d >= 1 and n == d + 1:
        return 1
    if d >= 1 and n == 2 * d:
        return catalan(d)
    if d >= 2 and n == 2 * d - 1:
        return mansour_yan(d - 1)
    if n >= 4 and d == n - 2:
        return one_ascent_count(n)
    if n >= 5 and d == n - 3:
        return two_ascent_count(n)
    return None


def check_count_band(n: int) -> Check:
    band = list(range((n + 1) // 2, n))

    def check(out: str, code: int) -> str | None:
        lines = out.splitlines()
        if code or not lines or lines[0] != "n,d,count":
            return _expect_exit(code) or "missing CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if [(r[0], r[1]) for r in rows] != [(str(n), str(d)) for d in band]:
            return f"rows do not cover the band d={band[0]}..{band[-1]}"
        closed = 0
        for (_, d, value) in rows:
            want = closed_form(n, int(d))
            if not value.isdigit() or int(value) <= 0:
                return f"count {value!r} at d={d} is not a positive integer"
            if want is not None:
                closed += 1
                if int(value) != want:
                    return f"d={d}: count {value} differs from closed form {want}"
        return None if closed else "no row was checked against a closed form"
    return check


def check_count_runs(runs: tuple[int, ...]) -> Check:
    n = sum(runs)

    def check(out: str, code: int) -> str | None:
        want = f"n,d,count\n{n},{n - len(runs)},{skew_syt_count(shape_from_runs(runs))}\n"
        if code:
            return _expect_exit(code)
        return None if out == want else "count differs from the skew-tableau determinant"
    return check


def check_enumerate(n: int, d=None, runs=None, j=None) -> Check:
    if d is None and runs is None:
        expected = sum(minimal_count(n, k) for k in range(1, n))
    elif runs is not None:
        expected = minimal_count_by_runs(runs)
    elif j is not None:
        m = (n - 1) // 2
        expected = double_descent_count(m, (j + 1) // 2) if j % 2 else 0
    else:
        expected = minimal_count(n, d)
    everything = list(range(1, n + 1))

    def check(out: str, code: int) -> str | None:
        if code:
            return _expect_exit(code)
        lines = out.splitlines()
        if len(lines) != expected:
            return f"{len(lines)} lines, expected {expected}"
        previous = ()
        for line in lines:
            w = tuple(int(tok) for tok in line.replace(",", " ").split())
            if sorted(w) != everything:
                return f"{line!r} is not a permutation of 1..{n}"
            if w <= previous:
                return f"{line!r} is out of lexicographic order"
            previous = w
            if not is_minimal_by_deletion(w):
                return f"{line!r} fails the deletion oracle"
            if d is not None and descent_count(w) != d:
                return f"{line!r} does not have {d} descents"
            if runs is not None and decreasing_run_lengths(w) != runs:
                return f"{line!r} does not have decreasing runs {runs}"
            if j is not None and not w[j - 1] > w[j] > w[j + 1]:
                return f"{line!r} has no double descent at {j}"
        return None
    return check


def _load(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def check_verify(out: str, code: int) -> str | None:
    report = _load(out)
    if code or report is None:
        return _expect_exit(code) or "report is not JSON"
    if report.get("passed") is not True or not report.get("checks"):
        return "report does not say passed"
    failed = [c["name"] for c in report["checks"] if c.get("passed") is not True]
    return f"checks failed: {failed}" if failed else None


def check_rsk(perm: tuple[int, ...]) -> Check:
    def check(out: str, code: int) -> str | None:
        data = _load(out)
        if code or data is None:
            return _expect_exit(code) or "output is not JSON"
        p = tuple(map(tuple, data["P"]))
        q = tuple(map(tuple, data["Q"]))
        if data["shape"] != [len(row) for row in p] or len(data["paths"]) != len(perm):
            return "shape or path count is inconsistent"
        return None if rsk_inverse(p, q) == perm else "rsk_inverse(P, Q) differs from the input"
    return check


def check_knuth_chain(perm: tuple[int, ...], i: int) -> Check:
    n = (len(perm) - 1) // 2
    target = format_permutation(perm[:2 * i] + perm[2 * i + 1:2 * n:2] + perm[2 * i::2])

    def check(out: str, code: int) -> str | None:
        data = _load(out)
        if code or data is None:
            return _expect_exit(code) or "output is not JSON"
        if data["target"] != target or data["final"] != target:
            return "chain does not end at the even/odd split form"
        if len(data["words"]) != len(data["moves"]) or not data["insertion_tableau_unchanged"]:
            return "moves and words disagree or the insertion tableau changed"
        return None
    return check


def check_bijection(perm: tuple[int, ...]) -> Check:
    def check(out: str, code: int) -> str | None:
        data = _load(out)
        if code or data is None:
            return _expect_exit(code) or "output is not JSON"
        if data["round_trip"] != "ok" or data["perm"] != format_permutation(perm):
            return "round trip failed or permutation differs"
        if column_reading(data["tableau"]["rows"]) != perm:
            return "tableau columns do not read back to the permutation"
        return None
    return check


# ---------------------------------------------------------------- workloads

def build_count(rng: random.Random, tiny: bool) -> list[Invocation]:
    n, parts = (9, 4) if tiny else (22, 40)
    invs = [Invocation(f"count --n {n}", ("count", "--n", str(n)), check_count_band(n))]
    # few fours and many fours: two Bareiss sizes with the same part count
    for fours in (parts // 4, 3 * parts // 4):
        runs = shuffled_parts(rng, {3: parts - fours, 4: fours})
        invs.append(Invocation(
            f"count --ascents <{parts} parts, {fours} fours>",
            ("count", "--n", str(sum(runs)), "--ascents", _arg(_csv(runs))),
            check_count_runs(runs)))
    return invs


def build_enumerate(rng: random.Random, tiny: bool) -> list[Invocation]:
    small, n = (6, 7) if tiny else (10, 11)
    m = (n - 1) // 2
    d = m + 1
    extra = n - 2 * (n - d)
    runs = shuffled_parts(rng, {2: n - d - extra, 3: extra})
    j = 2 * rng.randint(1, m) - 1
    return [
        Invocation(f"enumerate --n {small}", ("enumerate", "--n", str(small)),
                   check_enumerate(small)),
        Invocation(f"enumerate --n {n} --d {d}", ("enumerate", "--n", str(n), "--d", str(d)),
                   check_enumerate(n, d=d)),
        Invocation(f"enumerate --n {n} --ascents {_csv(runs)}",
                   ("enumerate", "--n", str(n), "--ascents", _csv(runs)),
                   check_enumerate(n, runs=runs)),
        Invocation(f"enumerate --n {n} --d {d} --double-descent-at {j}",
                   ("enumerate", "--n", str(n), "--d", str(d), "--double-descent-at", str(j)),
                   check_enumerate(n, d=d, j=j)),
    ]


def build_verify(rng: random.Random, tiny: bool) -> list[Invocation]:
    argv = ("verify", "--suite", "rsk", "--max-n", "5") if tiny else (
        "verify", "--suite", "all", "--max-n", "9")
    return [Invocation(" ".join(argv), argv, check_verify)]


def build_maps(rng: random.Random, tiny: bool) -> list[Invocation]:
    length, m, runs_perm, runs_tableau = (60, 10, 20, 10) if tiny else (8000, 150, 1000, 200)
    word = list(range(1, length + 1))
    rng.shuffle(word)
    word = tuple(word)
    i = rng.randint(1, 4)
    member = class_member(rng, m, i)
    long_minimal = minimal_from_runs(rng, twos_and_threes(rng, runs_perm))
    drawn = shape_from_runs(twos_and_threes(rng, runs_tableau)).conjugated()
    rows = random_filling(drawn.outer, drawn.inner, rng)
    tableau = json.dumps({"shape": format_shape(drawn), "rows": rows})
    return [
        Invocation(f"rsk --perm <random, length {length}>",
                   ("rsk", "--perm", _arg(_csv(word))), check_rsk(word)),
        Invocation(f"knuth-chain --perm <class member, length {2 * m + 1}, i={i}>",
                   ("knuth-chain", "--perm", _arg(_csv(member))), check_knuth_chain(member, i)),
        Invocation(f"bijection --perm <minimal, {runs_perm} runs>",
                   ("bijection", "--perm", _arg(_csv(long_minimal))), check_bijection(long_minimal)),
        Invocation(f"bijection --tableau <{runs_tableau} columns>",
                   ("bijection", "--tableau", _arg(tableau)), check_bijection(column_reading(rows))),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("count", "counting and det_rational do the work: 10,946 small banded "
             "determinants beside two 40x40 Bareiss determinants", build_count),
    Workload("enumerate", "the prefix-tree search and the structural predicate; "
             "constrained runs walk the whole tree and filter", build_enumerate),
    Workload("verify", "the same layers used differently: predicates over all of S_9, "
             "backtracking fillings, small bijection and RSK checks", build_verify),
    Workload("maps", "RSK, Knuth chains and the bijection at lengths in the thousands, "
             "where per-element costs show", build_maps),
)}
