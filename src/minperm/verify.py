"""Cross-verification suites.

Every counting formula is checked against an independent route: brute-force
search over S_n, a path count of tableau fillings, or a second formula.
The CLI `verify` subcommand and the acceptance tests both run these checks;
each takes only max_n, the longest permutations its exhaustive sweep may
enumerate, stops that sweep at a bound of its own (9 or 10), and returns a
Check.  All randomized parts use the fixed seeds below so reports are
byte-identical across runs.

run_suite deals its checks round-robin into one share per usable CPU (at
most one per check).  The first share runs in the calling process and each
other share in a forked child, which sends its results back through a
pipe; the report lists them in suite order, so it is byte for byte the
serial one.  The checks run serially, in the calling process, where
os.fork does not exist, where one CPU is usable, and where the calling
process runs more than one thread.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import signal
import threading
from collections import Counter
from typing import NamedTuple, NoReturn

from .bijection import perm_to_tableau, tableau_to_perm
from .counting import (_column_count, catalan, compositions_min2,
                       double_descent_count, mansour_yan, minimal_count_by_runs,
                       one_ascent_count, three_row_syt_count, two_ascent_count)
from .errors import _check_int, _shown
from .permutations import (descent_count, enumerate_minimal, is_minimal,
                           is_minimal_by_deletion)
from .rsk import (apply_knuth_move, even_odd_split, insertion_tableau,
                  knuth_chain, minimal_to_syt, row_insert, syt_to_minimal)
from .tableaux import (SkewShape, count_standard_fillings, format_shape,
                       hook_count, shape_from_runs, skew_syt_count)

DETERMINANT_SEED = 1729
INSERTION_SEED, INSERTION_CASES = 97, 1000

WORKED_PERM_13 = (6, 3, 7, 4, 1, 5, 2, 9, 8, 11, 10, 13, 12)
WORKED_SPLIT_13 = (6, 3, 7, 4, 5, 9, 11, 13, 1, 2, 8, 10, 12)

WORKED_PERM_16 = (16, 13, 4, 1, 7, 3, 14, 12, 9, 5, 2, 11, 10, 6, 15, 8)
WORKED_TABLEAU_16_SHAPE = "5,5,4,3,3,3,1,1/3,2,2,2"
WORKED_TABLEAU_16_ROWS = (
    (None, None, None, 6, 8),
    (None, None, 2, 10, 15),
    (None, None, 5, 11),
    (None, None, 9),
    (1, 3, 12),
    (4, 7, 14),
    (13,),
    (16,),
)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _ok(name: str, detail: str = "") -> Check:
    return Check(name, True, detail)


def _fail(name: str, detail: str) -> Check:
    return Check(name, False, detail)


def check_three_way_counts(max_n: int) -> Check:
    """Structural filter, deletion oracle, and column-program count agree;
    the two oracles are compared on every single permutation."""
    name = "three-way count agreement"
    top = min(max_n, 9)
    for n in range(1, top + 1):
        tally: Counter = Counter()
        for w in itertools.permutations(range(1, n + 1)):
            structural = is_minimal(w)
            if structural != is_minimal_by_deletion(w):
                return _fail(name, f"oracles disagree at {w}")
            if structural:
                tally[descent_count(w)] += 1
        for d in range(0, n + 1):
            det = _column_count(n, d)
            if det != tally[d]:
                return _fail(name, f"n={n} d={d}: brute={tally[d]} determinant={det}")
    return _ok(name, f"all (d, n) with n <= {top}, oracles compared per permutation")


def _closed_form_check(name: str, formula, case, det_range, brute_range,
                       detail: str) -> Check:
    """Compare formula(k) at each (n, d) = case(k) with the column program's
    count for k in det_range, then with a brute-force count for k in
    brute_range.  minimal_count would return formula(k) itself."""
    for k in det_range:
        n, d = case(k)
        if formula(k) != _column_count(n, d):
            return _fail(name, f"closed form and determinant sum differ at (n={n}, d={d})")
    for k in brute_range:
        n, d = case(k)
        brute = sum(1 for _ in enumerate_minimal(n, d=d))
        if brute != formula(k):
            return _fail(name, f"brute count at (n={n}, d={d}) is {brute}, "
                               f"expected {formula(k)}")
    return _ok(name, detail)


def check_catalan_law(max_n: int) -> Check:
    brute = range(1, min(max_n // 2, 4) + 1)
    reach = (f"brute force to n={2 * brute[-1]}" if brute
             else f"no brute force at max_n={max_n}")
    return _closed_form_check("even-length Catalan counts", catalan, lambda m: (2 * m, m),
                              range(1, 9), brute, f"determinants to n=16, {reach}")


def check_one_ascent_closed_form(max_n: int) -> Check:
    return _closed_form_check("one-ascent closed form", one_ascent_count,
                              lambda n: (n, n - 2), range(4, 31), range(4, min(max_n, 9) + 1),
                              "closed form = determinant sum for 4 <= n <= 30")


def check_two_ascent_closed_form(max_n: int) -> Check:
    return _closed_form_check("two-ascent closed form", two_ascent_count,
                              lambda n: (n, n - 3), range(5, 31), range(5, min(max_n, 9) + 1),
                              "closed form = determinant sum for 5 <= n <= 30")


def check_odd_length_formula(max_n: int) -> Check:
    brute = range(1, min((max_n - 1) // 2, 4) + 1)
    reach = (f"brute force to length {2 * brute[-1] + 1}" if brute
             else f"no brute force at max_n={max_n}")
    return _closed_form_check("odd-length product formula", mansour_yan,
                              lambda m: (2 * m + 1, m + 1), range(1, 13), brute,
                              f"formula = determinant sum for m <= 12, {reach}")


def check_double_descent_refinement(max_n: int) -> Check:
    name = "double-descent refinement"
    enumerated = range(1, min((max_n - 1) // 2, 4) + 1)
    for m in enumerated:
        for i in range(1, m + 1):
            brute = sum(1 for _ in enumerate_minimal(
                2 * m + 1, d=m + 1, double_descent_at=2 * i - 1))
            if brute != double_descent_count(m, i):
                return _fail(name, f"enumeration at (m={m}, i={i}) gives {brute}, "
                                   f"expected {double_descent_count(m, i)}")
    for m in range(1, 13):
        total = 0
        for i in range(1, m + 1):
            value = double_descent_count(m, i)
            total += value
            summed = sum(three_row_syt_count(m, k)
                         for k in range(1, min(i, m - i + 1) + 1))
            if summed != value:
                return _fail(name, f"tableau-count sum differs at (m={m}, i={i})")
            if value != double_descent_count(m, m - i + 1):
                return _fail(name, f"symmetry fails at (m={m}, i={i})")
        if total != mansour_yan(m):
            return _fail(name, f"refinement does not sum to the total at m={m}")
    for m in range(1, 11):
        for k in range(1, (m + 1) // 2 + 1):
            if three_row_syt_count(m, k) != hook_count((m, m + 1 - k, k)):
                return _fail(name, f"three-row formula differs from hooks at (m={m}, k={k})")
    for m in range(1, 9):
        for i in range(1, m + 1):
            shape = SkewShape((m, m, i), (i - 1,))
            if skew_syt_count(shape) != double_descent_count(m, i):
                return _fail(name, f"skew determinant differs at (m={m}, i={i})")
    if not enumerated:
        return _ok(name, "sum identity, symmetry, hooks, and skew determinants; "
                         f"no enumeration at max_n={max_n}")
    return _ok(name, "enumeration, sum identity, symmetry, hooks, and skew determinants")


def _random_skew_shape(rng: random.Random, max_size: int) -> SkewShape:
    while True:
        row_count = rng.randint(1, 4)
        outer = []
        top = rng.randint(1, 6)
        for _ in range(row_count):
            outer.append(top)
            top = rng.randint(1, top)
        inner = []
        bound = outer[0]
        for lam in outer:
            mu = rng.randint(0, min(bound, lam))
            inner.append(mu)
            bound = mu
        shape = SkewShape(tuple(outer), tuple(inner))
        if 1 <= shape.size <= max_size:
            return shape


def _partitions_up_to(max_size: int, max_rows: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, bound: int) -> None:
        for part in range(min(bound, remaining), 0, -1):
            p = prefix + (part,)
            out.append(p)
            if len(p) < max_rows:
                rec(p, remaining - part, part)

    rec((), max_size, max_size)
    return out


def check_determinant_vs_enumeration(max_n: int) -> Check:
    """The per-run-profile count (the skew determinant on shape_from_runs)
    matches count_standard_fillings's path count on every 2-regular shape
    with at most 12 cells; the determinant also matches the path count on
    200 random skew shapes and is transpose-invariant; hooks match on
    straight shapes."""
    name = "determinant counts match backtracking enumeration"
    for total in range(2, 13):
        for parts in range(1, total // 2 + 1):
            for a in compositions_min2(total, parts):
                det = minimal_count_by_runs(a)
                brute = count_standard_fillings(shape_from_runs(a))
                if det != brute:
                    return _fail(name, f"runs {a}: determinant={det} "
                                       f"path count={brute}")
    rng = random.Random(DETERMINANT_SEED)
    for _ in range(200):
        shape = _random_skew_shape(rng, 12)
        det = skew_syt_count(shape)
        if det != skew_syt_count(shape.conjugated()):
            return _fail(name, f"transpose mismatch for {format_shape(shape)}")
        if det != count_standard_fillings(shape):
            return _fail(name, f"random shape {format_shape(shape)}: determinant {det} "
                               "differs from the path count")
    for lam in _partitions_up_to(15, max_rows=4):
        if hook_count(lam) != skew_syt_count(SkewShape(lam)):
            return _fail(name, f"hooks and determinant differ on {lam}")
    return _ok(name, "2-regular shapes to 12 cells, 200 random shapes, hooks to 15 cells")


def check_bijection_round_trip(max_n: int) -> Check:
    """With phi = perm_to_tableau and psi = tableau_to_perm: psi(phi(w)) = w
    for every minimal w of length 2..min(max_n, 10), and each profile's
    drawn shape receives as many images as it has standard fillings.  That
    decides both directions: psi inverts phi, so phi is injective and a
    shape's images are that many distinct fillings, hence all of them;
    every filling t is then phi(w) for some w, and phi(psi(t)) = t.  psi
    accepts only standard 2-regular tableaux, and every shape has a
    filling, so each drawn shape is 2-regular.  Then the 16-cell worked
    example, both ways."""
    name = "bijection round trips"
    limit = min(max_n, 10)
    for n in range(2, limit + 1):
        by_shape: Counter = Counter()
        for w in enumerate_minimal(n):
            t = perm_to_tableau(w)
            try:  # tableau_to_perm refuses an image that is not standard 2-regular
                back = tableau_to_perm(t)
            except ValueError:
                return _fail(name, f"image of {w} is not a standard 2-regular tableau")
            if back != w:
                return _fail(name, f"round trip failed for {w}")
            by_shape[t.shape] += 1
        for parts in range(1, n // 2 + 1):
            for a in compositions_min2(n, parts):
                drawn = shape_from_runs(a).conjugated()
                # an image of the wrong drawn shape leaves a profile short here
                count = count_standard_fillings(drawn)
                if count != by_shape[drawn]:
                    return _fail(name, f"cardinality mismatch for runs {a}: "
                                       f"{count} tableaux vs {by_shape[drawn]} permutations")
    t16 = perm_to_tableau(WORKED_PERM_16)
    if (t16.rows != WORKED_TABLEAU_16_ROWS
            or format_shape(t16.shape) != WORKED_TABLEAU_16_SHAPE):
        return _fail(name, "16-cell worked example does not reproduce the known tableau")
    if tableau_to_perm(t16) != WORKED_PERM_16:
        return _fail(name, "16-cell worked example does not invert")
    reach = (f"both directions for n <= {limit}" if limit > 1
             else f"no enumeration at max_n={max_n}")
    return _ok(name, f"{reach}, plus the 16-cell example")


def check_rsk_refinement(max_n: int) -> Check:
    """For each small class: the chain is legal and reaches the split form
    with the insertion tableau unchanged at every step, the explicit
    inverse gives back each member from its insertion tableau, so the map
    is injective.  minimal_to_syt raises on a shape outside the
    (m, m+1-k, k) law, so the image is the union of three-row tableaux
    exactly when the class has as many members as hook_count gives those
    shapes in all."""
    name = "Knuth chain and insertion-tableau refinement"
    top = min(4, (min(max_n, 9) - 1) // 2)
    for m in range(1, top + 1):
        for i in range(1, m + 1):
            members = 0
            for w in enumerate_minimal(2 * m + 1, d=m + 1, double_descent_at=2 * i - 1):
                p = minimal_to_syt(w)
                word = w
                for move in knuth_chain(w):
                    word = apply_knuth_move(word, move)
                    if insertion_tableau(word) != p:
                        return _fail(name, f"insertion tableau changed along the chain of {w}")
                if word != even_odd_split(w):
                    return _fail(name, f"chain of {w} ends at {word}, not the split form")
                prefix_shape = tuple(map(len, insertion_tableau(word[:m + i])))
                if prefix_shape != (m, i):
                    return _fail(name, f"the first {m + i} letters of the split form of "
                                       f"{w} insert to shape {prefix_shape}, not {(m, i)}")
                back = syt_to_minimal(p, i)
                if back != w:
                    return _fail(name, f"inverse reconstruction of {w} in class "
                                       f"(m={m}, i={i}) gives {back}")
                members += 1
            shapes = ((m, m + 1 - k, k) for k in range(1, min(i, m - i + 1) + 1))
            if members != sum(map(hook_count, shapes)):
                return _fail(name, f"image of class (m={m}, i={i}) is not the full "
                                   "union of three-row tableaux")
    if not top:
        return _ok(name, f"no class at max_n={max_n}")
    return _ok(name, f"all classes through length {2 * top + 1}, with explicit inverses")


def check_insertion_paths(max_n: int) -> Check:
    """Paths move weakly left going down; inserting j then k > j gives a
    second path strictly to the right, row by row, and never longer."""
    name = "insertion path properties"
    rng = random.Random(INSERTION_SEED)
    for _ in range(INSERTION_CASES):
        size = rng.randint(0, 10)
        pool = rng.sample(range(1, 40), size + 2)
        values, extra = pool[:size], sorted(pool[size:])
        j, k = extra
        rng.shuffle(values)
        p = ()
        for x in values:
            p, path = row_insert(p, x)
            row_indices = [cell[0] for cell in path]
            cols = [cell[1] for cell in path]
            if row_indices != list(range(1, len(path) + 1)):
                return _fail(name, f"path {path} skips rows")
            if any(c2 > c1 for c1, c2 in zip(cols, cols[1:])):
                return _fail(name, f"path {path} moves right going down")
        p1, path_j = row_insert(p, j)
        _, path_k = row_insert(p1, k)
        if len(path_k) > len(path_j):
            return _fail(name, f"second path longer: {path_j} then {path_k}")
        for (_, c1), (_, c2) in zip(path_j, path_k):
            if c1 >= c2:
                return _fail(name, f"paths not strictly separated: {path_j} then {path_k}")
    return _ok(name, f"{INSERTION_CASES} randomized cases")


def check_worked_chain(max_n: int) -> Check:
    name = "13-element worked chain"
    word = WORKED_PERM_13
    for move in knuth_chain(WORKED_PERM_13):
        word = apply_knuth_move(word, move)
    if word != WORKED_SPLIT_13:
        return _fail(name, f"chain ends at {word}")
    if even_odd_split(WORKED_PERM_13) != WORKED_SPLIT_13:
        return _fail(name, "split form differs from the known terminal word")
    if insertion_tableau(WORKED_PERM_13) != insertion_tableau(WORKED_SPLIT_13):
        return _fail(name, "insertion tableau is not preserved")
    return _ok(name, "terminal word reproduced exactly")


SUITES: dict[str, tuple] = {
    "counts": (check_three_way_counts, check_catalan_law,
               check_one_ascent_closed_form, check_two_ascent_closed_form,
               check_odd_length_formula, check_double_descent_refinement,
               check_determinant_vs_enumeration),
    "bijection": (check_bijection_round_trip,),
    "rsk": (check_rsk_refinement, check_insertion_paths, check_worked_chain),
}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(functions, max_n: int) -> tuple[list[Check], Exception | None]:
    """Run the checks in order up to the first that raises; return their
    results and that exception, if any."""
    checks = []
    try:
        for fn in functions:
            checks.append(fn(max_n))
    except Exception as exc:
        return checks, exc
    return checks, None


def _report_share(functions, max_n: int, write_end: int) -> NoReturn:
    """In a forked child: write _run_share's result, pickled, to the pipe
    and exit, with status 0 only if all of it was written."""
    status = 1
    try:
        data = pickle.dumps(_run_share(functions, max_n))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_checks(functions: list, max_n: int) -> list[Check]:
    """[fn(max_n) for fn in functions], share by share as the module
    docstring describes.  The first check to raise, in suite order, raises
    here; no child outlives the call."""
    k = min(len(functions), _usable_cpus())
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(max_n) for fn in functions]
    pids: list[int] = []  # children not yet reaped, in share order
    pipes = []            # the read end of each child's pipe, in share order
    try:
        for share in range(1, k):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _report_share(functions[share::k], max_n, write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        shares = [_run_share(functions[::k], max_n)]
        for share, pipe in enumerate(pipes, 1):
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if status or not data:
                names = ", ".join(fn.__name__ for fn in functions[share::k])
                raise RuntimeError(f"the process running the checks {names} exited "
                                   f"with status {status} before reporting")
            shares.append(pickle.loads(data))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # a share stops at its first exception, so the lowest index among the
    # shares' failing checks is the first check to raise in suite order
    raised = [(j + k * len(checks), exc) for j, (checks, exc) in enumerate(shares) if exc]
    if raised:
        raise min(raised, key=lambda pair: pair[0])[1]
    return [shares[i % k][0][i // k] for i in range(len(functions))]


def run_suite(suite: str, max_n: int = 8) -> dict:
    """Run one suite (or "all") and return a JSON-ready report.  max_n, an
    int of at least 1, caps the exhaustive sweeps below each check's own
    bound, so every max_n from 10 up does the same work; formula-only
    ranges are fixed and cheap."""
    if suite == "all":
        functions = [fn for fns in SUITES.values() for fn in fns]
    elif isinstance(suite, str) and suite in SUITES:
        functions = list(SUITES[suite])
    else:
        raise ValueError(f"unknown suite {_shown(suite)}; choose all, " + ", ".join(SUITES))
    _check_int("max_n", max_n, 1)
    checks = _run_checks(functions, max_n)
    return {
        "suite": suite,
        "max_n": max_n,
        "passed": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
