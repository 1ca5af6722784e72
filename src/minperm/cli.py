"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 brute-force or determinant cap exceeded.  Counts print as CSV (header
n,d,count) or JSON lines with big integers rendered as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Sequence

from .bijection import perm_to_tableau, tableau_to_perm
from .counting import (catalan, mansour_yan, minimal_count,
                       minimal_count_band, minimal_count_by_runs,
                       one_ascent_count, two_ascent_count)
from .errors import CapExceededError
from .permutations import (descent_count, enumerate_minimal,
                           format_permutation, parse_permutation)
from .rsk import (apply_knuth_move, even_odd_split, insertion_tableau,
                  knuth_chain, rsk_trace)
from .tableaux import tableau_from_json, tableau_to_json
from .verify import run_suite

OK, VERIFY_FAILURE, USAGE_ERROR, CAP_ERROR = 0, 1, 2, 3
# count --method det refuses an in-band n above MAX_DET_N, and an --ascents
# profile with more parts than MAX_ASCENT_PARTS or more cells than
# MAX_ASCENT_CELLS; a profile's cost grows with its cells as well as its
# parts.  Measured on a shared 2-core x86-64 machine under Python 3.11,
# whose speed varied by up to 1.7x between runs: the full band took
# 22 s at n = 150, 20-29 s at n = 160, 26-45 s at n = 170 and 44-53 s at
# n = 180 (the column program grows about as n^5).  At 500 parts and 1,500
# cells the slowest profiles found, a block of big parts followed by 2s
# such as (12,)*50 + (2,)*450, took 15 s, and the largest took 200 MB; at
# 600 parts and 1,800 cells they took 30 s and 340 MB.
MAX_DET_N = 160
MAX_ASCENT_PARTS = 500
MAX_ASCENT_CELLS = 1500


def _ascents_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse ascent sequence {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minperm",
        description="Exact enumeration and counting of minimal permutations, "
                    "their 2-regular skew tableaux, and the RSK refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count minimal permutations")
    count.add_argument("--n", type=int, required=True, help="permutation length")
    count.add_argument("--d", type=int, help="descent count (default: every d in the band)")
    count.add_argument("--ascents", type=_ascents_arg, metavar="a1,a2,...",
                       help="fix the decreasing-run lengths instead of --d")
    count.add_argument("--method", choices=("det", "closed", "brute"), default="det")
    count.add_argument("--format", choices=("csv", "json"), default="csv")
    count.add_argument("--max-brute-n", type=int, default=None,
                       help="override the brute-force cap (default 11, or "
                            "MINPERM_MAX_BRUTE_N)")
    count.set_defaults(handler=_cmd_count)

    enum = sub.add_parser("enumerate", help="list minimal permutations")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--d", type=int)
    enum.add_argument("--ascents", type=_ascents_arg, metavar="a1,a2,...")
    enum.add_argument("--double-descent-at", type=int, metavar="J",
                      help="require descents at both positions J and J+1")
    enum.add_argument("--max-brute-n", type=int, default=None)
    enum.set_defaults(handler=_cmd_enumerate)

    bij = sub.add_parser("bijection", help="map between permutations and tableaux")
    bij.add_argument("--perm", help="a permutation in the text format")
    bij.add_argument("--tableau", help="a tableau as JSON {shape, rows}")
    bij.set_defaults(handler=_cmd_bijection)

    rsk_cmd = sub.add_parser("rsk", help="insertion and recording tableaux with paths")
    rsk_cmd.add_argument("--perm", required=True)
    rsk_cmd.set_defaults(handler=_cmd_rsk)

    chain = sub.add_parser("knuth-chain",
                           help="elementary moves to the even/odd split form")
    chain.add_argument("--perm", required=True)
    chain.set_defaults(handler=_cmd_knuth_chain)

    verify = sub.add_parser("verify", help="run the cross-verification suites")
    verify.add_argument("--max-n", type=int, default=8,
                        help="cap for the brute-force sweeps (default 8)")
    verify.add_argument("--suite", choices=("all", "counts", "bijection", "rsk"),
                        default="all")
    verify.add_argument("--inject-fault", action="store_true",
                        help="(testing) hand the counting checks a determinant "
                             "sum that is off by one, to prove mismatches are "
                             "detected")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _closed_form(n: int, d: int) -> int | None:
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


def _emit_rows(rows: Sequence[tuple[int, int, int]], fmt: str) -> None:
    if fmt == "csv":
        print("n,d,count")
        for n, d, value in rows:
            print(f"{n},{d},{value}")
    else:
        for n, d, value in rows:
            print(json.dumps({"n": n, "d": d, "count": str(value)}))


def _cmd_count(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    if args.d is not None and args.d < 0:
        raise ValueError(f"--d must be >= 0, got {args.d}")
    if args.ascents is not None and args.d is not None:
        raise ValueError("--d and --ascents are mutually exclusive")
    rows: list[tuple[int, int, int]] = []
    if args.ascents is not None:
        runs = args.ascents
        if sum(runs) != n:
            raise ValueError(f"--ascents {','.join(map(str, runs))} sums to "
                             f"{sum(runs)}, not {n}")
        d = n - len(runs)
        if args.method == "det":
            if len(runs) > MAX_ASCENT_PARTS or n > MAX_ASCENT_CELLS:
                raise CapExceededError(
                    f"--ascents has {len(runs)} parts and {n} cells, above the cap of "
                    f"{MAX_ASCENT_PARTS} parts and {MAX_ASCENT_CELLS} cells")
            value = minimal_count_by_runs(runs)
        elif args.method == "brute":
            value = sum(1 for _ in enumerate_minimal(n, runs=runs,
                                                     max_n=args.max_brute_n))
        else:
            raise ValueError("no closed form is available for a fixed ascent sequence")
        rows.append((n, d, value))
    else:
        band = [args.d] if args.d is not None else list(range((n + 1) // 2, n))
        if args.method == "brute":
            tally: Counter = Counter()
            for w in enumerate_minimal(n, max_n=args.max_brute_n):
                tally[descent_count(w)] += 1
            rows.extend((n, d, tally[d]) for d in band)
        elif args.method == "det":
            # outside the band the count is 0 at any n, so only the band is capped
            if n > MAX_DET_N and any(d < n <= 2 * d for d in band):
                raise CapExceededError(f"n={n} is above the cap {MAX_DET_N} for "
                                       "--method det")
            if args.d is None:
                counts = minimal_count_band(n)
            else:
                counts = {args.d: minimal_count(n, args.d)}
            rows.extend((n, d, counts[d]) for d in band)
        else:
            for d in band:
                value = _closed_form(n, d)
                if value is None:
                    if args.d is not None:
                        raise ValueError(f"no closed form covers n={n}, d={d}")
                    continue
                rows.append((n, d, value))
            if not rows:
                raise ValueError(f"no closed form covers any descent count for n={n}")
    _emit_rows(rows, args.format)
    return OK


def _cmd_enumerate(args) -> int:
    if args.ascents is not None and args.d is not None:
        raise ValueError("--d and --ascents are mutually exclusive")
    stream = enumerate_minimal(args.n, d=args.d, runs=args.ascents,
                               double_descent_at=args.double_descent_at,
                               max_n=args.max_brute_n)
    for w in stream:
        print(format_permutation(w))
    return OK


def _cmd_bijection(args) -> int:
    if (args.perm is None) == (args.tableau is None):
        raise ValueError("provide exactly one of --perm or --tableau")
    if args.perm is not None:
        w = parse_permutation(args.perm)
        t = perm_to_tableau(w)
        ok = tableau_to_perm(t) == w
        print(json.dumps({"perm": format_permutation(w),
                          "tableau": tableau_to_json(t),
                          "round_trip": "ok" if ok else "FAILED"}))
    else:
        t = tableau_from_json(json.loads(args.tableau))
        w = tableau_to_perm(t)
        ok = perm_to_tableau(w) == t
        print(json.dumps({"tableau": tableau_to_json(t),
                          "perm": format_permutation(w),
                          "round_trip": "ok" if ok else "FAILED"}))
    return OK if ok else VERIFY_FAILURE


def _cmd_rsk(args) -> int:
    w = parse_permutation(args.perm)
    p, q, paths = rsk_trace(w)
    print(json.dumps({
        "perm": format_permutation(w),
        "shape": [len(row) for row in p],
        "P": [list(row) for row in p],
        "Q": [list(row) for row in q],
        "paths": [[list(cell) for cell in path] for path in paths],
    }))
    return OK


def _cmd_knuth_chain(args) -> int:
    w = parse_permutation(args.perm)
    moves = knuth_chain(w)
    word = w
    words = []
    for move in moves:
        word = apply_knuth_move(word, move)
        words.append(format_permutation(word))
    target = even_odd_split(w)
    unchanged = insertion_tableau(w) == insertion_tableau(word)
    print(json.dumps({
        "perm": format_permutation(w),
        "moves": [{"position": m.position, "kind": m.kind} for m in moves],
        "words": words,
        "final": format_permutation(word),
        "target": format_permutation(target),
        "insertion_tableau_unchanged": unchanged,
    }))
    return OK if word == target and unchanged else VERIFY_FAILURE


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, max_n=args.max_n, inject_fault=args.inject_fault)
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        first = next(c for c in report["checks"] if not c["passed"])
        print(f"FAIL: {first['name']}: {first['detail']}", file=sys.stderr)
        return VERIFY_FAILURE
    return OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else OK
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
