"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 brute-force, determinant, closed-form or knuth-chain output cap
exceeded, 141 the reader closed stdout before the output ended (128 +
SIGPIPE, as a shell reports a process that signal ended; nothing is
printed to stderr).
Counts print as CSV (header n,d,count) or JSON lines with big integers
rendered as decimal strings.  The long JSON outputs of rsk and knuth-chain
are written in pieces, in order, byte for byte as json.dumps prints them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .bijection import perm_to_tableau, tableau_to_perm
from .counting import (catalan, mansour_yan, minimal_count,
                       minimal_count_band, minimal_count_by_runs,
                       one_ascent_count, two_ascent_count)
from .errors import CapExceededError
from .permutations import (DEFAULT_MAX_BRUTE_N, _separator, descent_count,
                           enumerate_minimal, format_permutation,
                           max_brute_n, parse_permutation)
from .rsk import (KnuthMove, _knuth_swap, _rsk_steps, double_descent_class,
                  even_odd_split, insertion_tableau, knuth_chain)
from .tableaux import tableau_from_json, tableau_to_json
from .verify import SUITES, run_suite

OK, VERIFY_FAILURE, USAGE_ERROR, CAP_ERROR = 0, 1, 2, 3
# 128 + SIGPIPE (13): what a shell reports for a process that SIGPIPE ended
BROKEN_PIPE = 141
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
# knuth-chain prints one word per move, Theta(n^3) characters in all.  It
# writes them one at a time, so its memory follows one word, but its time
# and output follow all of them: it refuses a chain whose words would take
# more than MAX_CHAIN_CHARS characters.  Just under the cap, writing to a
# file, length 801 with i = 1 (79,800 words of 3,095 characters) took 1.6 s
# and 26 MB, and length 1001 with i = 143 took 1.5 s and 25 MB.
# count --method closed refuses an in-band n above MAX_CLOSED_N.  Its
# slowest form is catalan(n // 2), whose binomial grows about as n^2: the
# full band took 1.0 s at n = 200,000 (216 kB printed with the int-to-text
# limit off; exit 2 after 0.7 s under the default limit of 4,300 digits),
# and catalan alone took 2.2 s at n = 400,000; the band took 11.6 s at
# n = 1,000,000.
MAX_DET_N = 160
MAX_ASCENT_PARTS = 500
MAX_ASCENT_CELLS = 1500
MAX_CHAIN_CHARS = 250_000_000
MAX_CLOSED_N = 200_000


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
                       help=f"override the brute-force cap (default {DEFAULT_MAX_BRUTE_N})")
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
    verify.add_argument("--suite", choices=("all", *SUITES), default="all")
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


def _brute_force(n: int, max_n: int | None, **constraints):
    """enumerate_minimal(n, max_n=max_n, ...), whose cap error names the
    --max-brute-n flag instead of the library's max_n argument."""
    try:
        yield from enumerate_minimal(n, max_n=max_n, **constraints)
    except CapExceededError:
        raise CapExceededError(f"enumeration over S_{n} exceeds the brute-force cap "
                               f"{max_brute_n(max_n)}; raise it via --max-brute-n") from None


def _emit_rows(rows: Sequence[tuple[int, int, int]], fmt: str) -> None:
    """Print the rows, every one formatted before the first write, so that
    a count too long to convert to text (sys.set_int_max_str_digits)
    leaves stdout empty."""
    if fmt == "csv":
        lines = ["n,d,count", *(f"{n},{d},{value}" for n, d, value in rows)]
    else:
        lines = [json.dumps({"n": n, "d": d, "count": str(value)}) for n, d, value in rows]
    sys.stdout.write("".join(line + "\n" for line in lines))


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
            value = sum(1 for _ in _brute_force(n, args.max_brute_n, runs=runs))
        else:
            raise ValueError("no closed form is available for a fixed ascent sequence")
        rows.append((n, d, value))
    else:
        # every cap comes before the band is listed: an n far above them is too
        # large to list.  Outside the band the count is 0 at any n, so det and
        # closed cap only an n in the band, which a full band always is
        cap = {"det": MAX_DET_N, "closed": MAX_CLOSED_N}.get(args.method)
        if cap is not None and n > cap and (args.d is None or args.d < n <= 2 * args.d):
            raise CapExceededError(f"n={n} is above the cap {cap} for --method {args.method}")
        if args.method == "brute":
            tally = Counter(map(descent_count, _brute_force(n, args.max_brute_n)))
        if args.d is not None:
            band = [args.d]
        elif args.method == "closed":
            # the only d of the band that _closed_form can cover
            band = sorted({d for d in ((n + 1) // 2, n - 3, n - 2, n - 1) if (n + 1) // 2 <= d < n})
        else:
            band = list(range((n + 1) // 2, n))
        if args.method == "brute":
            rows.extend((n, d, tally[d]) for d in band)
        elif args.method == "det":
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
    stream = _brute_force(args.n, args.max_brute_n, d=args.d, runs=args.ascents,
                          double_descent_at=args.double_descent_at)
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


def _write_array(out, texts: Iterable[str]) -> None:
    """Write the JSON array of the given element texts, one at a time,
    separated as json.dumps separates them."""
    out.write("[")
    for k, text in enumerate(texts):
        if k:
            out.write(", ")
        out.write(text)
    out.write("]")


def _cmd_rsk(args) -> int:
    w = parse_permutation(args.perm)
    p: list[list[int]] = []
    q: list[list[int]] = []
    # each path is kept only as its JSON text, a few characters per cell
    paths = [json.dumps(path) for path in _rsk_steps(w, p, q)]
    out = sys.stdout
    out.write(f'{{"perm": {json.dumps(format_permutation(w))}, '
              f'"shape": {json.dumps([len(row) for row in p])}, '
              f'"P": {json.dumps(p)}, "Q": {json.dumps(q)}, "paths": ')
    _write_array(out, paths)
    out.write("}\n")
    return OK


def _replay(word: list[int], moves: Iterable[KnuthMove]) -> Iterator[str]:
    """Apply the moves to word in place, checking each, and yield every word
    the chain passes through as a JSON string.  The text format holds only
    digits and one separator, which JSON never escapes."""
    tokens = list(map(str, word))
    sep = _separator(len(word))
    for move in moves:
        j = _knuth_swap(word, move)
        tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
        yield f'"{sep.join(tokens)}"'


def _cmd_knuth_chain(args) -> int:
    w = parse_permutation(args.perm)
    n, i = double_descent_class(w)
    # knuth_chain's sweeps make (n-i)(n-i+1)/2 moves, and every word the
    # chain passes through is as long as the first
    text = format_permutation(w)
    words_needed = (n - i) * (n - i + 1) // 2
    if words_needed * len(text) > MAX_CHAIN_CHARS:
        raise CapExceededError(
            f"knuth-chain on length {len(w)} with i={i} would print {words_needed} words "
            f"of {len(text)} characters, above the cap of {MAX_CHAIN_CHARS} characters")
    moves = knuth_chain(w)
    # every refusal is raised above; from here on the object is written in
    # order, each word as the replay makes it
    out = sys.stdout
    out.write(f'{{"perm": {json.dumps(text)}, "moves": ')
    _write_array(out, (f'{{"position": {m.position}, "kind": {json.dumps(m.kind)}}}'
                       for m in moves))
    out.write(', "words": ')
    word = list(w)
    _write_array(out, _replay(word, moves))
    word = tuple(word)
    target = even_odd_split(w)
    unchanged = insertion_tableau(w) == insertion_tableau(word)
    out.write(f', "final": {json.dumps(format_permutation(word))}, '
              f'"target": {json.dumps(format_permutation(target))}, '
              f'"insertion_tableau_unchanged": {json.dumps(unchanged)}}}\n')
    return OK if word == target and unchanged else VERIFY_FAILURE


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, max_n=args.max_n)
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
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`minperm ... | head`): point stdout
        # at os.devnull, so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
