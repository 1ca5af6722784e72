"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 brute-force, determinant, closed-form, enumerate or knuth-chain output
cap exceeded, 141 the reader closed stdout before the output ended (128 +
SIGPIPE, as a shell reports a process that signal ended; nothing is
printed to stderr).
Counts print as CSV (header n,d,count) or JSON lines with big integers
rendered as decimal strings.  The long JSON outputs of rsk, bijection and
knuth-chain are written in pieces, in order, byte for byte as json.dumps
prints them, and each command holds only what it must before it writes:
rsk keeps every insertion path's columns in one array of 1 byte a cell
(4 once a column passes 255) and, once P and Q are written, fills whole
paths of about WRITE_CHARS // 8 cells per % call from one template of
(row, column) cells; bijection writes the tableau row by row; knuth-chain
keeps the word's text in one buffer, in which each move rewrites only the
two tokens it swaps.  Their arrays are written about WRITE_CHARS
characters at a time, so what they hold is bounded by size, not by the
number of elements.

Only the standard library and errors load with this module: each command
imports the modules it runs when it runs, so that count loads counting
alone (and tableaux for --ascents) and only verify loads the verify suites.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, _check_int, _parse_int

OK, VERIFY_FAILURE, USAGE_ERROR, CAP_ERROR = 0, 1, 2, 3
# 128 + SIGPIPE (13): what a shell reports for a process that SIGPIPE ended
BROKEN_PIPE = 141
# count --method det refuses an in-band n above MAX_DET_N, and an --ascents
# profile with more parts than MAX_ASCENT_PARTS or more cells than
# MAX_ASCENT_CELLS; a profile's cost grows with its cells as well as its
# parts.  Measured on a shared 2-core x86-64 machine under Python 3.11,
# whose speed varied by up to 1.7x between runs: the full band took 1.2 s
# at n = 100 and 10.9 s at n = 160 (the column program grows about as
# n^4.5).  At 500 parts and 1,500 cells the slowest profiles found, a
# block of big parts followed by 2s such as (12,)*50 + (2,)*450, took
# 15 s, and the largest took 200 MB; at 600 parts and 1,800 cells they
# took 30 s and 340 MB.
# knuth-chain prints one word per move, Theta(n^3) characters in all.  It
# writes them WRITE_CHARS characters at a time, so its memory follows one
# write of words, but its time and output follow all of them: it refuses a
# chain whose words would take more than MAX_OUTPUT_CHARS characters.  Just
# under the cap, writing to a file, length 801 with i = 1 (79,800 words of
# 3,095 characters) took 1.3-2 s and 16.7 MB, and length 1001 with i = 143
# 1.8 s and 16.6 MB: start-up memory.
# count --method closed refuses an in-band n above MAX_CLOSED_N.  Its
# slowest form is Catalan(n // 2), whose binomial grows about as n^2: the
# full band took 1.0 s at n = 200,000 (216 kB printed with the int-to-text
# limit off; exit 2 after 0.7 s under the default limit of 4,300 digits),
# and the Catalan form alone took 2.2 s at n = 400,000; the band took 11.6 s
# at n = 1,000,000.
# enumerate refuses an input whose line count, the exact total of the table
# that the search walks, is above MAX_ENUMERATE_LINES, as count --method brute
# does a walk, or whose lines, each as long as the first, pass
# MAX_OUTPUT_CHARS characters.  Each line costs about 1 us, more where a word
# has a long forced stretch before the last letters the walk's memo places:
# on the machine above, writing to a file, n = 13, d = 8 (4,576,000 lines)
# took 4.8 s, n = 22, d = 20 (4,193,840 lines) 28 s, n = 14, d = 11
# (3,385,265 lines) 5.7 s and the whole of n = 12 (1,722,174 lines) 1.5 s.
# The lines are written WRITE_BATCH at a time: to a file on an unbuffered
# stdout (PYTHONUNBUFFERED), the 31,914 lines of n = 10 took 0.06 s printed
# one at a time and 0.002 s in batches of 64, and batches of 256 raised the
# peak RSS by about 36 kB more.
# The JSON arrays of rsk's paths, bijection's tableau rows and knuth-chain's
# moves and words are cut by size instead, since their elements run from a
# few characters to tens of kB: each write holds WRITE_CHARS characters or
# more, and less than that plus one element.  rsk formats whole paths of
# about WRITE_CHARS // 8 cells per % call; a cell and its separator take 8
# characters or more, so each call fills a write.  On a 2-CPU x86-64
# machine under Python 3.11: with 64 elements to a write, rsk on the
# decreasing word of length 1000 held 1.65 MiB of batch text at once and
# peaked at 3.97 MiB traced, 0.93 MiB by size; rsk on a random word of
# 8,000 letters, as in the maps workload, peaked at 19.2 MB of RSS at 4
# bytes a cell and 64 paths per call, and at 17.8 MB at a byte a cell and
# 16 KiB; 1,024 cells per call, or an 8 KiB budget, read 0.3 MB lower.
MAX_DET_N = 160
MAX_ASCENT_PARTS = 500
MAX_ASCENT_CELLS = 1500
MAX_OUTPUT_CHARS = 250_000_000
MAX_CLOSED_N = 200_000
MAX_ENUMERATE_LINES = 5_000_000
WRITE_BATCH = 64
WRITE_CHARS = 16 * 1024
BRUTE_WALK = "count --method brute would walk {} permutations"
# the names of verify.SUITES, spelled out so that building the parser does
# not load verify
SUITE_NAMES = ("counts", "bijection", "rsk")


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _ascents_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse ascent sequence {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minperm",
        description="Exact enumeration and counting of minimal permutations, "
                    "their 2-regular skew tableaux, and the RSK refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count minimal permutations")
    count.add_argument("--n", type=_int_arg, required=True, help="permutation length")
    count.add_argument("--d", type=_int_arg, help="descent count (default: every d in the band)")
    count.add_argument("--ascents", type=_ascents_arg, metavar="a1,a2,...",
                       help="fix the decreasing-run lengths instead of --d")
    count.add_argument("--method", choices=("det", "closed", "brute"), default="det")
    count.add_argument("--format", choices=("csv", "json"), default="csv")
    count.set_defaults(handler=_cmd_count)

    enum = sub.add_parser("enumerate", help="list minimal permutations")
    enum.add_argument("--n", type=_int_arg, required=True)
    enum.add_argument("--d", type=_int_arg)
    enum.add_argument("--ascents", type=_ascents_arg, metavar="a1,a2,...")
    enum.add_argument("--double-descent-at", type=_int_arg, metavar="J",
                      help="require descents at both positions J and J+1")
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
    verify.add_argument("--max-n", type=_int_arg, default=8,
                        help="longest permutations the exhaustive sweeps enumerate; "
                             "each check also stops at 9 or 10 (default 8)")
    verify.add_argument("--suite", choices=("all", *SUITE_NAMES), default="all")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _brute_force(n: int, what: str, **constraints) -> tuple[int, Iterator[tuple[int, ...]]]:
    """_minimal_search(n, ...), refused as what.format(its count) if it
    would yield more than MAX_ENUMERATE_LINES words."""
    from .permutations import _minimal_search
    words, stream = _minimal_search(n, **constraints)
    if words > MAX_ENUMERATE_LINES:
        raise CapExceededError(f"{what.format(words)}, above the cap of {MAX_ENUMERATE_LINES}")
    return words, stream


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
    from .counting import (_closed_form, minimal_count, minimal_count_band,
                           minimal_count_by_runs)
    n, d = args.n, args.d
    _check_int("--n", n, 1)
    if d is not None:
        _check_int("--d", d, 0)
    if args.ascents is not None and d is not None:
        raise ValueError("--d and --ascents are mutually exclusive")
    if args.ascents is not None:
        runs = args.ascents
        if sum(runs) != n:
            raise ValueError(f"--ascents {','.join(map(str, runs))} sums to "
                             f"{sum(runs)}, not {n}")
        if args.method == "closed":
            raise ValueError("no closed form is available for a fixed ascent sequence")
        if args.method == "brute":
            value = sum(1 for _ in _brute_force(n, BRUTE_WALK, runs=runs)[1])
        elif min(runs) < 2:
            # a minimal permutation's decreasing runs are 2 long or more, so
            # no word has this profile, as brute force and enumerate find
            value = 0
        else:
            if len(runs) > MAX_ASCENT_PARTS or n > MAX_ASCENT_CELLS:
                raise CapExceededError(
                    f"--ascents has {len(runs)} parts and {n} cells, above the cap of "
                    f"{MAX_ASCENT_PARTS} parts and {MAX_ASCENT_CELLS} cells")
            value = minimal_count_by_runs(runs)
        _emit_rows([(n, n - len(runs), value)], args.format)
        return OK
    # outside the band the count is 0 at any n, so det and closed cap only an
    # n in the band, which a full band always is
    cap = {"det": MAX_DET_N, "closed": MAX_CLOSED_N}.get(args.method)
    if cap is not None and n > cap and (d is None or d < n <= 2 * d):
        raise CapExceededError(f"n={n} is above the cap {cap} for --method {args.method}")
    band = range((n + 1) // 2, n) if d is None else (d,)
    if args.method == "brute":
        from .permutations import descent_count
        tally = Counter(map(descent_count, _brute_force(n, BRUTE_WALK, d=d)[1]))
        counts = {k: tally[k] for k in band}
    elif args.method == "det":
        counts = minimal_count_band(n) if d is None else {d: minimal_count(n, d)}
    else:
        counts = {k: v for k in band if (v := _closed_form(n, k)) is not None}
        if not counts:
            raise ValueError(f"no closed form covers any descent count for n={n}"
                             if d is None else f"no closed form covers n={n}, d={d}")
    _emit_rows([(n, k, v) for k, v in counts.items()], args.format)
    return OK


def _cmd_enumerate(args) -> int:
    from .permutations import _separator
    if args.ascents is not None and args.d is not None:
        raise ValueError("--d and --ascents are mutually exclusive")
    lines, words = _brute_force(args.n, "enumerate would print {} lines", d=args.d,
                                runs=args.ascents, j=args.double_descent_at)
    if lines:  # else no table was built, and n may be too large to write out
        template = _separator(args.n).join(["%d"] * args.n) + "\n"
        if lines * (width := len(template % tuple(range(1, args.n + 1)))) > MAX_OUTPUT_CHARS:
            raise CapExceededError(f"enumerate would print {lines} lines of {width} "
                                   f"characters, above the cap of {MAX_OUTPUT_CHARS} characters")
        while batch := list(itertools.islice(words, WRITE_BATCH)):
            sys.stdout.write("".join(map(template.__mod__, batch)))
    return OK


def _cmd_bijection(args) -> int:
    from .bijection import perm_to_tableau, tableau_to_perm
    from .permutations import format_permutation, parse_permutation
    from .tableaux import format_shape, tableau_from_json
    if (args.perm is None) == (args.tableau is None):
        raise ValueError("provide exactly one of --perm or --tableau")
    if args.perm is not None:
        w = parse_permutation(args.perm)
        t = perm_to_tableau(w)
        ok = tableau_to_perm(t) == w
    else:
        try:
            data = json.loads(args.tableau)
        except RecursionError:
            raise ValueError("--tableau is nested too deeply to read") from None
        t = tableau_from_json(data)
        del data  # t holds the rows; the maps below need no second copy
        w = tableau_to_perm(t)
        ok = perm_to_tableau(w) == t
    # both maps have run, so every refusal is raised above.  The object is
    # written field by field, "perm" first or after the tableau as the input
    # came, and the tableau's rows as its array; json.dumps escapes the
    # shape's empty-set sign as \u2205
    perm = f'"perm": {json.dumps(format_permutation(w))}, '
    head, tail = (perm, "") if args.perm is not None else ("", perm)
    out = sys.stdout
    out.write(f'{{{head}"tableau": {{"shape": {json.dumps(format_shape(t.shape))}, "rows": ')
    _write_array(out, map(json.dumps, t.rows))
    out.write(f'}}, {tail}"round_trip": "{"ok" if ok else "FAILED"}"}}\n')
    return OK if ok else VERIFY_FAILURE


def _write_array(out, texts: Iterable[str]) -> None:
    """Write the JSON array of the given element texts, separated as
    json.dumps separates them, in writes of WRITE_CHARS characters or more,
    separators included, but the last.  Should texts raise, the elements
    it gave before are written first, so the output stops where one write
    per element would have stopped it.  An element text may hold several
    elements joined by ", "."""
    texts = iter(texts)
    out.write("[")
    sep = ""
    while True:
        batch: list[str] = []
        size = len(sep) - 2  # the write's length: a ", " before each element
        try:
            for text in texts:
                batch.append(text)
                size += 2 + len(text)
                if size >= WRITE_CHARS:
                    break
        finally:
            if batch:
                out.write(sep + ", ".join(batch))
                sep = ", "
        if size < WRITE_CHARS:
            break
    out.write("]")


def _cmd_rsk(args) -> int:
    from array import array
    from .permutations import format_permutation, parse_permutation
    from .rsk import _rsk_steps
    w = parse_permutation(args.perm)
    p: list[list[int]] = []
    q: list[list[int]] = []
    # every path runs down rows 1..k, so it is kept as its k columns alone:
    # all of them in one flat array, beside an array of the lengths k.  The
    # columns take a byte each until one passes 255; fromlist then leaves
    # the array as it was, and the path goes into a copy of 4 bytes a cell
    cols, lengths = array("B"), array("I")
    for path in _rsk_steps(w, p, q):
        try:
            cols.fromlist(path)
        except OverflowError:
            cols = array("I", cols)
            cols.fromlist(path)
        lengths.append(len(path))
    out = sys.stdout
    out.write(f'{{"perm": {json.dumps(format_permutation(w))}, '
              f'"shape": {json.dumps([len(row) for row in p])}, '
              f'"P": {json.dumps(p)}, "Q": {json.dumps(q)}, "paths": ')
    # a path of length k fills the first k cells of one template
    # "[1, %d], [2, %d], ..." as long as P's rows; end[k] is where its k-th
    # cell ends
    cells = [f"[{r}, %d]" for r in range(1, len(p) + 1)]
    template = ", ".join(cells)
    end = list(itertools.accumulate((len(cell) + 2 for cell in cells), initial=-2))

    def batches() -> Iterator[str]:
        # whole paths of WRITE_CHARS // 8 cells or more, but the last, for
        # each % call
        ks: list[int] = []
        start = stop = 0
        for i, length in enumerate(lengths, start=1):
            ks.append(length)
            stop += length
            if stop - start >= WRITE_CHARS // 8 or i == len(lengths):
                yield ("[" + "], [".join([template[:end[k]] for k in ks]) + "]") \
                    % tuple(cols[start:stop])
                ks, start = [], stop

    _write_array(out, batches())
    out.write("}\n")
    return OK


def _replay(word: list[int], moves: Iterable[tuple[int, str]]) -> Iterator[str]:
    """Apply the (position, kind) moves to word in place, checking each, and
    yield every word the chain passes through as a JSON string.  The text
    format holds only digits and one separator, which JSON never escapes.

    The quoted text is kept in one bytearray, with the offset of each
    letter's token.  A move swaps two adjacent letters, so it rewrites only
    their two tokens, whose widths may differ (9 and 10), and the separator
    between them, and moves the offset of the second."""
    from .permutations import _separator
    from .rsk import _knuth_swap
    sep = _separator(len(word)).encode()
    tokens = [str(x).encode() for x in word]
    text = bytearray(b'"' + sep.join(tokens) + b'"')
    start, offset = [], 1
    for token in tokens:
        start.append(offset)
        offset += len(token) + len(sep)
    for t, kind in moves:
        j = _knuth_swap(word, t, kind)
        first, second = tokens[j + 1], tokens[j]
        tokens[j], tokens[j + 1] = first, second
        s = start[j]
        text[s:start[j + 1] + len(first)] = first + sep + second
        start[j + 1] = s + len(first) + len(sep)
        yield text.decode()


def _cmd_knuth_chain(args) -> int:
    from .permutations import format_permutation, parse_permutation
    from .rsk import _sweeps, double_descent_class, even_odd_split, insertion_tableau
    w = parse_permutation(args.perm)
    n, i = double_descent_class(w)
    # the sweeps make (n-i)(n-i+1)/2 moves, and every word the chain passes
    # through is as long as the first
    text = format_permutation(w)
    words_needed = (n - i) * (n - i + 1) // 2
    if words_needed * len(text) > MAX_OUTPUT_CHARS:
        raise CapExceededError(
            f"knuth-chain on length {len(w)} with i={i} would print {words_needed} words "
            f"of {len(text)} characters, above the cap of {MAX_OUTPUT_CHARS} characters")
    # every refusal is raised above; from here on the object is written in
    # order, each word as the one replay makes it.  A move the replay finds
    # illegal, which only a wrong schedule can make, exits 2 partway through
    out = sys.stdout
    out.write(f'{{"perm": {json.dumps(text)}, "moves": ')
    # the kinds are ASCII letters, which JSON never escapes
    _write_array(out, (f'{{"position": {t}, "kind": "{kind}"}}' for t, kind in _sweeps(n, i)))
    out.write(', "words": ')
    word = list(w)
    _write_array(out, _replay(word, _sweeps(n, i)))
    word = tuple(word)
    target = even_odd_split(w)
    unchanged = insertion_tableau(w) == insertion_tableau(word)
    out.write(f', "final": {json.dumps(format_permutation(word))}, '
              f'"target": {json.dumps(format_permutation(target))}, '
              f'"insertion_tableau_unchanged": {json.dumps(unchanged)}}}\n')
    return OK if word == target and unchanged else VERIFY_FAILURE


def _cmd_verify(args) -> int:
    from .verify import run_suite
    report = run_suite(args.suite, max_n=args.max_n)
    print(json.dumps(report, indent=2))
    if not report["passed"]:
        first = next(c for c in report["checks"] if not c["passed"])
        print(f"FAIL: {first['name']}: {first['detail']}", file=sys.stderr)
        return VERIFY_FAILURE
    return OK


def main(argv: Sequence[str] | None = None) -> int:
    # the parser is dropped before the command runs, so that the modules
    # the command loads can reuse its memory
    try:
        args = _build_parser().parse_args(argv)
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
