"""Benchmark of the minperm command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of count, enumerate, verify, maps, or `all` to run the four in
turn.  Run from anywhere; the program is taken from the `src` directory
next to this one, and the benchmark exits with status 2 if it is missing.

--trace 0 times the CLI end to end.  Each invocation runs as a subprocess
`python -m minperm ...`, one at a time (a closed loop with one client),
started by spawn.py, with its stdout written to perfbench/out.
One untimed warm-up pass writes bytecode caches and supplies the output
that is checked; then whole passes repeat until S seconds have gone by, at
least MIN_PASSES times.  A timed output whose sha256 differs from the
checked one is checked again.  Metrics:

    setup_s      median seconds for a fresh interpreter to `import minperm`
    wall_s       sum over the invocations of each one's median wall time
    peak_rss_mb  largest peak RSS of any single child (from wait4)

error_rate (invocations that exited nonzero or failed the check, over
invocations attempted) is printed beside them; it is the result's
`failed` / `attempted`.

--trace 1 runs the same invocations in this process through
minperm.cli.main, alternating untraced passes and passes with the tracing
wrappers of tracing.py installed, and reports per-layer metrics: counts from
the traced passes (which must agree exactly), times as medians over them,
and trace.overhead_s, the median traced pass minus the median untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60
BUDGET_S = 150        # start no pass that would likely end after this
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks outputs, remembering the digests already found correct, and
    keeps the attempted and failed tallies."""

    def __init__(self):
        self.good: dict[str, set[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, inv, out: str, code: int) -> bool:
        self.attempted += 1
        digest = _sha(out)
        known = self.good.setdefault(inv.label, set())
        if code == 0 and digest in known:
            return True
        try:
            why = inv.check(out, code)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            why = f"malformed output ({exc!r})"
        if why is None:
            known.add(digest)
            return True
        self.failed += 1
        self.errors.append(f"{inv.label}: {why}")
        return False




class Spawner:
    """Runs children through spawn.py, a small process, so that each
    child's peak RSS is its own and not this process's."""

    def __init__(self, env: dict):
        OUT.mkdir(exist_ok=True)
        self.out = OUT / "child.stdout"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py"), str(self.out),
             str(OUT / "child.stderr")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS in MB, exit code, stdout) of one child."""
        self.proc.stdin.write(json.dumps([argv, CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        wall, rss_kb, code = json.loads(self.proc.stdout.readline())
        return wall, rss_kb / 1024, code, self.out.read_text(errors="replace")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metadata(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg(), "seed": seed, "commit": commit()}


def _over_budget(started: float, last_pass: float) -> bool:
    return time.perf_counter() - started + last_pass > BUDGET_S


# ------------------------------------------------------------ end to end

def run_end_to_end(invocations, seed: int, seconds: float, started: float):
    with Spawner(dict(os.environ, PYTHONPATH=str(SRC))) as spawner:
        return _end_to_end(spawner, invocations, seed, seconds, started)


def _end_to_end(spawner, invocations, seed, seconds, started):
    cli = [sys.executable, "-m", "minperm"]
    checker = Checker()
    report = metadata(seed)
    digests, peaks = {}, {}
    for inv in invocations:                      # warm-up pass, untimed
        _, rss, code, out = spawner.run(cli + list(inv.argv))
        peaks[inv.label] = rss
        checker.record(inv, out, code)
        digests[inv.label] = _sha(out)
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, _, code, _ = spawner.run([sys.executable, "-c", "import minperm"])
        setup.append(wall)
        if code:
            checker.errors.append(f"import minperm exited {code}")
    walls = {inv.label: [] for inv in invocations}
    passes, last_pass, t0 = 0, 0.0, time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
        if _over_budget(started, last_pass):
            break
        pass_start = time.perf_counter()
        for inv in invocations:
            wall, rss, code, out = spawner.run(cli + list(inv.argv))
            peaks[inv.label] = max(peaks[inv.label], rss)
            if checker.record(inv, out, code):
                walls[inv.label].append(wall)
        passes += 1
        last_pass = time.perf_counter() - pass_start
    medians = {label: _median(w) for label, w in walls.items()}
    metrics = {"setup_s": _median(setup), "wall_s": sum(medians.values()),
               "peak_rss_mb": max(peaks.values())}
    report.update(
        loadavg_after=os.getloadavg(), passes=passes, setup_samples=len(setup),
        invocations=[{"label": label, "samples": len(walls[label]), "median_s": medians[label],
                      "samples_s": walls[label], "peak_rss_mb": peaks[label],
                      "sha256": digests[label]}
                     for label in walls],
        error_rate=checker.failed / max(checker.attempted, 1), errors=checker.errors)
    correct = checker.failed == 0 and not checker.errors and all(walls.values())
    lines = [
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh interpreters",
        f"  wall_s       {metrics['wall_s']:.4f} s   sum of {len(walls)} per-invocation "
        f"medians, {min(map(len, walls.values()))}+ samples each",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        f"  error_rate   {report['error_rate']:.4f} ratio   "
        f"{checker.failed} of {checker.attempted} invocations",
    ]
    return correct, checker, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, report, lines


# ------------------------------------------------------------ traced

class Sink:
    """Stands in for sys.stdout during an in-process run."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_in_process(inv) -> tuple[float, int, str]:
    """Run one invocation through minperm.cli.main, looked up at call time
    so that a traced run reaches the wrapper.  An exception escaping main
    is reported and gives exit code -1."""
    import minperm.cli
    sink = Sink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            code = minperm.cli.main(list(inv.argv))
        except Exception:
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    return wall, code, "".join(sink.parts)


def run_traced(invocations, seed: int, seconds: float, started: float, workload: str):
    from tracing import Tracer, layer_metrics, layer_values
    checker = Checker()
    report = metadata(seed)
    untraced, traced, per_pass, digests = [], [], [], {}
    first_counts = per_invocation = spans = None
    last_pass, t0 = 0.0, time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        if len(traced) >= 2 and _over_budget(started, last_pass):
            break
        pass_start = time.perf_counter()
        total = 0.0
        for inv in invocations:
            wall, code, out = run_in_process(inv)
            total += wall
            checker.record(inv, out, code)
            digests.setdefault(inv.label, _sha(out))
        untraced.append(total)
        tracer = Tracer()
        stats, counts, sizes, total = [], [], [], 0.0
        tracer.install()
        try:
            for k, inv in enumerate(invocations):
                tracer.reset(k)
                wall, code, out = run_in_process(inv)
                total += wall
                checker.attempted += 1
                if code or _sha(out) != digests[inv.label]:
                    checker.failed += 1
                    checker.errors.append(f"{inv.label}: traced output differs")
                stats.append(tracer.stats)
                counts.append(tracer.counts())
                sizes.append(len(out.encode()))
        finally:
            tracer.uninstall()
        traced.append(total)
        per_pass.append(layer_values(stats, sum(sizes)))
        if first_counts is None:
            first_counts = counts
            per_invocation = [layer_values([st], size) for st, size in zip(stats, sizes)]
            spans = {"file": write_spans(tracer, workload, seed), "kept": len(tracer.spans),
                     "dropped": tracer.dropped}
        elif counts != first_counts:
            checker.failed += 1
            checker.errors.append("traced passes gave different counts")
        last_pass = time.perf_counter() - pass_start
    metrics = layer_metrics(per_pass, _median(traced) - _median(untraced))
    report.update(
        loadavg_after=os.getloadavg(), untraced_pass_s=untraced, traced_pass_s=traced,
        spans=spans, errors=checker.errors,
        invocations=[{"label": inv.label, "sha256": digests[inv.label],
                      "counts": {k: v for k, v in values.items()
                                 if v and not k.endswith("_s")}}
                     for inv, values in zip(invocations, per_invocation)])
    lines = [f"  {name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
             if value]
    return checker.failed == 0, checker, metrics, report, lines


def write_spans(tracer, workload: str, seed: int) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for request, span, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"request": request, "span": span, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")
    return str(path.relative_to(ROOT))


# ------------------------------------------------------------ main

def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    from workloads import WORKLOADS
    started = time.perf_counter()
    os.environ.pop("MINPERM_MAX_BRUTE_N", None)   # default caps, in and out of process
    invocations = WORKLOADS[name].build(random.Random(seed), tiny)
    if trace:
        return run_traced(invocations, seed, seconds, started, name)
    return run_end_to_end(invocations, seed, seconds, started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("count", "enumerate", "verify", "maps", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minperm" / "__init__.py").is_file():
        print(f"error: no minperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import minperm
    if Path(minperm.__file__).resolve().parent != SRC / "minperm":
        print(f"error: imported minperm from {minperm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = ("count", "enumerate", "verify", "maps") if args.workload == "all" else (
        args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, checker, values, report, lines = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print(f"workload {name}  seed {args.seed}  trace {args.trace}")
        print("\n".join(lines))
        print("report " + json.dumps(report))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
        correct &= ok
        attempted += checker.attempted
        failed += checker.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
