"""Self-test of the benchmark, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

1. Runs every workload at tiny size in both modes and checks that the
   metrics printed are exactly those BENCHMARK.json lists, with its units,
   and that nothing failed (the traced mode also checks that its two
   traced passes gave identical counts).
2. Feeds corrupted stdout to the output checks: every tiny invocation's
   output cut in half, and one count changed by one; each must count as a
   failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files; it must exit nonzero without printing a result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for name in WORKLOADS:
        for trace in (False, True):
            ok, checker, metrics, report, _ = run.run_workload(name, 1, 0.1, trace, tiny=True)
            got = {k: unit for k, (_, unit) in metrics.items()}
            expect(ok and checker.failed == 0 and checker.attempted > 0,
                   f"tiny {name} trace={int(trace)} ran correctly {report['errors']}")
            expect(got == wanted[trace],
                   f"tiny {name} trace={int(trace)} prints every metric with its unit")


def corrupted_outputs() -> None:
    for name, workload in WORKLOADS.items():
        for inv in workload.build(random.Random(1), True):
            _, code, out = run.run_in_process(inv)
            checker = run.Checker()
            expect(checker.record(inv, out, code), f"{inv.label}: real output passes")
            checker.record(inv, out[:len(out) // 2], code)
            expect(checker.failed == 1, f"{inv.label}: half output counts as a failure")
    inv = WORKLOADS["count"].build(random.Random(1), True)[0]
    _, code, out = run.run_in_process(inv)
    head, _, last = out.rstrip("\n").rpartition(",")
    checker = run.Checker()
    checker.record(inv, f"{head},{int(last) + 1}\n", code)
    expect(checker.failed == 1 and checker.attempted == 1,
           f"{inv.label}: a count off by one counts as a failure")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.*"):
        shutil.copy(path, bare / HERE.name)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "without the sources the benchmark exits nonzero and prints no result")


if __name__ == "__main__":
    metric_names()
    corrupted_outputs()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
