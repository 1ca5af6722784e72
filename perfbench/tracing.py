"""In-process tracing of minperm's modules, installed from outside.

`Tracer.install` replaces each traced function with a wrapper at every
module that binds it (``from .x import y`` copies the name into the
importing module), and replaces the check functions held in
``verify.SUITES``, whose table stores function objects.  Each wrapper
opens a span (name, start, end, parent) and adds to per-function counts.
Functions that return generators are timed across every ``next``, not
only at the call.  `uninstall` puts every original back.

Self time is a span's duration minus the durations of its child spans;
time spent in untraced functions is charged to the nearest traced caller.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# module -> traced functions; the per-layer metrics are taken from these
TRACED = {
    "permutations": ("enumerate_minimal", "is_minimal", "is_minimal_by_deletion",
                     "descent_count", "decreasing_run_lengths", "minimality_violation"),
    "counting": ("minimal_count", "minimal_count_by_runs", "compositions_min2"),
    "tableaux": ("det_rational", "skew_syt_count", "count_standard_fillings",
                 "skew_standard_tableaux", "is_standard"),
    "bijection": ("perm_to_tableau", "tableau_to_perm"),
    "rsk": ("row_insert", "rsk_trace", "knuth_chain", "apply_knuth_move",
            "inverse_bump", "minimal_to_syt", "syt_to_minimal"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
GENERATORS = {"permutations.enumerate_minimal", "tableaux.skew_standard_tableaux",
              "counting.compositions_min2"}
MODULES = ("minperm", "minperm.permutations", "minperm.counting", "minperm.tableaux",
           "minperm.bijection", "minperm.rsk", "minperm.verify", "minperm.cli")
SPAN_LIMIT = 50_000


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# name -> function(stat, args, result) adding work counts beyond calls
WORK = {
    "tableaux.det_rational": lambda s, a, r: (
        s.maximum("max_dim", len(a[0])), s.maximum("max_out_bits", _bits(r))),
    "tableaux.count_standard_fillings": lambda s, a, r: s.add("fillings", r),
    "bijection.perm_to_tableau": lambda s, a, r: s.add("cells", r.shape.size),
    "bijection.tableau_to_perm": lambda s, a, r: s.add("cells", len(r)),
    "rsk.row_insert": lambda s, a, r: s.add("input_cells", sum(map(len, a[0]))),
    "rsk.rsk_trace": lambda s, a, r: s.add("letters", len(r[2])),
    "rsk.knuth_chain": lambda s, a, r: s.add("moves", len(r)),
}


class Stat:
    __slots__ = ("calls", "busy", "own", "yielded", "work", "parents")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.own = 0.0
        self.yielded = 0
        self.work: dict[str, int] = {}
        self.parents: dict[str, int] = defaultdict(int)  # calls by caller span

    def add(self, key: str, amount: int) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    def maximum(self, key: str, amount: int) -> None:
        self.work[key] = max(self.work.get(key, 0), amount)


class Tracer:
    """Spans and counts for one traced run; `reset` starts a new request
    (one CLI invocation), whose spans share its request number."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list] = []      # open spans: [child_time, name, span_id]
        self.spans: list[tuple] = []     # (request, span_id, parent_id, name, start, end)
        self.dropped = 0
        self.request = 0
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self, request: int) -> None:
        self.stats = defaultdict(Stat)
        self.request = request

    def _close(self, stat: Stat, frame: list, start: float) -> None:
        end = time.perf_counter()
        duration = end - start
        stack = self.stack
        stack.pop()
        stat.busy += duration
        stat.own += duration - frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((self.request, frame[2], parent and parent[2],
                               frame[1], start, end))
        else:
            self.dropped += 1

    def _open(self, stat: Stat, name: str) -> list:
        stack = self.stack
        stat.parents[stack[-1][1] if stack else ""] += 1
        self._next_id += 1
        frame = [0.0, name, self._next_id]
        stack.append(frame)
        return frame

    def _iterate(self, name: str, iterator):
        while True:
            stat = self.stats[name]
            frame = self._open(stat, name)
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(stat, frame, start)
            stat.yielded += 1
            yield item

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        generator = name in GENERATORS

        def traced(*args, **kwargs):
            stat = self.stats[name]
            stat.calls += 1
            frame = self._open(stat, name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat, frame, start)
            if work is not None:
                work(stat, args, result)
            return self._iterate(name, result) if generator else result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for short, names in TRACED.items():
            module = importlib.import_module(f"minperm.{short}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{fn_name}", fn))
        verify = importlib.import_module("minperm.verify")
        for checks in verify.SUITES.values():
            for fn in checks:
                wrappers[id(fn)] = (fn, self.wrap(f"verify.{fn.__name__}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._suites = dict(verify.SUITES)
        for suite, checks in self._suites.items():
            verify.SUITES[suite] = tuple(wrappers[id(fn)][1] for fn in checks)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        importlib.import_module("minperm.verify").SUITES.update(self._suites)

    def counts(self) -> dict[str, dict]:
        """Per-function counts of the current request: calls, yields, work
        counts and callers.  These must repeat exactly between runs."""
        return {name: {"calls": s.calls, "yielded": s.yielded, **s.work,
                       "callers": dict(s.parents)}
                for name, s in self.stats.items()}


# ------------------------------------------------------------ per-layer metrics

# (traced function, reported fields); a field ending in _s is seconds
FUNCTION_FIELDS = (
    ("permutations.enumerate_minimal", ("calls", "busy_s", "self_s", "yielded")),
    ("permutations.is_minimal", ("calls", "self_s")),
    ("permutations.is_minimal_by_deletion", ("calls", "self_s")),
    ("permutations.descent_count", ("calls", "self_s")),
    ("permutations.decreasing_run_lengths", ("calls", "self_s")),
    ("permutations.minimality_violation", ("calls", "self_s")),
    ("counting.minimal_count", ("calls", "self_s")),
    ("counting.minimal_count_by_runs", ("calls", "self_s")),
    ("counting.compositions_min2", ("yielded",)),
    ("tableaux.det_rational", ("calls", "self_s", "max_dim", "max_out_bits")),
    ("tableaux.skew_syt_count", ("calls", "self_s")),
    ("tableaux.count_standard_fillings", ("calls", "self_s", "fillings")),
    ("tableaux.skew_standard_tableaux", ("yielded", "busy_s")),
    ("tableaux.is_standard", ("calls", "self_s")),
    ("bijection.perm_to_tableau", ("calls", "self_s", "cells")),
    ("bijection.tableau_to_perm", ("calls", "self_s", "cells")),
    ("rsk.row_insert", ("calls", "self_s", "input_cells")),
    ("rsk.rsk_trace", ("calls", "self_s", "letters")),
    ("rsk.knuth_chain", ("calls", "self_s", "moves")),
    ("rsk.apply_knuth_move", ("calls", "self_s")),
    ("rsk.inverse_bump", ("calls", "self_s")),
    ("rsk.minimal_to_syt", ("calls", "self_s")),
    ("rsk.syt_to_minimal", ("calls", "self_s")),
)
CHECKS = ("check_three_way_counts", "check_catalan_law", "check_one_ascent_closed_form",
          "check_two_ascent_closed_form", "check_odd_length_formula",
          "check_double_descent_refinement", "check_determinant_vs_enumeration",
          "check_bijection_round_trip", "check_rsk_refinement", "check_insertion_paths",
          "check_worked_chain")
MAX_KEYS = {"max_dim", "max_out_bits"}


def _unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    return {"max_out_bits": "bits", "output_bytes": "bytes", "yield_per_leaf": "ratio",
            "dets_per_count": "ratio"}.get(field, "count")


LAYER_METRICS = tuple(
    [(f"{fn}.{field}", _unit(field)) for fn, fields in FUNCTION_FIELDS for field in fields]
    + [("permutations.yield_per_leaf", "ratio"), ("counting.dets_per_count", "ratio")]
    + [(f"verify.{check}.busy_s", "s") for check in CHECKS]
    + [("verify.run_suite.self_s", "s"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
       ("trace.overhead_s", "s")])


def merge(stats_list: list[dict[str, Stat]]) -> dict[str, Stat]:
    merged: dict[str, Stat] = defaultdict(Stat)
    for stats in stats_list:
        for name, s in stats.items():
            m = merged[name]
            m.calls += s.calls
            m.busy += s.busy
            m.own += s.own
            m.yielded += s.yielded
            for key, value in s.work.items():
                (m.maximum if key in MAX_KEYS else m.add)(key, value)
            for caller, calls in s.parents.items():
                m.parents[caller] += calls
    return merged


def layer_values(stats_list: list[dict[str, Stat]], output_bytes: int) -> dict[str, float]:
    """Every per-layer metric but trace.overhead_s, over the given
    invocations' stats."""
    s = merge(stats_list)
    fields = {"calls": lambda st: st.calls, "busy_s": lambda st: st.busy,
              "self_s": lambda st: st.own, "yielded": lambda st: st.yielded}
    values = {}
    for fn, names in FUNCTION_FIELDS:
        st = s.get(fn, Stat())
        for field in names:
            values[f"{fn}.{field}"] = fields[field](st) if field in fields else st.work.get(field, 0)
    enum, leaves = s.get("permutations.enumerate_minimal"), s.get("permutations.is_minimal")
    leaves = leaves.parents.get("permutations.enumerate_minimal", 0) if leaves else 0
    values["permutations.yield_per_leaf"] = enum.yielded / leaves if leaves else 0.0
    counts, dets = s.get("counting.minimal_count"), s.get("counting.minimal_count_by_runs")
    dets = dets.parents.get("counting.minimal_count", 0) if dets else 0
    values["counting.dets_per_count"] = dets / counts.calls if counts and counts.calls else 0.0
    for check in CHECKS:
        values[f"verify.{check}.busy_s"] = s.get(f"verify.{check}", Stat()).busy
    values["verify.run_suite.self_s"] = s.get("verify.run_suite", Stat()).own
    values["cli.self_s"] = s.get("cli.main", Stat()).own
    values["cli.output_bytes"] = output_bytes
    return values


def layer_metrics(per_pass: list[dict[str, float]], overhead: float) -> dict[str, tuple]:
    """Counts and ratios from the first traced pass, times as the median over
    the passes; {name: (value, unit)} in LAYER_METRICS order."""
    values = dict(per_pass[0], **{"trace.overhead_s": overhead})
    for name, unit in LAYER_METRICS:
        if unit == "s" and name != "trace.overhead_s":
            values[name] = statistics.median(p[name] for p in per_pass)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}
