"""Span tracing for the traced benchmark run.

The traced run wraps public functions of `aoi_mfg` at the module attribute
their caller looks the name up in (for example `cli.bisection_lambda`, not
`scheduler.bisection_lambda` alone), so the program itself is unchanged.
Each call becomes one span: name, start, end, parent span and sweep-point
id. Spans stay in memory and are written out when the run ends. A layer is
the span name's prefix before the first dot, which is the `aoi_mfg` module
the wrapped function belongs to.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

# (module of aoi_mfg, attribute, span name). A function appears once for
# every module that imported it under its own name.
SPANNED = (
    ("cli", "load_scenario", "model.load_scenario"),
    ("cli", "ScenarioConfig", "model.ScenarioConfig"),
    ("cli", "population_for", "model.population_for"),
    ("sim", "population_for", "model.population_for"),
    ("model", "load_scenario", "model.load_scenario"),
    ("model", "population_for", "model.population_for"),
    ("cli", "_fig2_row", "cli.point"),
    ("cli", "_game_setting", "cli.point"),
    ("cli", "bisection_lambda", "scheduler.bisection_lambda"),
    ("scheduler", "bisection_lambda", "scheduler.bisection_lambda"),
    ("scheduler", "aggregate_rate", "scheduler.aggregate_rate"),
    ("scheduler", "solve_kappa", "threshold.solve_kappa"),
    ("cli", "bound_report", "analysis.bound_report"),
    ("analysis", "bound_report", "analysis.bound_report"),
    ("cli", "solve_mfe", "mfg.solve_mfe"),
    ("mfg", "solve_mfe", "mfg.solve_mfe"),
    ("mfg", "solve_riccati", "mfg.solve_riccati"),
    ("mfg", "mf_operator", "mfg.mf_operator"),
    ("cli", "run_scheduling_experiment", "sim.sched"),
    ("cli", "run_game_experiment", "sim.game"),
)

# Called once per kappa candidate: counted, not spanned, so that the trace
# does not swamp the time it measures.
COUNTED = (("threshold", "f_tail", "threshold.f_tail"),)

# Span names that open a new sweep point; spans below them share its id.
POINT_SPANS = ("cli.point", "bench.point")


@contextmanager
def patched(module, name, make_wrapper):
    """Replace `module.name` by `make_wrapper(original)` for the block."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


class Tracer:
    """In-memory span recorder; it records only inside `installed()`."""

    def __init__(self):
        self.active = False
        self.spans = []       # [name, start, end, parent index, point id]
        self.counts = Counter()
        self.missing = []     # wrapped names the program no longer has
        self._stack = []
        self._point = 0
        self._next_point = 0

    def _open(self, name):
        stack = self._stack
        if name in POINT_SPANS:
            self._next_point += 1
            self._point = self._next_point
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._point]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()
        parent = rec[3]
        if rec[0] in POINT_SPANS:
            self._point = self.spans[parent][4] if parent >= 0 else 0

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _spanning(self, fn, name):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _counting(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed function and record spans for the block."""
        with ExitStack() as stack:
            for table, make in ((SPANNED, self._spanning),
                                (COUNTED, self._counting)):
                for mod_name, attr, name in table:
                    module = importlib.import_module(f"aoi_mfg.{mod_name}")
                    if not hasattr(module, attr):
                        if f"{mod_name}.{attr}" not in self.missing:
                            self.missing.append(f"{mod_name}.{attr}")
                        continue
                    stack.enter_context(patched(
                        module, attr, lambda fn, n=name, m=make: m(fn, n)))
            self.active = True
            try:
                yield
            finally:
                self.active = False

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "point"],
                "spans": self.spans, "counts": dict(self.counts),
                "missing": self.missing}


def pass_profile(spans, root: int) -> dict:
    """Totals of one pass, whose root span is `spans[root]`.

    Returns {"dur": name -> total duration, "calls": name -> calls,
    "self": layer -> total self time}. Self time is a span's duration minus
    the durations of its direct children.
    """
    dur, calls, child = defaultdict(float), Counter(), defaultdict(float)
    members = [root]
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] not in inside:
            break
        inside.add(i)
        members.append(i)
    for i in members:
        name, t0, t1, parent, _ = spans[i]
        dur[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    for i in members:
        name, t0, t1, _, _ = spans[i]
        self_time[name.split(".", 1)[0]] += (t1 - t0) - child[i]
    return {"dur": dur, "calls": calls, "self": self_time}


def median(values):
    return statistics.median(values) if values else 0.0
