"""Per-layer tracing of hoftrace from outside: wrappers at module attributes.

Each wrapper is installed at the attribute through which its callers look the
function up (for example ``hoftrace.traces.chambers_recursive`` is what the
memoized coefficient table calls).  Public functions that run a few times
per operation get a span; per-term functions get a counter, which adds a
call count and a time total but stores no span.  Spans stay in memory until
the run ends and :func:`write_snapshot` writes them out.

A span is [name, start, end, parent index, op id, covered seconds].  Time
spent in a counter, and in a direct child span, is charged to the enclosing
span as covered time, so a span's self time is its duration minus what it
covered.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"  # call count and time, no span
TALLY = "tally"  # call count only (the callee may open spans of its own)
TERMS = "terms"  # generator: items yielded and time spent producing them

# (module, attribute, kind, layer name)
WRAP_POINTS = (
    ("hoftrace.cli", "main", SPAN, "cli.main"),
    ("hoftrace.cli", "chambers_nested", SPAN, "chambers.nested"),
    ("hoftrace.cli", "chambers_recursive", SPAN, "chambers.recursive"),
    ("hoftrace.traces", "chambers_recursive", SPAN, "chambers.recursive"),
    ("hoftrace.traces", "enumerate_partition_terms", TERMS, "core.enumerate"),
    ("hoftrace.traces", "multinomial_weight", COUNT, "core.weight"),
    ("hoftrace.traces", "cached_polynomial", TALLY, "traces.cached_polynomial"),
    ("hoftrace.dos", "cached_polynomial", TALLY, "traces.cached_polynomial"),
    ("hoftrace.traces", "almost_mathieu_trace", SPAN, "traces.full_trace"),
    ("hoftrace.traces", "hofstadter_trace", SPAN, "traces.full_trace"),
    ("hoftrace.traces", "pm_s_trace", SPAN, "traces.pm_s"),
    ("hoftrace.traces", "pm_s_coefficients", SPAN, "traces.pm_s"),
    ("hoftrace.dos", "pm_s_coefficients", SPAN, "traces.pm_s"),
    ("hoftrace.traces", "trace_series", SPAN, "traces.series"),
    ("hoftrace.traces", "newton_power_sums", SPAN, "traces.newton"),
    ("hoftrace.dos", "dos_deformed", COUNT, "dos.deformed"),
    ("hoftrace.dos", "dos_moment", SPAN, "dos.moment"),
    ("hoftrace.dos", "integrate_point_traces", SPAN, "dos.integrate"),
    ("hoftrace.dos", "integrate_point_traces_exact", SPAN, "dos.integrate"),
    ("hoftrace.oracle", "bz_trace", SPAN, "oracle.bz_trace"),
    ("hoftrace.oracle", "walk_trace_table", SPAN, "oracle.walk"),
    ("hoftrace.oracle", "point_spectrum_roots", SPAN, "oracle.point_roots"),
)

# second counters on some wrap points: (counter, amount added per call)
EXTRA_COUNTS = {
    # builds behind the memoized coefficient table, i.e. its cache misses
    ("hoftrace.traces", "chambers_recursive"): ("traces.coeff_builds", lambda *a, **k: 1),
    # one q x q eigensolve per grid point
    ("hoftrace.oracle", "bz_trace"): ("oracle.eigensolves", lambda flux, lam, n, grid: grid * grid),
}


class Tracer:
    """Collects spans and counters for the operations run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, covered]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.op, 0.0]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                self._charge(record[2] - record[1])
        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                counters[name + ".calls"] += 1
                counters[name + ".s"] += elapsed
                self._charge(elapsed)
        return wrapper

    def _tally(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _terms(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            counters[name + ".calls"] += 1
            while True:
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    counters[name + ".s"] += elapsed
                    self._charge(elapsed)
                counters[name + ".items"] += 1
                yield item
        return wrapper

    # -- installation --

    def install(self) -> None:
        """Replace every wrap point by its wrapper."""
        makers = {SPAN: self._span, COUNT: self._count, TALLY: self._tally, TERMS: self._terms}
        for module_name, attr, kind, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = makers[kind](name, original)
            if (module_name, attr) in EXTRA_COUNTS:
                wrapped = self._with_extra_count(EXTRA_COUNTS[module_name, attr], wrapped)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def _with_extra_count(self, spec: tuple[str, object], fn):
        counter, amount = spec
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += amount(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output --

    def snapshot(self) -> dict:
        """Plain-data copy of the spans and counters, for merging and dumping."""
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def write_snapshot(snapshot: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)


def layer_totals(snapshot: dict) -> dict[str, float]:
    """Inclusive seconds and call counts per span name, plus cli.main self time."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _parent, _op, covered in snapshot["spans"]:
        out[name + ".s"] += end - start
        out[name + ".calls"] += 1
        if name == "cli.main":
            out["cli.main.self_s"] += end - start - covered
    for key, value in snapshot["counters"].items():
        out[key] += value
    return out
