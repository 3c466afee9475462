"""Spans recorded in memory around calls into egns, and their self times.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the span that was open when it started (its
parent), the thread it ran in, whether it returned normally, and counters
read from its arguments and result.  Spans are kept in a list and written
out once, when the traced command has finished.

This module imports nothing from egns, so run.py can use it to read
spans back and compute self times.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# fields of one span record, in the order they are stored and written
FIELDS = ("id", "parent", "name", "thread", "start", "end", "ok", "counts")

# spans named with this prefix time the benchmark's own probes; they count
# as children of the span they sit in, so no layer is charged for them
PROBE_PREFIX = "bench."


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.records = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of the calling thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, counts=None, parent=None):
        """Run fn(*args, **kwargs) inside a span.

        ``counts(args, result)`` returns a dict of counters for a call that
        returned; the time it takes is recorded as a probe span, not as part
        of ``name``.  ``parent`` overrides the calling thread's open span,
        for work handed to another thread.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            info = {}
            if ok and counts is not None:
                info = counts(args, result)
                self.records.append(
                    (next(self._ids), parent, PROBE_PREFIX + "probe",
                     threading.get_ident(), end, time.perf_counter(), True, {})
                )
            self.records.append(
                (span_id, parent, name, threading.get_ident(), start, end, ok, info)
            )
        return result

    def wrap(self, fn, name, counts=None):
        """A function that calls fn inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def as_dicts(self):
        return [dict(zip(FIELDS, rec)) for rec in self.records]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover.

    Children running in other threads may overlap each other, so the
    covered part is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
