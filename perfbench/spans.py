"""In-memory spans around the benchmark's own calls into the library.

A span records its name, start, end, parent span and item id; spans are
kept in memory and written out once, when the run ends. With tracing
off the benchmark uses NullTracer, whose span() is a reusable no-op
context, so the measured loop pays one attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans as [name, start_ns, end_ns, parent, item, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    @contextlib.contextmanager
    def span(self, name: str):
        attrs = {}
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.item, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start_ns", "end_ns", "parent", "item", "attrs"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    item = None

    def __init__(self):
        self._null = contextlib.nullcontext({})

    def span(self, name: str):
        return self._null


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def group(spans, keep) -> dict:
    """name -> list of (self_ns, attrs) over the spans whose item passes keep()."""
    out = defaultdict(list)
    for s, own in zip(spans, self_times(spans)):
        if keep(s[4]):
            out[s[0]].append((own, s[5]))
    return out
