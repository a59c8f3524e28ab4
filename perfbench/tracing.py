"""In-memory spans around the benchmark's calls into the package.

A span is [name, start, end, parent, op]: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (None at top
level) and the id of the op it belongs to.  Spans stay in memory while
the benchmark runs and are written out once at the end, so recording
costs one list append per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: a span costs one method call and records nothing."""

    def span(self, name: str):
        return _NULL


class Tracer:
    """Tracing on: keeps every span and per-name counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def durations_by_op(spans: list[list]) -> dict[int, dict[str, float]]:
    """Total seconds per span name within each op."""
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, op in spans:
        per_op[op][name] += end - start
    return per_op
