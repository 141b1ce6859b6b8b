"""In-memory spans for the traced benchmark run.

A span is (id, parent id, name, start, end, attrs).  Spans nest through a
stack, since the benchmark is one single-threaded closed loop.  Nothing is
written while the workload runs; `write` dumps every span at the end.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; every method is a cheap no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, observe=None):
        """`fn` inside a span; `observe(span, args, kwargs, result)` adds attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None and span is not None:
                observe(span, args, kwargs, result)
            return result
        return traced

    def write(self, path) -> None:
        rows = [[s.id, s.parent, s.name, s.start, s.end, s.attrs]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "attrs"], "spans": rows}, fh, default=str)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another on the single thread, so
    their intervals are disjoint and the covered time is their sum.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}
