"""Spans around the benchmark's calls into swstab's public functions.

A span is one call into one layer: its name is ``"<layer>.<call>"``, it
records start and end (``time.perf_counter``), the span that was open when
it started, the op it belongs to, and the units of work it handled
(``tags``, e.g. ``{"candidates": 812}``).  Spans stay in memory; the
metrics are derived from them when the run ends.

``NullTracer`` has the same interface and records nothing, so an untraced
op executes exactly the same benchmark code minus the bookkeeping.
"""

from __future__ import annotations

from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counted", "tags")

    def __init__(self, name, parent, op, counted):
        self.name = name
        self.parent = parent
        self.op = op
        self.counted = counted
        self.start = self.end = 0.0
        self.tags = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def tag(self, **units):
        pass


class Tracer:
    """Tracing on: one Span per call, nested by the call stack.

    ``counted`` marks the deterministic part of a run (set-up, probe and
    the first ops of the traced pass); work counts are summed over counted
    spans only, so they repeat exactly for a given seed.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counted = True
        self._last: Span | None = None

    def call(self, name, fn, /, *args, **kwargs):
        span = Span(
            name, self._stack[-1] if self._stack else -1, self.op, self.counted
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._last = span

    def tag(self, **units):
        """Attach units of work to the span that finished last."""
        self._last.tags.update(units)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out
