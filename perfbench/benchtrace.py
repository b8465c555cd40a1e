"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer: its name, start and end in
``perf_counter_ns`` nanoseconds, the index of the span that was open when it
began (its parent), the id of the op it belongs to, and attributes such as
the model or the matrix size.  Spans stay in memory and are written out
once, when the run ends.  The recorder is single-threaded: the benchmark
starts no threads, and it never records spans inside the program's own
worker pool.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``op`` is stamped on every span opened after it
    is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self.op, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, attrs):
        """``fn`` with every call recorded as a span; ``attrs(*args, **kwargs)``
        gives the span's attributes."""

        def traced(*args, **kwargs):
            with self.span(name, **attrs(*args, **kwargs)):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, selfs)):
                row = {
                    "id": index,
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "self_ns": own,
                    "attrs": span.attrs,
                }
                fh.write(json.dumps(row, default=str) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    op = ""

    @contextmanager
    def span(self, name: str, **attrs):
        yield None


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its children
    cover.  Overlapping children are counted once, and a child's interval is
    clipped to its parent's."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.ns - covered)
    return out


@contextmanager
def patched(module, name: str, replacement):
    """Temporarily rebind ``module.name``; the original comes back on exit."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)
