"""In-memory span recorder for the traced benchmark run.

A span is one timed call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started, the window it belongs to, and a ``size`` -- a count of the work it
did, whose meaning depends on the span (edges for the Laguerre filter, bytes
for a structure build, recorded ops for a window).  Spans stay in memory
until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    window: object
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records properly nested spans of a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.ops = 0    # autodiff ops recorded while tracing is installed

    def open(self, name: str, window=None) -> int:
        """Start a span; a span without a window inherits its parent's."""
        parent = self._open[-1] if self._open else None
        if window is None and parent is not None:
            window = self.spans[parent].window
        self.spans.append(Span(name, self.clock(), 0.0, parent, window))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int, size: int = 0) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        span = self.spans[index]
        span.end = self.clock()
        span.size = size

    def wrap(self, name: str, fn, size_of=None):
        """``fn`` recording one span per call; ``size_of(args, result)``
        gives the span's size."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            size = 0
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                self.close(index, size)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def per_window_self(self) -> dict:
        """Sum of self times of every span of each window."""
        totals: dict = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            totals[s.window] += own
        return dict(totals)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
