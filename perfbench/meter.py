"""Host-time accounting for the benchmark, kept outside the simulator.

Every time the benchmark reports is read from :data:`reference.clock`,
CPU seconds of the benchmark's one thread.  Wall time would also count
the stretches in which the process waits for a core.  CPU time still
moves with the speed of a shared host; :class:`reference.Gauge` gauges
that speed while a unit runs.

A :class:`Meter` times calls the benchmark makes into the program and
adds each one to a named bucket.  With tracing on it also keeps every
timed call as a span (name, start, end, parent) in memory, and writes
them once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from reference import Gauge, clock


@contextmanager
def stopwatch(out: Any, gauged: bool = True) -> Iterator[None]:
    """Set ``out.cpu`` and ``out.wall`` to the body's CPU and wall
    seconds.  When ``gauged``, a :class:`Gauge` samples the host during
    the body: ``out.gauge`` is the mean sample, and ``out.cpu`` leaves
    the samples out."""
    gauge = Gauge().start() if gauged else None
    c0, w0 = clock(), perf_counter()
    try:
        yield
    finally:
        cpu, out.wall = clock() - c0, perf_counter() - w0
        if gauge is not None:
            gauge.stop()
            cpu -= gauge.seconds
            out.gauge = gauge.mean
        out.cpu = cpu


class Meter:
    """Buckets of CPU seconds and call counts, plus optional spans."""

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._events: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._origin = clock()

    @contextmanager
    def span(self, name: str, bucket: Optional[str] = None) -> Iterator[None]:
        """Time the body; add it to ``bucket`` and, when tracing, keep it
        as a span nested under the innermost open one."""
        if self.tracing:
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            if bucket is not None:
                self.seconds[bucket] += t1 - t0
                self.calls[bucket] += 1
            if self.tracing:
                self._stack.pop()
                self._events.append({
                    "name": name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (t0 - self._origin) * 1e6,
                    "dur": (t1 - t0) * 1e6,
                    "args": {"id": sid, "parent": parent},
                })

    def call(self, bucket: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` as a span named and bucketed ``bucket``."""
        with self.span(bucket, bucket):
            return fn(*args, **kwargs)

    def counted(self, bucket: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a hot callback: time every call into ``bucket`` without
        keeping a span per call."""
        seconds, calls = self.seconds, self.calls

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[bucket] += clock() - t0
                calls[bucket] += 1

        return timed

    def fork(self) -> "Meter":
        """A meter with fresh buckets that adds its spans to this one's
        trace, under the span open at the time."""
        child = Meter(self.tracing)
        child._events, child._stack = self._events, self._stack
        child._ids, child._origin = self._ids, self._origin
        return child

    @property
    def span_count(self) -> int:
        return len(self._events)

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as a Chrome trace-event document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self._events,
                       "displayTimeUnit": "ms"}, fh)
