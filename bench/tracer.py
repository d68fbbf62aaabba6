"""Spans and counters recorded from the benchmark's side of each layer call.

A span is opened around every call the benchmark makes into a public
function of a `vassiliev` module.  Work a layer does inside another
layer's call is not seen here, so it counts toward the outer span's self
time.  With tracing off, `call` is a plain call and `count` does nothing.

The tracer also marks where a pass may be paused: `step` ends a step of
the work.  In a lockstep pass (see `bench/workloads.py`) it hands over to
the other process of the pair and waits; the wait is summed in `paused`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """In-memory span log for one pass of one workload."""

    def __init__(self, enabled: bool, workload: str):
        self.enabled = enabled
        self.workload = workload
        self.spans = []        # [name, start, end, parent index, item id]
        self.counts = {}
        self._stack = []
        self._item = None
        self.pause = None      # lockstep hand-over, set by the pass
        self.paused = 0.0      # time it waited, summed by the hand-over

    def step(self):
        """End a step of the work; in a lockstep pass, wait for the turn."""
        if self.pause is not None:
            self.pause({"step": True})

    def call(self, name, fn, *args, **kwargs):
        """Call `fn`, recording a span called `name` when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def item(self, item_id):
        """Scope of one benchmark item; its layer spans point to it."""
        self._item = item_id
        try:
            if self.enabled:
                with self._span("bench.item"):
                    yield
            else:
                yield
        finally:
            self._item = None

    @contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, clock(), None, parent, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = clock()
            self._stack.pop()

    def self_times(self):
        """Busy self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def records(self):
        """Spans as dicts, for writing out when the run ends."""
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "workload": self.workload, "item": i}
                for n, s, e, p, i in self.spans]
