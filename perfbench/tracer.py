"""Outside-in span tracer for the benchmark.

It replaces public functions of the camtrap modules with timing wrappers
(module attributes, so calls made inside a module go through the wrapper
too), records one span per call in memory and restores every attribute on
exit.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: int  # -1 for a span with no traced caller in its thread
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps attributes with wrap(); restore() (or leaving a `with` block)
    puts the originals back."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._saved: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             info: Optional[Callable] = None, measure_alloc: bool = False) -> None:
        """Replace owner.attr by a wrapper recording span `name`.  `info`
        receives (args, kwargs, result) and returns extra span fields;
        `measure_alloc` records the tracemalloc peak of the call in MiB."""
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            own_alloc = measure_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            extra = info(args, kwargs, result) if info is not None else {}
            if own_alloc:
                extra["peak_alloc_mb"] = peak / 2**20
            span = Span(name, start, end, sid, parent, threading.get_ident(), extra)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        setattr(owner, attr, wrapper)

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child.get(s.sid, 0.0) for s in spans}


def covered_seconds(spans: List[Span]) -> float:
    """Length of the union of top-level span intervals (threads may overlap)."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent < 0)
    total, cur_start, cur_end = 0.0, None, None
    for a, b in intervals:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
