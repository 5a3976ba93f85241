"""Timing wrappers installed from outside the program, and the spans they record.

A wrapper replaces one name where the caller looks it up: in the namespace
of the degconn module that imports it (say
`degconn.census.rejection_sample_batch`), so only calls made from that
module are timed, or on the object through which the benchmark calls
degconn.  Each call becomes one span: run id (the workload unit it belongs
to), its own id, the id of the enclosing span, name, start, end, busy time
and the counters read off its arguments and result.  A wrapped
generator gets one span whose busy time sums the time spent inside its
steps, not the time its consumer spends between them.  Spans stay in memory
until `write` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Counters = Optional[Callable[[tuple, dict, object], Dict[str, float]]]


@contextlib.contextmanager
def patched(targets: Iterable[Tuple[object, str, Callable]]):
    """Set each (owner, attribute) to its replacement; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Span:
    __slots__ = ("run", "id", "parent", "name", "start", "end", "busy",
                 "counters")

    def __init__(self, run: int, sid: int, parent: int, name: str):
        self.run, self.id, self.parent, self.name = run, sid, parent, name
        self.start = time.perf_counter()
        self.end = self.start
        self.busy = 0.0
        self.counters: Dict[str, float] = {}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.run = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(self.run, len(self.spans), parent, name)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def unit(self, run: int):
        """Root span of one workload unit; spans opened inside share its run id."""
        self.run = run
        span = self.open("unit")
        self.stack.append(span.id)
        try:
            yield span
        finally:
            self.stack.pop()
            span.end = time.perf_counter()
            span.busy = span.end - span.start

    def wrap(self, name: str, fn: Callable, counters: Counters = None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.open(name)
            self.stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
                span.busy = span.end - span.start
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.open(name)
            items = 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    self.stack.append(span.id)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span.busy += time.perf_counter() - t0
                        self.stack.pop()
                    items += 1
                    yield item
            finally:
                span.end = time.perf_counter()
                span.counters = {"items": items}
        return wrapper

    def self_times(self) -> List[float]:
        """Busy time of each span minus the busy time of its children."""
        own = [s.busy for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.busy
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": s.run, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "busy_s": s.busy, "counters": s.counters}) + "\n")
