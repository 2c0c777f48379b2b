"""In-memory span tracer for the benchmark's traced run.

Spans are opened and closed from the benchmark's own code, around calls
into qubokit's public functions; `patch` swaps a module attribute for a
wrapper and puts the original back on exit, so nothing under src/ knows
it is being traced.

A span is the list [id, name, run, parent, start, end].  Every span of one
solver run carries the same run id.  Spans opened on a worker thread of
the solver's replica pool take as parent the innermost open span of the
thread that created the tracer, which is blocked inside the step that
dispatched the work.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

ID, NAME, RUN, PARENT, START, END = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = self._stack()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        outer = stack or self._owner
        parent = outer[-1][ID] if outer else None
        span = [next(self._ids), name, self.run, parent, time.perf_counter(), 0.0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def write(self, path) -> None:
        keys = ("id", "name", "run", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[ID]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def patch(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set obj.attr = value for each triple; restore the originals on exit."""
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def self_times(spans: list[list]) -> dict[int, float]:
    """Self seconds of each span, keyed by span id.

    At every instant the elapsed time goes to the innermost open spans,
    those with no open child, split equally when several are open at once
    (sibling spans on pool threads).  For strictly nested spans this is
    duration minus the time covered by children, and in every case the
    self times of one run sum to the time covered by its root span.
    """
    events = []
    for s in spans:
        if s[END] <= s[START]:
            continue  # zero length: no self time, and no room for children
        events.append((s[START], 1, s[ID]))
        events.append((s[END], 0, s[ID]))
    events.sort()
    parent = {s[ID]: s[PARENT] for s in spans}
    open_children: dict[int, int] = defaultdict(int)
    open_ids: set[int] = set()
    leaves: set[int] = set()
    acc: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                acc[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            open_ids.add(sid)
            leaves.add(sid)
            if p in open_ids:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if p in open_ids:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return {s[ID]: acc[s[ID]] for s in spans}
