"""Spans and events recorded around layer entry points.

The benchmark never edits the program: it wraps the program's public
functions and methods from the outside (:func:`instrument`) and records a
span for every call.  A span is ``(id, parent, request, name, start,
end)`` with ``time.perf_counter_ns`` timestamps; spans of one request
share its ``request`` id, and a span's parent may live in another thread
or another process (the client's request span is the parent of the
server's handler span).  Spans stay in per-thread arrays in memory and
are written out once, at the end (or on demand before a crash).

An *event* is ``(request, name, value)``: a count or a byte total taken
at the same boundary as a span (fsyncs, manifest bytes, duplicates).

:func:`self_times` turns spans into per-span self time: the span's
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from array import array

__all__ = ["Tracer", "call_then", "instrument", "self_times",
           "exclusive_times"]


class Tracer:
    """In-memory span and event recorder shared by every thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_arrays: list[tuple[array, array]] = []
        self._names: dict[str, int] = {}
        self.names: list[str] = []
        self._ids = itertools.count(1)
        #: Offset that keeps span ids of different processes apart.
        self._id_base = (os.getpid() & 0xFFFFF) << 36

    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        try:
            local.stack
        except AttributeError:
            local.stack = []
            local.parent = 0
            local.request = 0
            local.spans = array("q")
            local.events = array("q")
            with self._lock:
                self._thread_arrays.append((local.spans, local.events))
        return local

    def name_id(self, name: str) -> int:
        """Stable small integer for ``name`` (the arrays hold integers)."""
        try:
            return self._names[name]
        except KeyError:
            with self._lock:
                if name not in self._names:
                    self._names[name] = len(self.names)
                    self.names.append(name)
                return self._names[name]

    def new_id(self) -> int:
        return self._id_base + next(self._ids)

    # ------------------------------------------------------------------ #
    def context(self) -> tuple[int, int]:
        """``(request, parent span)`` a child started here would get."""
        local = self._state()
        return local.request, (local.stack[-1] if local.stack
                               else local.parent)

    def adopt(self, request: int, parent: int) -> None:
        """Make this thread's next root spans children of ``parent``."""
        local = self._state()
        local.request = int(request)
        local.parent = int(parent)

    def begin(self, name: str) -> tuple[int, int, int, int]:
        """Open a span on this thread's stack; close it with :meth:`end`."""
        local = self._state()
        span_id = self.new_id()
        parent = local.stack[-1] if local.stack else local.parent
        local.stack.append(span_id)
        return span_id, parent, self.name_id(name), time.perf_counter_ns()

    def end(self, token) -> None:
        end = time.perf_counter_ns()
        span_id, parent, name, start = token
        local = self._state()
        if local.stack and local.stack[-1] == span_id:
            local.stack.pop()
        else:  # closed out of order: drop it from wherever it sits
            try:
                local.stack.remove(span_id)
            except ValueError:
                pass
        local.spans.extend((span_id, parent, local.request, name, start, end))

    def record(self, name: str, start: int, end: int, *, request: int,
               parent: int) -> int:
        """Record a finished span whose ends were taken elsewhere."""
        local = self._state()
        span_id = self.new_id()
        local.spans.extend((span_id, parent, request, self.name_id(name),
                            int(start), int(end)))
        return span_id

    def event(self, name: str, value: int = 1, request: int | None = None
              ) -> None:
        local = self._state()
        local.events.extend((local.request if request is None else request,
                             self.name_id(name), int(value)))

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        name_id = self.name_id(name)
        clock = time.perf_counter_ns
        ids = self._ids
        base = self._id_base
        state = self._state
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = state().stack
            span_id = base + next(ids)
            parent = stack[-1] if stack else local.parent
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.spans.extend((span_id, parent, local.request, name_id,
                                    start, end))

        return traced

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Every span and event recorded so far, as plain lists."""
        with self._lock:
            arrays = list(self._thread_arrays)
            names = list(self.names)
        spans, events = [], []
        for span_array, event_array in arrays:
            span_list = span_array.tolist()
            spans.extend(tuple(span_list[i:i + 6])
                         for i in range(0, len(span_list) - 5, 6))
            event_list = event_array.tolist()
            events.extend(tuple(event_list[i:i + 3])
                          for i in range(0, len(event_list) - 2, 3))
        return {"names": names, "spans": spans, "events": events}


# --------------------------------------------------------------------- #
# instrumentation from outside the program
# --------------------------------------------------------------------- #
def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` elsewhere."""
    for module in list(sys.modules.values()):
        if not (getattr(module, "__name__", "") or "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def call_then(fn, after):
    """``fn`` followed by ``after(result, args, kwargs)`` on every call."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return call


def instrument(tracer: Tracer, target, attr: str, name: str, *,
               after=None):
    """Wrap ``target.attr`` (a module function or a class method).

    A module-level function is rebound in every ``repro`` module that
    imported it by name, so calls through any binding are traced.
    ``after(result, args, kwargs)``, when given, runs after each call
    (inside the span) to record events from the result.
    """
    original = getattr(target, attr)
    fn = original if after is None else call_then(original, after)
    traced = tracer.wrap(fn, name)
    setattr(target, attr, traced)
    if not isinstance(target, type):
        _rebind(original, traced)
    return traced


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def self_times(spans) -> dict[int, int]:
    """Self time of every span: duration minus what its children cover.

    ``spans`` is an iterable of ``(id, parent, start, end)``.  Children
    may overlap each other (parallel workers) or stick out of the parent;
    only the union of their intervals clipped to the parent is subtracted.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for _span_id, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, start, end in spans:
        covered = 0
        kids = children.get(span_id)
        if kids:
            kids.sort()
            cursor = start
            for child_start, child_end in kids:
                lo = max(child_start, cursor)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
        result[span_id] = (end - start) - covered
    return result


def exclusive_times(spans) -> dict[int, float]:
    """Time each span alone accounts for, summing to the roots' wall time.

    ``spans`` is an iterable of ``(id, parent, start, end)``.  Each moment
    is charged to the innermost spans active at that moment; when several
    are (parallel children of one request, possibly in other threads or
    processes) they split it evenly.  Unlike :func:`self_times`, the
    results never count one moment twice, so per-layer sums over a
    request add up to its duration.
    """
    spans = list(spans)
    parent_of = {span_id: parent for span_id, parent, _s, _e in spans}
    boundaries = []
    for span_id, _parent, start, end in spans:
        if end > start:
            boundaries.append((start, 1, span_id))
            boundaries.append((end, 0, span_id))
    boundaries.sort()  # at equal times, ends (0) before starts (1)
    charged = {span_id: 0.0 for span_id in parent_of}
    active_children: dict[int, int] = {}
    active: set[int] = set()
    leaves: set[int] = set()
    previous = None
    for moment, is_start, span_id in boundaries:
        if previous is not None and leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                charged[leaf] += share
        previous = moment
        parent = parent_of[span_id]
        if is_start:
            active.add(span_id)
            if active_children.get(span_id, 0) == 0:
                leaves.add(span_id)
            if parent in active:
                active_children[parent] = active_children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return charged
