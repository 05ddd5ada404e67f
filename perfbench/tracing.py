"""Span recorder for the benchmark: stdlib only, in memory until exit.

A span is one call into a layer's public function, recorded by a
wrapper installed from the benchmark's own files (``repro`` itself is
not touched).  Each span carries its name, layer, start and end
(``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes), the enclosing span on the same thread,
a request id (driver round or client batch) and the thread id.

A wrapper must be installed on the name the caller looks up: for
example ``solve_hap`` is called through ``repro.core.evaluator``, so
that module's attribute is patched, not ``repro.mapping.hap``'s.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# Span record layout (a list, so the wrapper mutates it in place).
NAME, LAYER, START, END, PARENT, REQUEST, THREAD = range(7)


class Recorder:
    """Collects spans from every wrapper it installs.

    ``enabled`` switches recording off without uninstalling (the
    wrappers then cost one attribute test per call).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = True
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, request=None):
        """Return ``fn`` wrapped in a span; ``request(*args)`` (if
        given) names the request the call starts."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if request is not None:
                request_id = request(*args)
            else:
                request_id = parent[REQUEST] if parent is not None else None
            span = [name, layer, time.perf_counter_ns(), 0, parent,
                    request_id, threading.get_ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append(span)

        return wrapper

    def patch(self, owner, attr: str, name: str, layer: str,
              request=None) -> None:
        """Replace ``owner.attr`` (a module function, method,
        classmethod or staticmethod) by its span-recording wrapper."""
        raw = (owner.__dict__.get(attr, getattr(owner, attr))
               if isinstance(owner, type) else getattr(owner, attr))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, layer,
                                            request))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, layer,
                                             request))
        else:
            wrapped = self.wrap(raw, name, layer, request)
        setattr(owner, attr, wrapped)

    def enter(self, span: list) -> None:
        """Make ``span`` the parent of later spans on this thread (the
        launcher's whole-process root)."""
        self._stack().append(span)

    def add(self, name: str, layer: str, start_ns: int, end_ns: int,
            parent=None) -> list:
        """Record a span measured elsewhere (e.g. interpreter start)."""
        span = [name, layer, start_ns, end_ns, parent, None,
                threading.get_ident()]
        self.spans.append(span)
        return span


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time (ns) per span, keyed by ``id(span)``: its duration
    minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children[id(parent)].append(
                (max(span[START], parent[START]),
                 min(span[END], parent[END])))
    return {id(span): (span[END] - span[START])
            - _covered(children.get(id(span), []))
            for span in spans}


def layer_summary(spans: list[list], thread: int) -> dict:
    """Self seconds per layer, over all threads (``layers``) and on
    ``thread`` alone (``thread_layers``: the thread that owns the
    process's wall time, on which attribution must close); calls and
    total seconds per span name."""
    own = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    thread_layers: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span[NAME]] += 1
        totals[span[NAME]] += (span[END] - span[START]) / 1e9
        layers[span[LAYER]] += own[id(span)] / 1e9
        if span[THREAD] == thread:
            thread_layers[span[LAYER]] += own[id(span)] / 1e9
    return {"layers": dict(layers), "thread_layers": dict(thread_layers),
            "calls": dict(calls), "totals": dict(totals)}


def chrome_events(spans: list[list], pid: int, origin_ns: int) -> list:
    """Spans as Chrome trace-event ``X`` records (open in Perfetto)."""
    events = []
    for span in spans:
        parent = span[PARENT]
        events.append({
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "pid": pid, "tid": span[THREAD],
            "ts": (span[START] - origin_ns) / 1e3,
            "dur": (span[END] - span[START]) / 1e3,
            "args": {"request": span[REQUEST],
                     "parent": parent[NAME] if parent else None}})
    return events
