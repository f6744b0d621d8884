"""Layer clock: time calls into the program's layers from outside.

The benchmark never edits ``src/``.  Instead, :class:`LayerClock` swaps
chosen public functions and methods for thin wrappers (and puts the
originals back on :meth:`LayerClock.uninstall`).  Every wrapped call is
one span: it records the layer key, start, end, the enclosing span (its
parent) and the current trace id.  Nesting is tracked with a stack, so a
layer's *self* time is its spans' duration minus the part covered by
wrapped calls inside them -- e.g. ``engine`` self time is ``Workload.run``
minus the simulator calls it makes.

Spans live in memory until :meth:`LayerClock.write_chrome_trace` writes
them out as a chrome trace-event file (load it in ``chrome://tracing`` or
Perfetto).
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

_now = time.perf_counter


class LayerClock:
    """Self-time, call and count accounting for wrapped layer calls."""

    def __init__(self):
        #: layer key -> exclusive seconds (duration minus wrapped children)
        self.self_s = defaultdict(float)
        #: layer key -> number of wrapped calls
        self.calls = defaultdict(int)
        #: free-form counters recorded at the same boundaries
        self.counts = defaultdict(int)
        #: (key, name, start, end, span id, parent id, trace id), in close
        #: order; parent id -1 marks a call made by the benchmark loop
        self.spans = []
        #: the unit of work the next spans belong to (one point or output)
        self.trace_id = 0
        self._next_id = 0
        self._stack = []  # open frames: [child seconds, span id, parent id]
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, key, after=None):
        """Replace ``owner.attr`` with a timed wrapper.

        ``key`` is the layer key, or a callable of the call's arguments
        returning it (e.g. a cache level keyed by its config name).
        ``after(key, args, result)`` runs inside the span to record
        counts at the same boundary.
        """
        original = getattr(owner, attr)
        raw = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        keyed = callable(key)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            layer = key(*args) if keyed else key
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = _now()
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(layer, args, result)
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                spans.append((layer, name, start, end, span_id, frame[2],
                              self.trace_id))

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapper)
        return wrapper

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def total_self(self, prefix: str) -> float:
        """Summed self seconds of every key equal to or under ``prefix``."""
        return sum(seconds for key, seconds in self.self_s.items()
                   if key == prefix or key.startswith(prefix + "."))

    def write_chrome_trace(self, path: str, origin: float) -> int:
        """Write the spans as chrome trace-event JSON; returns the count.

        Each trace id is one thread row; ``args`` carries the span's id
        and its parent's (-1 for a call made by the benchmark loop).
        """
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1,
             "tid": trace_id,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent}}
            for layer, name, start, end, span_id, parent, trace_id
            in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle, separators=(",", ":"))
        return len(events)


def calibrate_overhead(calls: int = 20000) -> float:
    """Host seconds one wrapped call adds over a bare call.

    Times the same trivial function bare and through a
    :class:`LayerClock` wrapper with an ``after`` hook; the clock's cost
    per span is the difference.
    """

    def fn(value):
        return value

    probe = types.SimpleNamespace(fn=fn)
    bare = probe.fn
    start = _now()
    for i in range(calls):
        bare(i)
    bare_s = _now() - start
    clock = LayerClock()
    clock.wrap(probe, "fn", "probe", after=lambda layer, args, result: None)
    wrapped = probe.fn
    start = _now()
    for i in range(calls):
        wrapped(i)
    wrapped_s = _now() - start
    clock.uninstall()
    return max(0.0, (wrapped_s - bare_s) / calls)
