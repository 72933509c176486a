"""Span tracer installed from the benchmark's side only.

The traced repeat wraps the public entry points of every layer in timing
wrappers (class attributes and module functions are rebound, the program's
source is untouched) and keeps the spans in memory.  A span is ``name``,
``layer``, ``start``, ``end``, ``parent``; spans of one thread nest like
the call stack they were taken from, so a span's *self time* is its
duration minus the durations of its direct children, and the self times
of one thread add up to the duration of its top-level spans.

End-to-end numbers never come from a traced repeat: the wrappers cost a
microsecond or two per call, which ``trace.overhead_pct`` reports.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["Span", "Tracer", "CallCounter", "self_times", "layer_totals"]


@dataclass
class Span:
    """One finished timing span (nanoseconds; ``parent`` indexes the list)."""

    name: str
    layer: str
    start: int
    end: int
    parent: int  # index into the same list, -1 for a top-level span
    tid: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class _ThreadSpans:
    """One thread's spans as four parallel lists of ints: a list per span
    would hand the garbage collector a container to track for each."""

    __slots__ = ("keys", "starts", "ends", "parents", "stack", "tid")

    def __init__(self, tid: int) -> None:
        self.keys: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.tid = tid

    def enter(self, key: int, now: int) -> int:
        stack = self.stack
        idx = len(self.keys)
        self.keys.append(key)
        self.starts.append(now)
        self.ends.append(0)
        self.parents.append(stack[-1] if stack else -1)
        stack.append(idx)
        return idx


class _Rebinder:
    """Rebind attributes and remember the originals for :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _rebind(self, cls: type, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def rebind_methods(self, cls: type, attrs: Iterable[str], make_for) -> None:
        """Wrap the methods ``cls`` itself defines (inherited ones belong
        to the base class and are wrapped there)."""
        for attr in attrs:
            if attr in cls.__dict__:
                self._rebind(cls, attr, make_for(attr))

    def rebind_function(self, fn: Callable, make: Callable,
                        package: str = "repro") -> None:
        """Rebind a module-level function in every module of ``package``
        that holds a reference to it (``from x import f`` copies the
        binding, so patching the defining module alone would miss them)."""
        new = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Tracer(_Rebinder):
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        super().__init__()
        self._keys: list[tuple[str, str]] = []
        self._key_index: dict[tuple[str, str], int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    # ----------------------------------------------------------- recording
    def _state(self) -> _ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadSpans(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _key(self, name: str, layer: str) -> int:
        key = (name, layer)
        idx = self._key_index.get(key)
        if idx is None:
            idx = self._key_index[key] = len(self._keys)
            self._keys.append(key)
        return idx

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        key = self._key(name, layer)
        state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            idx = st.enter(key, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                st.ends[idx] = clock()
                st.stack.pop()

        return traced

    def span(self, name: str, layer: str):
        """Context manager recording one span around a block."""
        return _SpanBlock(self, self._key(name, layer))

    # ---------------------------------------------------------- installing
    def trace_methods(self, cls: type, attrs: Iterable[str], layer: str) -> None:
        self.rebind_methods(
            cls, attrs,
            lambda attr: lambda fn: self.wrap(
                fn, f"{cls.__name__}.{attr}", layer),
        )

    def trace_function(self, fn: Callable, layer: str) -> None:
        self.rebind_function(
            fn, lambda f: self.wrap(f, f.__name__, layer))

    # ------------------------------------------------------------- reading
    def spans(self) -> list[Span]:
        """All finished spans, thread by thread, parents before children."""
        out: list[Span] = []
        for st in self._threads:
            base = len(out)
            for key, start, end, parent in zip(
                    st.keys, st.starts, st.ends, st.parents):
                name, layer = self._keys[key]
                # A span still open (end 0) would break the parent
                # indices if dropped; it counts as empty instead.
                out.append(Span(
                    name, layer, start, end or start,
                    base + parent if parent >= 0 else -1, st.tid,
                ))
        return out

    def reset(self) -> None:
        for st in self._threads:
            for column in (st.keys, st.starts, st.ends, st.parents, st.stack):
                column.clear()

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome/Perfetto ``traceEvents`` file."""
        spans = self.spans()
        t0 = min((s.start for s in spans), default=0)
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": s.tid, "ts": (s.start - t0) / 1000.0,
                "dur": s.duration / 1000.0, "args": {"parent": s.parent},
            }
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _SpanBlock:
    __slots__ = ("_tracer", "_key", "_idx", "_st")

    def __init__(self, tracer: Tracer, key: int) -> None:
        self._tracer = tracer
        self._key = key

    def __enter__(self) -> "_SpanBlock":
        self._st = self._tracer._state()
        self._idx = self._st.enter(self._key, time.perf_counter_ns())
        return self

    def __exit__(self, *exc_info) -> None:
        self._st.ends[self._idx] = time.perf_counter_ns()
        self._st.stack.pop()


class CallCounter(_Rebinder):
    """Count calls of hot functions without timing them.

    The float-filtered predicates run a million times a second; a span
    around each would swamp what it measures.  The benchmark counts them
    in a pass of their own, so the traced repeat carries spans only on
    the slow exact path.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls: dict[str, int] = defaultdict(int)

    def count_function(self, fn: Callable) -> None:
        calls = self.calls
        name = fn.__name__

        def make(f: Callable) -> Callable:
            @functools.wraps(f)
            def counted(*args):
                calls[name] += 1
                return f(*args)

            return counted

        self.rebind_function(fn, make)


# ------------------------------------------------------------- arithmetic
def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_totals(
    spans: list[Span], selfs: Optional[list[int]] = None
) -> dict[str, tuple[float, int]]:
    """Per layer: (self seconds, span count)."""
    if selfs is None:
        selfs = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        seconds[s.layer] += own / 1e9
        counts[s.layer] += 1
    return {layer: (seconds[layer], counts[layer]) for layer in seconds}
