"""Relaying the ``repro.obs`` event bus across the process boundary.

Workers publish the same typed events the single-process runtime does
(:mod:`repro.obs.events`), stamped with ``time.monotonic()`` offsets —
on Linux ``CLOCK_MONOTONIC`` is system-wide, so timestamps from different
processes are mutually comparable.  Events are flattened to ``(kind,
fields...)`` rows for the wire (cheaper and more stable than pickling the
dataclasses themselves: the row survives class churn as long as the field
order doesn't change, and the codec round-trip is pinned by tests).

The coordinator feeds per-worker batches into an :class:`EventMerger`,
which releases events into a local :class:`~repro.obs.events.EventBus` in
globally monotonic time order using the classic watermark rule: an event
is released only once *every* live source has reported a clock at or past
its timestamp.  Each source's stream is locally ordered (workers buffer
in emission order from one monotonic clock), so the merge is a k-way
sorted merge gated by the minimum watermark.  Closing a source (worker
shutdown or crash) sets its watermark to +inf so it stops holding the
line back.  Existing consumers — ``write_chrome_trace``, overlap
analysis — subscribe to the merged bus and work unchanged.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Optional

from repro.obs.events import (
    CorruptEvent,
    DiskSpan,
    EvictEvent,
    EventBus,
    HandlerSpan,
    LoadEvent,
    MigrateEvent,
    ObsEvent,
    PackEvent,
    PrefetchEvent,
    QueueDepthEvent,
    RetryEvent,
    SendSpan,
    SpillEvent,
)

__all__ = ["encode_event", "decode_event", "EventMerger", "EVENT_TYPES"]

#: kind string -> dataclass, the wire registry.  Field order within each
#: class is part of the wire format (rows are positional).
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        HandlerSpan,
        SendSpan,
        DiskSpan,
        SpillEvent,
        EvictEvent,
        LoadEvent,
        PrefetchEvent,
        RetryEvent,
        CorruptEvent,
        PackEvent,
        MigrateEvent,
        QueueDepthEvent,
    )
}


def encode_event(event: ObsEvent) -> tuple:
    """Flatten an event to a positional ``(kind, field, field, ...)`` row."""
    cls = type(event)
    if cls.kind not in EVENT_TYPES:
        raise ValueError(f"unregistered event kind {cls.kind!r}")
    import dataclasses

    return (cls.kind,) + tuple(
        getattr(event, f.name) for f in dataclasses.fields(cls)
    )


def decode_event(row: tuple) -> ObsEvent:
    """Rebuild a typed event from its wire row."""
    try:
        cls = EVENT_TYPES[row[0]]
    except KeyError:
        raise ValueError(f"unknown event kind {row[0]!r}") from None
    return cls(*row[1:])


class EventMerger:
    """Merge per-source event streams into one monotonically ordered bus.

    ``feed(source, events, watermark)`` appends a locally-ordered batch
    and advances the source's watermark (to the batch's last timestamp if
    not given explicitly).  Events release once their timestamp is at or
    below the minimum watermark across live sources.  ``close(source)``
    retires a source; :meth:`flush` retires everything and drains.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self._buffers: dict[int, deque] = {}
        self._watermarks: dict[int, float] = {}
        self._closed: set[int] = set()
        self.merged = 0
        self.reordered = 0  # batches that arrived interleaved across sources

    def add_source(self, source: int) -> None:
        self._buffers.setdefault(source, deque())
        self._watermarks.setdefault(source, 0.0)

    def feed(
        self,
        source: int,
        events: Iterable[ObsEvent] = (),
        watermark: Optional[float] = None,
    ) -> None:
        self.add_source(source)
        buf = self._buffers[source]
        for event in events:
            buf.append(event)
        if watermark is None and buf:
            watermark = buf[-1].time
        if watermark is not None:
            self._watermarks[source] = max(
                self._watermarks[source], watermark
            )
        self._release()

    def close(self, source: int) -> None:
        """A source is done (shutdown or crash): stop gating on its clock."""
        self.add_source(source)
        self._closed.add(source)
        self._watermarks[source] = float("inf")
        self._release()

    def flush(self) -> None:
        """Close every source and drain whatever is still buffered."""
        for source in list(self._buffers):
            self._closed.add(source)
            self._watermarks[source] = float("inf")
        self._release()

    # ------------------------------------------------------------- internals
    def _release(self) -> None:
        if not self._buffers:
            return
        horizon = min(self._watermarks.values())
        ready: list[tuple[float, int, int, ObsEvent]] = []
        seq = 0
        for source, buf in sorted(self._buffers.items()):
            while buf and buf[0].time <= horizon:
                event = buf.popleft()
                # (time, source, seq) tie-break: deterministic and never
                # compares the (unorderable) event dataclasses themselves.
                heapq.heappush(ready, (event.time, source, seq, event))
                seq += 1
        sources_seen = {s for _, s, _, _ in ready}
        if len(sources_seen) > 1:
            self.reordered += 1
        while ready:
            _, _, _, event = heapq.heappop(ready)
            self.bus.publish(event)
            self.merged += 1
