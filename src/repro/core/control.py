"""Control-layer helpers: termination detection and queue scheduling.

The control layer (paper §II.D) delivers messages, orders the processing
of per-object message queues, and detects the global termination condition
("when no message handlers are executing and no messages are being
delivered the run-time system detects a termination condition").
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["TerminationDetector", "ReadyQueue"]


class TerminationDetector:
    """Counts outstanding work items; fires a callback at quiescence.

    An item is outstanding from the moment a message is posted (or a
    handler starts for other reasons) until its processing fully completes.
    Because posting inside a handler increments before the handler's own
    decrement, the count can only reach zero when no work exists anywhere —
    the classic credit-based termination argument, exact in a single
    address space.
    """

    def __init__(self, on_quiescent: Optional[Callable[[], None]] = None):
        self._outstanding = 0
        self._total = 0
        self._on_quiescent = on_quiescent
        self._started = False

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def total_items(self) -> int:
        return self._total

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("use done() to retire work")
        self._outstanding += n
        self._total += n
        self._started = True

    def done(self, n: int = 1) -> None:
        self._outstanding -= n
        if self._outstanding < 0:
            raise RuntimeError("termination counter went negative")
        if self._outstanding == 0 and self._started and self._on_quiescent:
            self._on_quiescent()

    @property
    def quiescent(self) -> bool:
        return self._started and self._outstanding == 0


class ReadyQueue:
    """Per-node ordering of mobile objects with deliverable messages.

    Default discipline is FIFO by first-message arrival.  ``busiest`` mode
    serves the object with the most queued messages first — the paper's
    control layer "decides the order in which message queues of local
    mobile objects are processed" using queue lengths; ONUPDR's §III
    optimization additionally reorders by in-core buffer availability,
    which the application expresses through priorities (see the runtime's
    ``boost`` parameter).

    The queue is indexed: each member carries a cached scheduling key in a
    lazy min-heap, and mutations (push, boost, residency change) only
    *touch* the member so its key is recomputed at the next pop.  A pop
    validates the apparent winner's cached key against a live recompute —
    a mismatch (e.g. its message queue drained while it waited) restamps
    the entry and retries.  Keys can only *improve* through a touched
    mutation, so a validated winner is the true maximum; the linear scan
    this replaces survives verbatim in the property-test oracle
    (``tests/test_ready_queue_index.py``).

    ``_entries`` is only ever appended to (with the next ``seq``) and
    deleted from, and a dict keeps insertion order: iterating it *is*
    FIFO arrival order, which is what ``snapshot`` returns without a sort.
    """

    def __init__(self, discipline: str = "fifo"):
        if discipline not in ("fifo", "busiest"):
            raise ValueError(f"unknown ready-queue discipline {discipline!r}")
        self.discipline = discipline
        # oid -> [seq, stamp, cached_key]; seq is FIFO arrival order,
        # stamp matches the entry's current heap node (stale nodes skip).
        self._entries: dict[int, list] = {}
        self._heap: list[tuple] = []
        self._touched: set[int] = set()
        self._boost: dict[int, float] = {}
        self._seq = 0
        self._clock = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def push(self, oid: int) -> None:
        """Mark the object ready (idempotent)."""
        if oid not in self._entries:
            self._seq += 1
            self._entries[oid] = [self._seq, -1, None]
        # Even for an existing member the queue length just grew, which
        # can change a "busiest" key.
        self._touched.add(oid)

    def boost(self, oid: int, amount: float) -> None:
        """Scheduling hint: raise the object's service preference."""
        self._boost[oid] = self._boost.get(oid, 0.0) + amount
        if oid in self._entries:
            self._touched.add(oid)

    def note_resident(self, oid: int, resident: bool = True) -> None:
        """Residency change notification from the out-of-core layer.

        The in-core preference is part of the scheduling key, so a load
        or eviction must invalidate the member's cached key.
        """
        if oid in self._entries:
            self._touched.add(oid)

    def snapshot(self) -> list[int]:
        """Member oids in FIFO arrival order (read-only view).

        Public replacement for reaching into queue internals — the
        prefetcher uses it to see what is coming up.
        """
        return list(self._entries)

    # Min-heap key: negate the oracle's max-key components so that the
    # heap minimum is the scan maximum; seq ascending breaks ties the
    # same way the oracle's -idx does.  ``spec_only`` (PR 9) demotes
    # objects whose queues hold only speculative messages below *all*
    # real work, so speculation only ever fills otherwise-idle slots;
    # with speculation off the component is a constant and the ordering
    # is byte-identical to before.
    def _live_key(
        self,
        oid: int,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]],
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> tuple:
        in_core = resident is not None and resident(oid)
        if spec_only is not None and not in_core:
            # Speculation mode (PR 9): a non-resident object costs a
            # demand load to serve, so prefer the one with the deepest
            # queue — the load amortizes over more messages, and objects
            # with thin queues wait for their batch to build up while
            # resident/busier peers run.  Deferral only; nothing is ever
            # refused, so termination is unaffected.
            batch = -queue_len(oid)
        else:
            batch = -(queue_len(oid) if self.discipline == "busiest" else 0)
        return (
            -self._boost.get(oid, 0.0),
            1 if (spec_only is not None and spec_only(oid)) else 0,
            0 if in_core else 1,
            batch,
            self._entries[oid][0],
        )

    def _restamp(
        self,
        oid: int,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]],
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> None:
        entry = self._entries[oid]
        key = self._live_key(oid, queue_len, resident, spec_only)
        self._clock += 1
        entry[1] = self._clock
        entry[2] = key
        heapq.heappush(self._heap, (key, self._clock, oid))

    def pop(
        self,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]] = None,
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> int:
        """Choose the next object to serve.

        ``queue_len(oid)`` reports current pending messages; objects whose
        queue emptied since being marked ready are skipped.  ``resident``
        (when provided) implements the control layer's in-core preference:
        serve loaded objects before paying a disk load for spilled ones —
        the decision the paper describes as influencing swapping ("the
        input from the control layer influences the swapping decisions").
        ``spec_only`` (when provided) reports whether an object's queue
        holds nothing but speculative messages; such objects are served
        after every object with real work (speculation is stall filler).
        """
        for oid in self._touched:
            if oid in self._entries:
                self._restamp(oid, queue_len, resident, spec_only)
        self._touched.clear()
        while self._entries:
            if not self._heap:  # pragma: no cover - defensive resync
                for oid in list(self._entries):
                    self._restamp(oid, queue_len, resident, spec_only)
            key, stamp, oid = heapq.heappop(self._heap)
            entry = self._entries.get(oid)
            if entry is None or entry[1] != stamp:
                continue  # stale node for a popped/restamped member
            live = self._live_key(oid, queue_len, resident, spec_only)
            if live != key:
                # Key drifted without a touch (queue drained in place):
                # reinsert with the live key and keep looking.
                self._restamp(oid, queue_len, resident, spec_only)
                continue
            del self._entries[oid]
            self._boost.pop(oid, None)
            if queue_len(oid) > 0:
                return oid
        raise IndexError("pop from empty ready queue")
