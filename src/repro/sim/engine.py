"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based process engine in the style of
SimPy.  It provides exactly what the cluster model needs:

* a virtual clock (:attr:`Engine.now`) that only advances between events,
* *processes*: Python generators that ``yield`` events to wait on,
* one-shot :class:`SimEvent` objects that carry a value when triggered,
* :class:`Timeout` events for modeling service/latency times,
* :class:`Poll` events that park off the heap and wake on a tick grid.

Events only ever succeed: nothing in the cluster model fails an event or
interrupts a process, so the engine has no failure path to carry.

Determinism: events scheduled for the same virtual time fire in FIFO order
of scheduling (a monotonically increasing sequence number breaks ties), so
a simulation is a pure function of its inputs — crucial for reproducible
benchmark tables.  The exception is a *late slot* (key ``LATE + rank``):
it follows every ordinary event at its instant, whenever that was pushed,
and late slots at one instant run in rank order, one event per slot.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

__all__ = ["Engine", "SimEvent", "Timeout", "Poll", "Process"]

# A process body is a generator that yields SimEvents.
ProcessBody = Generator["SimEvent", Any, Any]

PENDING = object()

# Key of the rank-0 late slot: the sequence counter never comes near it.
LATE = 1 << 62


class SimEvent:
    """A one-shot event that processes can wait on: *pending* until
    :meth:`succeed` schedules it (once), then its callbacks run and any
    waiting processes resume."""

    __slots__ = ("engine", "callbacks", "_value", "_scheduled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["SimEvent"], None]] = []
        self._value: Any = PENDING
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run (value is final)."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._scheduled:
            raise RuntimeError("event already triggered")
        self._scheduled = True
        self._value = value
        self.engine._schedule(self, delay)
        return self

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None  # type: ignore[assignment]
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Run ``cb`` when the event is processed, or at once if it was
        (so waiting on a completed event is race-free)."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)


class Timeout(SimEvent):
    """An event that fires after a virtual-time delay; with a ``rank``,
    in that rank's late slot at its instant."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None,
                 rank: int | None = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self._scheduled = True
        self._value = value
        if rank is None:
            engine._schedule(self, delay)
        else:
            engine._push_late(self, engine._now + delay, rank)


class Poll(SimEvent):
    """An event that fires on the first tick with ``ready()`` truthy.

    Ticks lie on a grid: creation instant plus ``interval``, repeatedly
    added.  The poll *parks* off the heap.  Contract: every code path that
    can turn a parked ``ready()`` true calls :meth:`Engine.poke`.  A poke
    (or creation) that finds ``ready()`` truthy schedules one wake at the
    next grid instant whose ``rank`` late slot has not passed; the wake asks
    ``ready()`` again and fires with its value, or parks again.  So it looks
    exactly when waiting on ``Timeout(interval, rank=rank)`` and testing
    ``ready()`` after each would.  ``ready`` must be free of side effects.
    """

    __slots__ = ("interval", "ready", "rank", "_next")

    def __init__(self, engine: "Engine", interval: float,
                 ready: Callable[[], Any], rank: int = 0) -> None:
        if not interval > 0:  # zero would tick for ever at one instant
            raise ValueError(f"poll interval must be positive: {interval}")
        if not callable(ready):
            raise TypeError(f"poll predicate must be callable: {ready!r}")
        super().__init__(engine)
        self.interval = interval
        self.ready = ready
        self.rank = rank
        self._next = engine._now + interval  # first grid instant not looked at
        self._scheduled = True
        engine.parked[self] = None
        self._arm()

    def _arm(self) -> None:
        """The poke: leave the park for the next open grid slot if ready."""
        if not self.ready():
            return
        engine, when = self.engine, self._next
        while when < engine._now:
            when += self.interval
        # The slot at ``now`` is gone once a late slot at or after it ran.
        if (when, LATE + self.rank) <= engine._late:
            when += self.interval
        self._next = when
        del engine.parked[self]
        engine._push_late(self, when, self.rank)

    def _process(self) -> None:
        engine = self.engine
        engine.poll_wakes += 1
        value = self.ready()
        if value:
            self._value = value
            super()._process()
            return
        self._next += self.interval
        engine.parked[self] = None


class Process(SimEvent):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other
    (fork/join parallelism).
    """

    __slots__ = ("body", "name")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        super().__init__(engine)
        if not hasattr(body, "send"):
            raise TypeError("process body must be a generator")
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        # Bootstrap: resume on the next pass of the event loop.
        init = SimEvent(engine)
        init.succeed()
        init.add_callback(self._resume)

    def _resume(self, event: SimEvent) -> None:
        try:
            target = self.body.send(event._value)
        except StopIteration as stop:
            if not self._scheduled:
                self.succeed(stop.value)
            return
        if not isinstance(target, SimEvent):
            raise TypeError(f"process {self.name!r} yielded {target!r}; "
                            "expected a SimEvent")
        target.add_callback(self._resume)


class Engine:
    """The event loop: a priority queue of (time, seq or late key, event)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self._processed = 0
        self._late = (float("-inf"), 0)  # last late slot run: it and below passed
        self.parked: dict[Poll, None] = {}  # polls off the heap, in park order
        #: Poll wakes processed: each either fired or parked again.
        self.poll_wakes = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None,
                rank: int | None = None) -> Timeout:
        return Timeout(self, delay, value, rank)

    def poll(self, interval: float, ready: Callable[[], Any],
             rank: int = 0) -> Poll:
        """An event that fires on the first ``interval`` tick with ``ready()``."""
        return Poll(self, interval, ready, rank)

    def process(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process running ``body``."""
        return Process(self, body, name)

    def _schedule(self, event: SimEvent, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def _push_late(self, event: SimEvent, when: float, rank: int) -> None:
        """Schedule ``event`` in the late slot of ``rank`` at ``when``."""
        key = LATE + rank
        if not (when >= self._now and rank >= 0) or (when, key) <= self._late:
            raise ValueError(f"late slot {rank} at {when} is NaN or past")
        heapq.heappush(self._heap, (when, key, event))

    def poke(self) -> None:
        """A parked poll's predicate may hold now: arm those whose does."""
        for poll in list(self.parked):
            poll._arm()

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        when, key, event = heapq.heappop(self._heap)
        if when < self._now:
            raise AssertionError("time went backwards")
        self._now = when
        if key >= LATE:
            self._late = (when, key)
        self._processed += 1
        event._process()

    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        Returns the event's value when ``until`` is an event.  Parked polls
        are off the heap: with only those left, awaiting an event deadlocks.
        """
        if isinstance(until, SimEvent):
            while not until.processed:
                if not self._heap:
                    raise RuntimeError("simulation deadlock: event queue "
                                       "empty but the awaited event never fired")
                self.step()
            return until.value
        limit = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= limit:
            self.step()
        if until is not None:
            self._now = max(self._now, limit)
        return None

    def peek(self) -> float:
        """Virtual time of the next scheduled event (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")
