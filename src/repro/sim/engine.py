"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based process engine in the style of
SimPy, written from scratch so the repository has no dependencies beyond
numpy.  It provides exactly what the cluster model needs:

* a virtual clock (:attr:`Engine.now`) that only advances between events,
* *processes*: Python generators that ``yield`` events to wait on,
* one-shot :class:`SimEvent` objects that carry a value when triggered,
* :class:`Timeout` events for modeling service/latency times,
* :class:`Poll` events that re-arm in place until a predicate holds,
* :func:`all_of` / :func:`any_of` combinators.

Determinism: events scheduled for the same virtual time fire in FIFO order
of scheduling (a monotonically increasing sequence number breaks ties), so a
simulation is a pure function of its inputs — crucial for reproducible
benchmark tables.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "SimEvent",
    "Timeout",
    "Poll",
    "Process",
    "Interrupt",
    "all_of",
    "any_of",
]

# A process body is a generator that yields SimEvents.
ProcessBody = Generator["SimEvent", Any, Any]

PENDING = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules it for processing, at which point all registered callbacks run
    and any waiting processes resume.  Events may only be triggered once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["SimEvent"], None]] = []
        self._value: Any = PENDING
        self._ok = True
        self._scheduled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run (value is final)."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._scheduled:
            raise RuntimeError("event already triggered")
        self._scheduled = True
        self._value = value
        self.engine._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._scheduled:
            raise RuntimeError("event already triggered")
        self._scheduled = True
        self._ok = False
        self._value = exception
        self.engine._schedule(self, delay)
        return self

    # -- engine internals ---------------------------------------------------
    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None  # type: ignore[assignment]
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event was already processed the callback runs immediately,
        which makes waiting on completed events race-free.
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)


class Timeout(SimEvent):
    """An event that fires automatically after a virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._scheduled = True
        self._value = value
        engine._schedule(self, delay)


class _Stalled(RuntimeError):
    """Raised out of :meth:`Engine.step` by a :class:`Poll` tick."""


class Poll(SimEvent):
    """An event that ticks every ``interval`` until ``ready()`` is truthy.

    A tick that finds ``ready()`` falsy pushes the event itself back at
    ``now + interval`` under the next sequence number — exactly the slot a
    process re-arming a :class:`Timeout` per tick would take, without the
    object, the callback and the generator round-trip.  The tick that finds
    it truthy fires like any event, with that value.  ``ready`` must be
    free of side effects: the engine may evaluate it off-tick to tell a
    stuck simulation from a waiting one.
    """

    __slots__ = ("interval", "ready")

    def __init__(
        self, engine: "Engine", interval: float, ready: Callable[[], Any]
    ) -> None:
        if not interval > 0:  # zero would tick for ever at one instant
            raise ValueError(f"poll interval must be positive: {interval}")
        if not callable(ready):
            raise TypeError(f"poll predicate must be callable: {ready!r}")
        super().__init__(engine)
        self.interval = interval
        self.ready = ready
        self._scheduled = True
        engine._polls_armed += 1
        engine._schedule(self, interval)

    def _process(self) -> None:
        engine = self.engine
        value = self.ready()
        if value:
            self._value = value
            engine._polls_armed -= 1
            super()._process()
            return
        # Engine._schedule, inlined: this is the hot path of a polling run.
        heap = engine._heap
        heapq.heappush(heap, (engine._now + self.interval, engine._seq, self))
        engine._seq += 1
        engine.poll_ticks += 1
        # Nothing but armed polls left and no predicate holds: no event
        # remains that could ever change one.
        if len(heap) == engine._polls_armed and not any(
            ev.ready() for _, _, ev in heap if ev is not self
        ):
            raise _Stalled("simulation deadlock: no armed poll can ever fire")


class Process(SimEvent):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other
    (fork/join parallelism).
    """

    __slots__ = ("body", "name", "_waiting_on")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        super().__init__(engine)
        if not hasattr(body, "send"):
            raise TypeError("process body must be a generator")
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self._waiting_on: Optional[SimEvent] = None
        # Bootstrap: resume on the next pass of the event loop.
        init = SimEvent(engine)
        init.succeed()
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if self.triggered:
            return
        event = SimEvent(self.engine)
        event._ok = False
        event._value = Interrupt(cause)
        event._scheduled = True
        # Detach from whatever we were waiting on so the original event's
        # callback becomes a no-op when it eventually fires.
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self.engine._schedule(event, 0.0)
        event.add_callback(self._resume)

    def _resume(self, event: SimEvent) -> None:
        self._waiting_on = None
        try:
            if event.ok:
                target = self.body.send(event._value)
            else:
                target = self.body.throw(event._value)
        except StopIteration as stop:
            if not self._scheduled:
                self.succeed(stop.value)
            return
        except Interrupt:
            # Unhandled interrupt terminates the process quietly.
            if not self._scheduled:
                self.succeed(None)
            return
        if not isinstance(target, SimEvent):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected a SimEvent"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class Engine:
    """The event loop: a priority queue of (time, seq, event)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self._processed = 0
        self._polls_armed = 0
        #: Poll ticks that found their predicate false and re-armed in place.
        self.poll_ticks = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    # -- factories ------------------------------------------------------------
    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def poll(self, interval: float, ready: Callable[[], Any]) -> Poll:
        """An event that fires on the first ``interval`` tick with ``ready()``."""
        return Poll(self, interval, ready)

    def process(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process running ``body``."""
        return Process(self, body, name)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: SimEvent, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        when, _, event = heapq.heappop(self._heap)
        if when < self._now:
            raise AssertionError("time went backwards")
        self._now = when
        self._processed += 1
        event._process()

    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run until the heap drains, time ``until`` passes, or event fires.

        Returns the event's value when ``until`` is an event.  A heap
        holding only :class:`Poll` events that can never fire counts as
        drained: deadlock if awaiting an event, the end of a bare ``run()``.
        """
        if isinstance(until, SimEvent):
            stop = until
            while not stop.processed:
                if not self._heap:
                    raise RuntimeError(
                        "simulation deadlock: event queue empty but the "
                        "awaited event never fired"
                    )
                self.step()
            if not stop.ok:
                raise stop.value
            return stop.value
        limit = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= limit:
            try:
                self.step()
            except _Stalled:
                if until is None:
                    break  # as good as drained: no poll can ever fire
        if until is not None:
            self._now = max(self._now, limit)
        return None

    def peek(self) -> float:
        """Virtual time of the next scheduled event (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")


def all_of(engine: Engine, events: Iterable[SimEvent]) -> SimEvent:
    """An event that fires (with a list of values) when all ``events`` have."""
    events = list(events)
    result = engine.event()
    remaining = len(events)
    if remaining == 0:
        return result.succeed([])
    values: list[Any] = [None] * remaining

    def make_cb(i: int):
        def cb(ev: SimEvent) -> None:
            nonlocal remaining
            if not ev.ok:
                if not result.triggered:
                    result.fail(ev._value)
                return
            values[i] = ev._value
            remaining -= 1
            if remaining == 0 and not result.triggered:
                result.succeed(list(values))

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return result


def any_of(engine: Engine, events: Iterable[SimEvent]) -> SimEvent:
    """An event that fires with ``(index, value)`` of the first to trigger."""
    events = list(events)
    result = engine.event()
    if not events:
        raise ValueError("any_of requires at least one event")

    def make_cb(i: int):
        def cb(ev: SimEvent) -> None:
            if result.triggered:
                return
            if ev.ok:
                result.succeed((i, ev._value))
            else:
                result.fail(ev._value)

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return result
