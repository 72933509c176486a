"""Queueing resources for the cluster model.

Three building blocks:

* :class:`Resource` — a counted semaphore with FIFO waiters (CPU cores,
  disk channels, NIC ports).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (message queues, work queues).
* :class:`Server` — a latency + bandwidth service facility built on
  :class:`Resource`; models disks and network links: serving ``n`` bytes
  holds a channel for ``latency + n / bandwidth`` seconds.

All waiting is FIFO, making simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.engine import Engine, SimEvent

__all__ = ["Resource", "Store", "Server"]


class Resource:
    """A counted resource with FIFO acquisition.

    Usage from a process::

        yield resource.acquire()
        try:
            ...  # hold
        finally:
            resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[SimEvent] = deque()

    def acquire(self) -> SimEvent:
        """Return an event that fires when a unit is granted."""
        event = self.engine.event()
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            # Ownership transfers directly; in_use stays constant.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Store:
    """An unbounded FIFO with blocking get, used for message/work queues."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        """Return an event that fires with the next item."""
        event = self.engine.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Server:
    """A latency+bandwidth service facility (disk, network link).

    ``channels`` concurrent transfers are allowed; each transfer of ``n``
    bytes holds a channel for ``latency + n / bandwidth`` seconds.  This is
    the standard LogP-ish model: fixed per-operation overhead plus a
    size-proportional term, with FIFO contention beyond ``channels``.
    """

    def __init__(
        self,
        engine: Engine,
        latency: float,
        bandwidth: float,
        channels: int = 1,
        name: str = "server",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name
        self._channels = Resource(engine, channels)
        self.bytes_served = 0
        self.ops_served = 0

    def service_time(self, nbytes: int) -> float:
        """Time a transfer of ``nbytes`` holds a channel (no queueing)."""
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: int) -> Generator[SimEvent, Any, None]:
        """Process body: queue for a channel, then hold it for the service time."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        yield self._channels.acquire()
        try:
            yield self.engine.timeout(self.service_time(nbytes))
            self.bytes_served += nbytes
            self.ops_served += 1
        finally:
            self._channels.release()
