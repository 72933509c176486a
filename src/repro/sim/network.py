"""Point-to-point interconnect model.

The paper's MRTS uses ARMCI one-sided messages over the cluster fabric.  We
model the interconnect as one full-duplex link per node (the NIC) plus a
uniform fabric latency: sending ``n`` bytes from A to B occupies A's egress
NIC for the serialization time, then the message arrives at B after the wire
latency.  Receive-side cost is charged when the control layer processes the
message (the whole point of one-sided messages is that arrival does not
interrupt the receiver).

This is the LogGP-style model customarily used to study overlap: ``o_s``
(send overhead) = NIC serialization, ``L`` = latency, and receiver overhead
is software, not modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.sim.engine import Engine, SimEvent
from repro.sim.resources import Server

__all__ = ["NetworkSpec", "SimNetwork"]


@dataclass(frozen=True)
class NetworkSpec:
    """Fabric parameters.

    Defaults approximate switched gigabit ethernet of the paper's era:
    ~50 us one-way latency, ~100 MB/s per-node injection bandwidth.
    """

    latency: float = 50e-6
    bandwidth: float = 100e6
    channels_per_node: int = 1

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("invalid network spec")


class SimNetwork:
    """Deliver byte-counted messages between node ranks."""

    def __init__(self, engine: Engine, n_nodes: int, spec: NetworkSpec) -> None:
        if n_nodes < 1:
            raise ValueError("network needs at least one node")
        self.engine = engine
        self.spec = spec
        self.n_nodes = n_nodes
        self._egress = [
            Server(
                engine,
                latency=0.0,
                bandwidth=spec.bandwidth,
                channels=spec.channels_per_node,
                name=f"nic[{i}]",
            )
            for i in range(n_nodes)
        ]
        self.messages_sent = 0
        self.bytes_sent = 0
        self._sinks: list[Callable[[int, Any], None] | None] = [None] * n_nodes

    def attach_sink(self, rank: int, sink: Callable[[int, Any], None]) -> None:
        """Register the function invoked when a message arrives at ``rank``.

        The sink receives ``(source_rank, payload)`` — this is the analogue
        of ARMCI depositing into the target's memory and the control layer
        noticing.
        """
        self._sinks[rank] = sink

    def send(
        self, src: int, dst: int, nbytes: int, payload: Any
    ) -> Generator[SimEvent, Any, None]:
        """Process body for the *sender*: returns when the NIC is free again.

        Delivery to the destination sink happens asynchronously ``latency``
        seconds after serialization completes.  Same-node sends bypass the
        NIC entirely (the runtime short-circuits those anyway, but guard it
        here too).
        """
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"bad ranks {src}->{dst}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src == dst:
            self._deliver_later(src, dst, payload, delay=0.0)
            return
        yield from self._egress[src].transfer(nbytes)
        self._deliver_later(src, dst, payload, delay=self.spec.latency)

    def _deliver_later(self, src: int, dst: int, payload: Any, delay: float) -> None:
        event = self.engine.event()

        def on_arrival(_: SimEvent) -> None:
            sink = self._sinks[dst]
            if sink is None:
                raise RuntimeError(f"no sink attached at rank {dst}")
            sink(src, payload)

        event.add_callback(on_arrival)
        event.succeed(delay=delay)

    def send_overhead(self, nbytes: int) -> float:
        """Sender-side serialization time for an ``nbytes`` message."""
        return self._egress[0].service_time(nbytes)
