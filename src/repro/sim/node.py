"""A simulated cluster node: cores, RAM budget, local disk, and a NIC."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Engine
from repro.sim.resources import Resource, Server

__all__ = ["NodeSpec", "SimNode"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node.

    Attributes
    ----------
    cores:
        Number of processing elements (PEs).
    memory_bytes:
        RAM available to the application: the budget the node's
        out-of-core layer (:class:`repro.core.ooc.OOCLayer`) keeps.
    disk_latency / disk_bandwidth:
        Per-operation seek+setup latency (s) and streaming rate (bytes/s).
    disk_channels:
        Concurrent outstanding disk transfers (1 = a single spindle).
    core_speed:
        Relative speed multiplier; compute costs are divided by this, which
        lets us model the paper's two clusters (the STEMS nodes are faster
        per PE than old SciClone nodes).
    """

    cores: int = 1
    memory_bytes: int = 2 * 1024**3
    disk_latency: float = 5e-3
    disk_bandwidth: float = 60e6
    disk_channels: int = 1
    core_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("node needs at least one core")
        if self.memory_bytes <= 0:
            raise ValueError("memory must be positive")
        if self.core_speed <= 0:
            raise ValueError("core_speed must be positive")


class SimNode:
    """Run-time state of one simulated node."""

    def __init__(self, engine: Engine, rank: int, spec: NodeSpec) -> None:
        self.engine = engine
        self.rank = rank
        self.spec = spec
        self.cores = Resource(engine, spec.cores)
        self.disk = Server(
            engine,
            spec.disk_latency,
            spec.disk_bandwidth,
            spec.disk_channels,
            name=f"disk[{rank}]",
        )

    def compute_time(self, cost_seconds: float) -> float:
        """Wall time on one core for ``cost_seconds`` of reference work."""
        return cost_seconds / self.spec.core_speed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SimNode(rank={self.rank}, cores={self.spec.cores}, "
            f"mem={self.spec.memory_bytes})"
        )
