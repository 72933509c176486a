"""Dynamic load balancing over mobile objects.

The paper's programming model "encourage[s] overdecomposition ... It
allows greater flexibility for dynamic load balancing [25]" — mobility is
the whole point of mobile objects.  This module provides the decision
side: measure per-node load, pick migrations, execute them through the
runtime's existing migration machinery.

The policy, :class:`GreedyBalancer`, moves objects from the most- to
the least-loaded node until the imbalance ratio drops below a threshold
(a stop-and-repartition step, the Zoltan-style approach the related
work discusses).

Load is measured as pending messages weighted by object size — the same
signals the control layer already tracks for swap priorities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime import MRTS

__all__ = [
    "NodeLoad",
    "measure_load",
    "GreedyBalancer",
]


@dataclass
class NodeLoad:
    rank: int
    pending_messages: int
    n_objects: int
    memory_used: int

    @property
    def load(self) -> float:
        """Scalar load: pending work dominates, object count tiebreaks."""
        return self.pending_messages + 0.01 * self.n_objects


def measure_load(runtime: MRTS) -> list[NodeLoad]:
    """Snapshot per-node load from control-layer state."""
    out = []
    for nrt in runtime.nodes:
        pending = sum(len(rec.queue) for rec in nrt.locals.values())
        out.append(
            NodeLoad(
                rank=nrt.rank,
                pending_messages=pending,
                n_objects=len(nrt.locals),
                memory_used=nrt.ooc.memory_used,
            )
        )
    return out


@dataclass
class BalanceReport:
    migrations: list[tuple[int, int, int]] = field(default_factory=list)
    before_imbalance: float = 1.0
    planned_imbalance: float = 1.0

    @property
    def n_migrations(self) -> int:
        return len(self.migrations)


def _movable_objects(runtime: MRTS, rank: int) -> list[int]:
    """Objects on ``rank`` eligible to move: unlocked, no handler running."""
    nrt = runtime.nodes[rank]
    spec = runtime.speculation
    out = []
    for oid, rec in nrt.locals.items():
        if rec.in_flight > 0:
            continue
        residency = nrt.ooc.table.get(oid)
        if residency is None or residency.locked:
            continue
        if spec is not None and spec.has_pending(oid):
            # Moving it would force an abort of its pending speculation;
            # cheaper to balance around it.
            continue
        out.append(oid)
    # Move busiest objects first: they carry the most future work.
    out.sort(key=lambda o: -len(nrt.locals[o].queue))
    return out


def _imbalance(loads: list[NodeLoad]) -> float:
    values = [max(l.load, 0.0) for l in loads]
    mean = sum(values) / len(values)
    if mean <= 0:
        return 1.0
    return max(values) / mean


class GreedyBalancer:
    """Max-to-min migration until the imbalance ratio is acceptable."""

    def __init__(self, threshold: float = 1.25, max_migrations: int = 64):
        if threshold < 1.0:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.max_migrations = max_migrations

    def rebalance(self, runtime: MRTS) -> BalanceReport:
        """Plan and launch migrations; returns what was moved.

        Call between phases (like the stop-and-repartition libraries the
        paper compares against); migrations execute asynchronously on the
        next `run()`.
        """
        report = BalanceReport()
        loads = {l.rank: l.load for l in measure_load(runtime)}
        report.before_imbalance = _imbalance(measure_load(runtime))
        queues = {
            nrt.rank: {
                oid: len(rec.queue) for oid, rec in nrt.locals.items()
            }
            for nrt in runtime.nodes
        }
        taken: set[int] = set()
        for _ in range(self.max_migrations):
            src = max(loads, key=lambda r: loads[r])
            dst = min(loads, key=lambda r: loads[r])
            if loads[dst] <= 0 and loads[src] <= 0:
                break
            mean = sum(loads.values()) / len(loads)
            if mean <= 0 or loads[src] / mean <= self.threshold:
                break
            candidates = [
                oid for oid in _movable_objects(runtime, src)
                if queues[src].get(oid, 0) > 0 and oid not in taken
            ]
            if not candidates:
                break
            oid = candidates[0]
            weight = queues[src][oid]
            if loads[src] - weight < loads[dst] + weight - 1e-9:
                break  # moving it would just flip the imbalance
            taken.add(oid)
            ptr = runtime.pointers[oid]
            runtime.migrate(ptr, dst)
            report.migrations.append((oid, src, dst))
            loads[src] -= weight
            loads[dst] += weight
            queues[dst][oid] = queues[src].pop(oid)
        final = list(loads.values())
        mean = sum(final) / len(final)
        report.planned_imbalance = (
            max(final) / mean if mean > 0 else 1.0
        )
        return report
