"""Dynamic load balancing over mobile objects.

The paper's programming model "encourage[s] overdecomposition ... It
allows greater flexibility for dynamic load balancing [25]" — mobility is
the whole point of mobile objects.  This module provides the decision
side: measure per-node load, pick migrations, execute them through the
runtime's existing migration machinery.

Two policies, both classical:

* :class:`GreedyBalancer` — move objects from the most- to the
  least-loaded node until the imbalance ratio drops below a threshold
  (a stop-and-repartition step, the Zoltan-style approach the related
  work discusses);
* :class:`DiffusionBalancer` — each node sheds a fraction of its excess
  to its (ring) neighbors; local decisions only, no global view needed.

Load is measured as pending messages weighted by object size — the same
signals the control layer already tracks for swap priorities.

PR 9 adds :class:`ElasticBalancer`, which is *online* where the two
above are stop-and-repartition: it subscribes to the observability bus
and folds every :class:`~repro.obs.events.QueueDepthEvent` into a
per-node queue-depth EWMA (with residency bytes from Load/Evict events
as a tie-breaking signal), migrating a mobile object off the hottest
node whenever the live imbalance crosses its threshold — no phase
boundary required, bounded by a cooldown and a migration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runtime import MRTS
from repro.obs.events import (
    EventBus,
    EvictEvent,
    LoadEvent,
    ObsEvent,
    QueueDepthEvent,
    Subscription,
)

__all__ = [
    "NodeLoad",
    "measure_load",
    "GreedyBalancer",
    "DiffusionBalancer",
    "ElasticBalancer",
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
    spec = getattr(runtime, "speculation", None)
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


class DiffusionBalancer:
    """Neighborhood diffusion: shed excess to ring neighbors.

    Each node compares its load with its two ring neighbors and moves
    objects toward whichever is lighter by more than ``slack``; no global
    state, so it is the policy a fully distributed deployment would run.
    """

    def __init__(self, slack: float = 2.0, max_per_node: int = 4):
        if slack < 0:
            raise ValueError("slack must be >= 0")
        self.slack = slack
        self.max_per_node = max_per_node

    def rebalance(self, runtime: MRTS) -> BalanceReport:
        report = BalanceReport()
        loads = {l.rank: l.load for l in measure_load(runtime)}
        report.before_imbalance = _imbalance(measure_load(runtime))
        n = len(runtime.nodes)
        taken: set[int] = set()
        for rank in range(n):
            neighbors = [(rank - 1) % n, (rank + 1) % n]
            moved = 0
            for dst in sorted(neighbors, key=lambda r: loads[r]):
                while (
                    moved < self.max_per_node
                    and loads[rank] - loads[dst] > self.slack
                ):
                    candidates = _movable_objects(runtime, rank)
                    candidates = [
                        o for o in candidates
                        if len(runtime.nodes[rank].locals[o].queue) > 0
                        and o not in taken
                    ]
                    if not candidates:
                        break
                    oid = candidates[0]
                    taken.add(oid)
                    weight = len(runtime.nodes[rank].locals[oid].queue)
                    ptr = runtime.pointers[oid]
                    runtime.migrate(ptr, dst)
                    report.migrations.append((oid, rank, dst))
                    loads[rank] -= weight
                    loads[dst] += weight
                    moved += 1
        final = list(loads.values())
        mean = sum(final) / len(final)
        report.planned_imbalance = max(final) / mean if mean > 0 else 1.0
        return report


class ElasticBalancer:
    """Live balancer fed by the observability bus (PR 9).

    Subscribes with a synchronous callback, so the decision runs inside
    the runtime's own enqueue path — no polling process, no sampling
    lag.  Per node it keeps an EWMA of the queue depth reported by every
    :class:`QueueDepthEvent` plus the last-seen residency bytes from
    Load/Evict events.  When the hottest node's EWMA exceeds the coldest
    node's by more than ``threshold`` messages (and the cooldown since
    the previous move has elapsed), one movable object migrates hot to
    cold — residency bytes break ties among equally-cold destinations,
    so elastic moves also drift load toward memory headroom.

    Deliberately conservative: at most ``max_migrations`` over a run,
    one per ``cooldown_s`` of virtual time, never an object that is
    locked, executing, or carrying pending speculation
    (:func:`_movable_objects`).  All migrations go through the runtime's
    ordinary machinery, which already tolerates being called mid-run.
    """

    def __init__(
        self,
        runtime: MRTS,
        threshold: float = 4.0,
        alpha: float = 0.2,
        cooldown_s: float = 1e-3,
        max_migrations: int = 64,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.runtime = runtime
        self.threshold = threshold
        self.alpha = alpha
        self.cooldown_s = cooldown_s
        self.max_migrations = max_migrations
        self.depth_ewma = [0.0] * len(runtime.nodes)
        self.residency = [0] * len(runtime.nodes)
        self.migrations = 0
        self._last_move = -float("inf")
        self._sub: Subscription | None = None

    def attach(self, bus: EventBus) -> Subscription:
        self._sub = bus.subscribe(
            kinds=("queue", "load", "evict"), callback=self._on_event
        )
        return self._sub

    def detach(self) -> None:
        if self._sub is not None:
            self._sub.close()
            self._sub = None

    def _on_event(self, event: ObsEvent) -> None:
        if isinstance(event, (LoadEvent, EvictEvent)):
            self.residency[event.node] = event.memory_used
            return
        if not isinstance(event, QueueDepthEvent):
            return
        ew = self.depth_ewma
        ew[event.node] += self.alpha * (event.depth - ew[event.node])
        self._maybe_migrate()

    def _maybe_migrate(self) -> None:
        rt = self.runtime
        if self.migrations >= self.max_migrations:
            return
        if rt.engine.now - self._last_move < self.cooldown_s:
            return
        ranks = range(len(rt.nodes))
        hot = max(ranks, key=lambda r: (self.depth_ewma[r], -r))
        cold = min(ranks, key=lambda r: (self.depth_ewma[r],
                                         self.residency[r], r))
        if hot == cold:
            return
        if self.depth_ewma[hot] - self.depth_ewma[cold] <= self.threshold:
            return
        candidates = [
            oid for oid in _movable_objects(rt, hot)
            if len(rt.nodes[hot].locals[oid].queue) > 0
        ]
        if not candidates:
            return
        oid = candidates[0]
        self._last_move = rt.engine.now
        self.migrations += 1
        rt.migrate(rt.pointers[oid], cold)
        # The moved queue leaves the hot node: start its EWMA decaying
        # from the post-move backlog instead of the stale peak.
        moved = len(rt.nodes[hot].locals[oid].queue)
        self.depth_ewma[hot] = max(self.depth_ewma[hot] - moved, 0.0)
