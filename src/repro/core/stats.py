"""Execution-time accounting: computation / communication / disk overlap.

The paper's Tables IV–VI report, per run: Comp%, Comm% (or Sync%), Disk%
— each as a share of total wall-clock time — and

    Overlap = (Comp + Comm + Disk) / Total * 100% - 100%

(the text prints it as a percentage above 100 being impossible without
overlap; an overlap of 62% means the busy-time sum is 1.62x the wall
clock).  The MRTS is designed so the three activities overlap heavily.

:class:`NodeStats` accumulates busy time per activity per node;
:class:`RunStats` aggregates across nodes and computes the paper's
metrics.  Drivers feed these: the threaded driver with real perf-counter
durations, the simulated driver with virtual-time spans.

:class:`Ledger` is the simulated runtime's one accounting path: a layer
reports what happened with one call, and that call updates the
``NodeStats`` counter *and* — only when someone subscribed — publishes
the obs event built from the same numbers, so the event-stream analyzer
equals ``RunStats`` by construction rather than by discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import (
    CorruptEvent,
    DiskSpan,
    EventBus,
    EvictEvent,
    HandlerSpan,
    LoadEvent,
    MigrateEvent,
    PackEvent,
    PrefetchEvent,
    QueueDepthEvent,
    RetryEvent,
    SendSpan,
    SpecEvent,
    SpillEvent,
)

__all__ = ["NodeStats", "RunStats", "Ledger"]


@dataclass
class NodeStats:
    """Per-node busy-time accumulators (seconds, wall or virtual).

    Two flavours of I/O time are kept:

    * ``disk_time`` / ``comm_time`` — pure device *service* time (latency +
      bytes/bandwidth); bounded by physical channel capacity; used for
      utilization sanity checks.
    * ``disk_span`` / ``comm_span`` — wait-inclusive spans as perceived by
      the processing element that issued the operation (queueing included).
      This is what the paper's Tables IV–VI percentages measure: a PE's
      comp+comm+disk can exceed its wall-clock share exactly when the
      runtime overlaps activities, which is the Overlap metric.
    """

    comp_time: float = 0.0
    comm_time: float = 0.0
    disk_time: float = 0.0
    comm_span: float = 0.0
    disk_span: float = 0.0
    handlers_run: int = 0
    tasks_run: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    objects_loaded: int = 0
    objects_stored: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    storage_retries: int = 0
    corrupt_loads: int = 0
    # Data-plane counters (wall seconds; the pack path is real CPU work
    # even in the simulated driver, so these expose serialization cost
    # regressions directly).
    pack_time: float = 0.0
    unpack_time: float = 0.0
    packs: int = 0
    unpacks: int = 0
    delta_spills: int = 0
    full_spills: int = 0
    payload_bytes_raw: int = 0
    payload_bytes_stored: int = 0
    # Prefetch accuracy (PR 7): issued = background warms started; hit =
    # a worker consumed an object a prefetch had in core (or in flight);
    # wasted = a prefetched object was evicted before anyone touched it.
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0
    # Speculative + elastic tasking (PR 9).  ``barrier_idle_s`` is virtual
    # time this node spent with zero runnable work (empty ready queue, no
    # handler in flight) before more work arrived — the global-sync stall
    # that speculation exists to fill.  Spec counters are per speculative
    # handler execution; ``steals`` counts inter-node ready-work
    # migrations initiated by this node's thief.
    barrier_idle_s: float = 0.0
    spec_issued: int = 0
    spec_committed: int = 0
    spec_aborted: int = 0
    steals: int = 0
    # Ghost-layer exchange (PR 10): aggregated fanout-multicast wire sends
    # initiated by this node (one per destination node per push, however
    # many subscribers it carried).
    multicast_sends: int = 0

    def add_comp(self, seconds: float) -> None:
        self.comp_time += seconds
        self.handlers_run += 1

    def add_comm(
        self, seconds: float, nbytes: int = 0, span: float | None = None
    ) -> None:
        self.comm_time += seconds
        self.comm_span += span if span is not None else seconds
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def add_disk(
        self,
        seconds: float,
        nbytes: int,
        is_store: bool,
        span: float | None = None,
    ) -> None:
        self.disk_time += seconds
        self.disk_span += span if span is not None else seconds
        if is_store:
            self.objects_stored += 1
            self.bytes_stored += nbytes
        else:
            self.objects_loaded += 1
            self.bytes_loaded += nbytes

    def add_pack(self, seconds: float, nbytes: int = 0) -> None:
        self.pack_time += seconds
        self.packs += 1

    def add_unpack(self, seconds: float, nbytes: int = 0) -> None:
        self.unpack_time += seconds
        self.unpacks += 1

    def add_spill(self, kind: str, raw: int, stored: int) -> None:
        """Record one spill: ``kind`` is ``"delta"`` or ``"full"``;
        ``raw`` is the pre-compression payload size, ``stored`` the bytes
        that actually hit the medium."""
        if kind == "delta":
            self.delta_spills += 1
        else:
            self.full_spills += 1
        self.payload_bytes_raw += raw
        self.payload_bytes_stored += stored


@dataclass
class RunStats:
    """Whole-run aggregation and the paper's reported metrics."""

    total_time: float = 0.0
    nodes: list[NodeStats] = field(default_factory=list)

    def node(self, rank: int) -> NodeStats:
        while len(self.nodes) <= rank:
            self.nodes.append(NodeStats())
        return self.nodes[rank]

    # -- aggregates -----------------------------------------------------------
    @property
    def comp_time(self) -> float:
        return sum(n.comp_time for n in self.nodes)

    @property
    def comm_time(self) -> float:
        return sum(n.comm_time for n in self.nodes)

    @property
    def disk_time(self) -> float:
        return sum(n.disk_time for n in self.nodes)

    @property
    def comm_span(self) -> float:
        return sum(n.comm_span for n in self.nodes)

    @property
    def disk_span(self) -> float:
        return sum(n.disk_span for n in self.nodes)

    def _denominator(self, n_pes: int | None) -> float:
        """Aggregate wall-clock capacity: total time x PEs."""
        pes = n_pes if n_pes is not None else max(len(self.nodes), 1)
        return self.total_time * pes

    def comp_pct(self, n_pes: int | None = None) -> float:
        """Computation as % of total execution capacity (Tables IV–VI)."""
        d = self._denominator(n_pes)
        return 100.0 * self.comp_time / d if d > 0 else 0.0

    def comm_pct(self, n_pes: int | None = None) -> float:
        """Communication as perceived by the PEs (wait-inclusive spans)."""
        d = self._denominator(n_pes)
        return 100.0 * self.comm_span / d if d > 0 else 0.0

    def disk_pct(self, n_pes: int | None = None) -> float:
        """Disk I/O as perceived by the PEs (wait-inclusive spans)."""
        d = self._denominator(n_pes)
        return 100.0 * self.disk_span / d if d > 0 else 0.0

    def overlap_pct(self, n_pes: int | None = None) -> float:
        """The paper's Overlap metric.

        (Comp + Comm + Disk) / Total x 100% - 100%, with comm/disk measured
        as PE-perceived (wait-inclusive) spans.  The sum can only exceed
        the wall-clock capacity when the runtime genuinely overlaps
        activities — 62% is the paper's best.  Clamped below at 0, as idle
        time can push the raw value negative on underloaded runs.
        """
        d = self._denominator(n_pes)
        if d <= 0:
            return 0.0
        raw = 100.0 * (self.comp_time + self.comm_span + self.disk_span) / d - 100.0
        return max(raw, 0.0)

    def speed(self, problem_size: int, n_pes: int) -> float:
        """The paper's single-PE Speed = S / (T x N) (Tables I–III)."""
        if self.total_time <= 0 or n_pes <= 0:
            raise ValueError("speed undefined for zero time or PEs")
        return problem_size / (self.total_time * n_pes)

    # -- convenience ------------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        return sum(n.messages_sent for n in self.nodes)

    @property
    def objects_loaded(self) -> int:
        return sum(n.objects_loaded for n in self.nodes)

    @property
    def objects_stored(self) -> int:
        return sum(n.objects_stored for n in self.nodes)

    @property
    def bytes_to_disk(self) -> int:
        return sum(n.bytes_stored for n in self.nodes)

    @property
    def storage_retries(self) -> int:
        return sum(n.storage_retries for n in self.nodes)

    @property
    def corrupt_loads(self) -> int:
        return sum(n.corrupt_loads for n in self.nodes)

    @property
    def pack_time(self) -> float:
        return sum(n.pack_time for n in self.nodes)

    @property
    def unpack_time(self) -> float:
        return sum(n.unpack_time for n in self.nodes)

    @property
    def packs(self) -> int:
        return sum(n.packs for n in self.nodes)

    @property
    def unpacks(self) -> int:
        return sum(n.unpacks for n in self.nodes)

    @property
    def delta_spills(self) -> int:
        return sum(n.delta_spills for n in self.nodes)

    @property
    def full_spills(self) -> int:
        return sum(n.full_spills for n in self.nodes)

    @property
    def payload_bytes_raw(self) -> int:
        return sum(n.payload_bytes_raw for n in self.nodes)

    @property
    def payload_bytes_stored(self) -> int:
        return sum(n.payload_bytes_stored for n in self.nodes)

    @property
    def stored_ratio(self) -> float:
        """Stored / raw payload bytes across the run (1.0 = no saving)."""
        raw = self.payload_bytes_raw
        return self.payload_bytes_stored / raw if raw > 0 else 1.0

    @property
    def prefetch_issued(self) -> int:
        return sum(n.prefetch_issued for n in self.nodes)

    @property
    def prefetch_hits(self) -> int:
        return sum(n.prefetch_hits for n in self.nodes)

    @property
    def prefetch_wasted(self) -> int:
        return sum(n.prefetch_wasted for n in self.nodes)

    @property
    def prefetch_hit_rate(self) -> float:
        """Hits / issued across the run (1.0 when nothing was issued)."""
        issued = self.prefetch_issued
        return self.prefetch_hits / issued if issued > 0 else 1.0

    @property
    def barrier_idle_s(self) -> float:
        return sum(n.barrier_idle_s for n in self.nodes)

    @property
    def spec_issued(self) -> int:
        return sum(n.spec_issued for n in self.nodes)

    @property
    def spec_committed(self) -> int:
        return sum(n.spec_committed for n in self.nodes)

    @property
    def spec_aborted(self) -> int:
        return sum(n.spec_aborted for n in self.nodes)

    @property
    def spec_commit_rate(self) -> float:
        """Committed / resolved speculative executions (1.0 when none)."""
        resolved = self.spec_committed + self.spec_aborted
        return self.spec_committed / resolved if resolved > 0 else 1.0

    @property
    def steals(self) -> int:
        return sum(n.steals for n in self.nodes)

    @property
    def multicast_sends(self) -> int:
        return sum(n.multicast_sends for n in self.nodes)


class Ledger:
    """Counter and event from the same floats, in one call.

    Holds the run's :class:`RunStats`, its obs :class:`EventBus` and the
    clock (anything with a ``now``; the DES engine).  One method per kind
    of thing the runtime accounts for.  Events are constructed only under
    ``bus.active``, so with no subscriber a call costs its counter update
    and one attribute read — instrumentation stays pay-for-use.  Kinds
    with no ``NodeStats`` counter (evict, load, migrate, queue depth) are
    event-only; what nobody draws (``steals``, ``messages_received``,
    ``multicast_sends``, ``barrier_idle_s``) goes through :meth:`count`.
    """

    __slots__ = ("stats", "bus", "_clock")

    _PREFETCH_COUNTER = {"issue": "prefetch_issued", "hit": "prefetch_hits",
                         "wasted": "prefetch_wasted"}

    def __init__(self, stats: RunStats, bus: EventBus, clock) -> None:
        self.stats = stats
        self.bus = bus
        self._clock = clock

    def count(self, rank: int, counter: str, n: float = 1) -> None:
        """Add ``n`` to a ``NodeStats`` counter that has no event."""
        node = self.stats.node(rank)
        setattr(node, counter, getattr(node, counter) + n)

    # -- computing layer ---------------------------------------------------
    def handler(
        self, rank: int, oid: int, name: str, start: float,
        charged: float, queue_len: int,
    ) -> None:
        """A handler finished: ``charged`` virtual compute seconds."""
        self.stats.node(rank).add_comp(charged)
        if self.bus.active:
            self.bus.publish(HandlerSpan(
                start, rank, oid, name, self._clock.now - start, charged,
                queue_len))

    def spec(self, rank: int, oid: int, phase: str, n: int = 1) -> None:
        """``n`` speculative executions on ``oid`` were ``issued`` /
        ``committed`` / ``aborted``."""
        self.count(rank, "spec_" + phase, n)
        if self.bus.active:
            self.bus.publish(SpecEvent(self._clock.now, rank, oid, phase))

    # -- control layer -----------------------------------------------------
    def send(
        self, src: int, dst: int, nbytes: int, start: float,
        service: float, span: float, counted: bool = True,
    ) -> None:
        """A wire transfer left ``src``.  Same-node sends bypass the NIC:
        drawn on the timeline, never counted as communication."""
        if counted:
            self.stats.node(src).add_comm(service, nbytes, span=span)
        if self.bus.active:
            self.bus.publish(SendSpan(
                start, src, dst, nbytes, service, span, counted))

    def queue_depth(self, rank: int, oid: int, depth: int) -> None:
        if self.bus.active:
            self.bus.publish(QueueDepthEvent(
                self._clock.now, rank, oid, depth))

    def migrate(self, src: int, oid: int, dst: int, nbytes: int) -> None:
        if self.bus.active:
            self.bus.publish(MigrateEvent(
                self._clock.now, src, oid, dst, nbytes))

    # -- out-of-core layer -------------------------------------------------
    def disk(
        self, rank: int, start: float, nbytes: int, is_store: bool,
        blocking: bool, service: float, span: float,
    ) -> None:
        self.stats.node(rank).add_disk(service, nbytes, is_store, span=span)
        if self.bus.active:
            self.bus.publish(DiskSpan(
                start, rank, nbytes, is_store, blocking, service, span))

    def load_wait(self, rank: int, start: float, span: float) -> None:
        """A demand path waited behind another process's in-flight load.

        The transfer's service time and bytes were charged exactly once
        by the gate holder; the waiter still *perceived* disk wait, which
        is what the paper's disk%/overlap% measure: a zero-byte blocking
        span.
        """
        self.disk(rank, start, 0, False, True, 0.0, span)

    def evict(
        self, rank: int, oid: int, nbytes: int, clean: bool, memory_used: int
    ) -> None:
        if self.bus.active:
            self.bus.publish(EvictEvent(
                self._clock.now, rank, oid, nbytes, clean, memory_used))

    def load(
        self, rank: int, oid: int, nbytes: int, background: bool,
        memory_used: int,
    ) -> None:
        if self.bus.active:
            self.bus.publish(LoadEvent(
                self._clock.now, rank, oid, nbytes, background, memory_used))

    def prefetch(self, rank: int, oid: int, phase: str) -> None:
        """A background warm was ``issue``d, ``hit`` or ``wasted``."""
        self.count(rank, self._PREFETCH_COUNTER[phase])
        if self.bus.active:
            self.bus.publish(PrefetchEvent(self._clock.now, rank, oid, phase))

    # -- data plane and storage layer ---------------------------------------
    def pack(self, rank: int, op: str, seconds: float, nbytes: int) -> None:
        """A serialization op ran on ``rank``; ``op`` is ``"pack"`` or
        ``"unpack"``, ``seconds`` host wall time."""
        if op == "pack":
            self.stats.node(rank).add_pack(seconds, nbytes)
        else:
            self.stats.node(rank).add_unpack(seconds, nbytes)
        if self.bus.active:
            self.bus.publish(PackEvent(
                self._clock.now, rank, op, seconds, nbytes))

    def spill(
        self, rank: int, oid: int, kind: str, raw: int, stored: int
    ) -> None:
        """A dirty spill persisted on ``rank``; ``kind`` is ``"delta"`` or
        ``"full"``, ``raw``/``stored`` are payload bytes before and after
        the compression tier."""
        self.stats.node(rank).add_spill(kind, raw, stored)
        if self.bus.active:
            self.bus.publish(SpillEvent(
                self._clock.now, rank, oid, kind, raw, stored))

    def retry(
        self, rank: int, op: str, oid: int, attempt: int, delay: float
    ) -> None:
        """A storage op on ``rank`` is about to be retried."""
        self.stats.node(rank).storage_retries += 1
        if self.bus.active:
            self.bus.publish(RetryEvent(
                self._clock.now, rank, op, oid, attempt, delay))

    def corrupt(self, rank: int, oid: int) -> None:
        """A load on ``rank`` failed frame validation."""
        self.stats.node(rank).corrupt_loads += 1
        if self.bus.active:
            self.bus.publish(CorruptEvent(self._clock.now, rank, oid))
