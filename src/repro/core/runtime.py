"""The MRTS runtime: mobile objects + active messages on a cluster.

This module wires the four layers together on the discrete-event cluster
substrate:

* the **storage layer** (:mod:`repro.core.storage`) really packs objects
  and stores bytes (files or memory) — out-of-core is not simulated away;
* the **out-of-core layer** (:mod:`repro.core.ooc`) decides evictions,
  enforces the hard/soft thresholds, honours locks and priorities;
* the **control layer** routes messages through the distributed directory
  (lazy-update forwarding), orders per-object queues, and detects global
  termination;
* the **computing layer** (:mod:`repro.core.computing`) turns handler task
  trees into execution time under the configured backend.

Execution and time: message handlers are *real Python functions* running
against real object state, but the clock is the simulation engine's
virtual time.  Each handler charges compute seconds — measured wall time
by default (functional runs), or a model-provided cost (paper-scale runs).
Disk and network charge virtual time through the node's disk Server and
the cluster NIC model using true byte counts.  One worker coroutine per
in-flight handler slot; *compute* serializes through the node's cores
resource while disk/network waits do not hold a core, which is exactly the
overlap mechanism the paper's Tables IV–VI measure.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.config import MRTSConfig
from repro.core.control import ReadyQueue, TerminationDetector
from repro.core.computing import Task, make_executor, node_thief
from repro.core.directory import Directory, make_directory
from repro.core.messages import Message, MessageQueue, MulticastMessage
from repro.core.mobile import MobileObject, MobilePointer
from repro.core.ooc import OOCLayer
from repro.core.stats import RunStats
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
    SpillEvent,
)
from repro.core.packfile import PackFileBackend
from repro.core.prefetch import PrefetchPredictor
from repro.core.spec import SpeculationManager
from repro.core.storage import (
    ChecksummedBackend,
    CompressingBackend,
    CountingBackend,
    MemoryBackend,
    StorageBackend,
    build_storage_stack,
)
from repro.sim.cluster import ClusterSpec, SimCluster
from repro.sim.engine import Engine
from repro.sim.node import NodeSpec
from repro.sim.resources import Store
from repro.util.errors import (
    CorruptObject,
    MRTSError,
    ObjectNotFound,
    OutOfMemory,
)
from repro.util.ids import IdAllocator

__all__ = ["MRTS", "HandlerContext", "CostModel", "MeasuredCostModel", "handler"]

_SERVICE_MSG_BYTES = 64
_SHUTDOWN = object()


def handler(fn: Optional[Callable] = None, *, readonly: bool = False) -> Callable:
    """Decorator marking a :class:`MobileObject` method as a message handler.

    ``@handler(readonly=True)`` declares that the handler never mutates the
    object's serialized state.  The runtime then skips the conservative
    post-handler dirty marking (and re-sizing), so a spill of an object that
    only served read-only handlers since its last load needs no write-back —
    the storage copy is still current.  A readonly handler that *does*
    mutate state must call ``self.mark_dirty()`` itself or its changes can
    be lost on eviction.
    """

    def mark(f: Callable) -> Callable:
        f._mrts_handler = True
        f._mrts_readonly = readonly
        return f

    return mark(fn) if fn is not None else mark


class CostModel:
    """Provides virtual compute costs and modeled object sizes.

    ``handler_cost`` returns seconds of reference-core compute for one
    handler invocation (before node speed scaling); return ``None`` to fall
    back to measured wall time.  ``object_nbytes`` overrides the object's
    own size report (modeled apps describe multi-GB subdomains with small
    Python stand-ins); return ``None`` to use ``obj.nbytes()``.
    """

    def handler_cost(
        self, obj: MobileObject, handler_name: str, msg: Message | MulticastMessage
    ) -> Optional[float]:
        return None

    def object_nbytes(self, obj: MobileObject) -> Optional[int]:
        return None


class MeasuredCostModel(CostModel):
    """Default: charge the measured wall time of the handler body."""


@dataclass
class _LocalObject:
    """Node-local record for a mobile object the node currently owns."""

    obj: Optional[MobileObject]  # None while spilled to disk
    queue: MessageQueue = field(default_factory=MessageQueue)
    in_flight: int = 0  # handlers currently executing against the object
    # Serialized bytes of the current in-core state, or None if not packed
    # since the last mutation.  Invalidated through the object's dirty
    # hook, so an unchanged object is packed at most once per residency
    # epoch no matter how many size probes / spills look at it.
    pack_cache: Optional[bytes] = None
    # Delta-spill bookkeeping for the stored copy (valid only while the
    # storage holds a current full/append-log copy of this object):
    # ``stored_token`` is the serializer's delta token as of the last
    # store (None = next dirty spill must be a full store);
    # ``log_frames`` counts segments in the stored append-log;
    # ``base/log_payload_bytes`` drive bytes-factor compaction;
    # ``stored_modeled`` is the modeled size already charged to the
    # virtual disk, so a modeled delta spill charges only the growth.
    stored_token: Any = None
    log_frames: int = 0
    base_payload_bytes: int = 0
    log_payload_bytes: int = 0
    stored_modeled: int = 0


class HandlerContext:
    """What a message handler sees as its window into the runtime.

    Exposes the paper's API surface: posting messages (including multicast
    and self-messages), creating mobile objects, locking/priorities for the
    out-of-core layer, direct handler calls (the §III shared-memory
    optimization), explicit compute charging for modeled applications, and
    task-tree execution through the computing layer.
    """

    def __init__(self, runtime: "MRTS", node: int) -> None:
        self.runtime = runtime
        self.node = node
        self.outbox: list[Message | MulticastMessage] = []
        self.extra_charge = 0.0
        self._size_hint: Optional[tuple] = None  # ("abs"|"delta", nbytes)
        # True while a speculative handler runs (PR 9): its outbox is
        # buffered on the speculation record, direct calls and peeks are
        # refused (they would leak unvalidated effects across objects).
        self.speculative = False

    # -- messaging --------------------------------------------------------
    def post(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Send a one-sided message; delivered after this handler finishes."""
        self.outbox.append(
            Message(target, handler_name, args, kwargs, source_node=self.node)
        )

    def post_speculative(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Post a message that may execute past the current phase boundary.

        With ``config.speculation`` on, the message carries the
        speculative flag: the ready queue serves it only on
        otherwise-idle slots, its execution is provisional, and its
        effects buffer until commit-time validation against the
        directory's version stamps (docs/speculative_tasking.md).  With
        speculation off this degrades to a plain :meth:`post` — same
        delivery, no marker — so applications call it unconditionally.
        """
        msg = Message(target, handler_name, args, kwargs, source_node=self.node)
        if self.runtime.speculation is not None:
            msg.speculative = True
        self.outbox.append(msg)

    def post_multicast(
        self,
        targets: Sequence[MobilePointer],
        handler_name: str,
        deliver_count: int = 1,
        *args: Any,
        mode: str = "collect",
        **kwargs: Any,
    ) -> None:
        """Send the experimental multicast mobile message (§III Findings).

        ``mode="fanout"`` switches to the ghost-exchange push semantics:
        all targets receive the handler, grouped into one aggregated wire
        send per destination node carrying the payload once.
        """
        self.outbox.append(
            MulticastMessage(
                list(targets), handler_name, deliver_count, args, kwargs,
                source_node=self.node, mode=mode,
            )
        )

    def call_direct(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> bool:
        """§III optimization: run the handler inline if target is here, in-core.

        Returns True on success; False means the caller should fall back to
        :meth:`post`.  The inline handler's compute cost accrues to the
        current handler.
        """
        return self.runtime._call_direct(self, target, handler_name, args, kwargs)

    # -- object management --------------------------------------------------
    def create(
        self, cls: type, *args: Any, node: Optional[int] = None, **kwargs: Any
    ) -> MobilePointer:
        """Create a new mobile object (on this node unless ``node`` given)."""
        return self.runtime._create_object(
            cls, args, kwargs, node if node is not None else self.node
        )

    def destroy(self, target: MobilePointer) -> None:
        self.runtime._destroy_object(target)

    def lock(self, target: MobilePointer) -> None:
        """Pin an object in core on its current node."""
        self.runtime._with_residency(target, lambda ooc, oid: ooc.lock(oid))

    def unlock(self, target: MobilePointer) -> None:
        self.runtime._with_residency(target, lambda ooc, oid: ooc.unlock(oid))

    def set_priority(self, target: MobilePointer, priority: float) -> None:
        """Out-of-core priority hint: higher stays in core longer."""
        target.priority = priority
        self.runtime._with_residency(
            target, lambda ooc, oid: ooc.set_priority(oid, priority)
        )

    def boost_schedule(self, target: MobilePointer, amount: float = 1.0) -> None:
        """Raise the target's position in its node's ready queue (§III)."""
        self.runtime._boost(target, amount)

    def is_resident(self, target: MobilePointer) -> bool:
        """Is the object on this node and in core right now?"""
        return self.runtime._is_local_resident(target, self.node)

    def peek(self, target: MobilePointer) -> Optional[MobileObject]:
        """Read access to a co-resident, in-core object; None otherwise.

        The shared-memory fast path of §III: after a multicast collected a
        leaf's buffer on one node, the leaf handler reads buffer data
        directly instead of round-tripping messages.
        """
        if self.speculative:
            # Commit validation only covers the handler's own target:
            # a cross-object read here would be unvalidated input.
            # Callers already handle None by falling back to messages,
            # which buffer until the speculation commits.
            return None
        if not self.runtime._is_local_resident(target, self.node):
            return None
        rec = self.runtime.nodes[self.node].locals.get(target.oid)
        if rec is None or rec.obj is None:
            return None
        self.runtime.nodes[self.node].ooc.touch(target.oid)
        return rec.obj

    # -- size accounting -----------------------------------------------------
    def grew(self, nbytes: int) -> None:
        """Report that this handler grew the object's state by ``nbytes``.

        Pack-free accounting: the runtime applies the reported growth to
        the out-of-core budget instead of re-serializing the object to
        measure it.  Multiple calls accumulate; the hint is consumed by
        the post-handler growth accounting of the handler's own object.
        """
        if nbytes < 0:
            raise ValueError("negative growth; use report_size instead")
        if self._size_hint is None:
            self._size_hint = ("delta", nbytes)
        else:
            kind, n = self._size_hint
            self._size_hint = (kind, n + nbytes)

    def report_size(self, nbytes: int) -> None:
        """Report the object's absolute serialized size after this handler."""
        if nbytes < 0:
            raise ValueError("object size cannot be negative")
        self._size_hint = ("abs", nbytes)

    def _take_size_hint(self) -> Optional[tuple]:
        hint, self._size_hint = self._size_hint, None
        return hint

    # -- compute ------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Add explicit compute cost (modeled applications)."""
        if seconds < 0:
            raise ValueError("negative compute charge")
        self.extra_charge += seconds

    def run_tasks(self, roots: Sequence[Task]) -> float:
        """Run a task tree through the computing layer; returns makespan.

        The makespan (under the configured executor policy, using all the
        node's cores) is charged as this handler's parallel-region time.
        """
        sched = self.runtime._node_executor(self.node)
        result = sched.schedule(roots)
        self.extra_charge += result.makespan
        return result.makespan

    @property
    def now(self) -> float:
        return self.runtime.engine.now


class _NodeRuntime:
    """Per-node control-layer state."""

    def __init__(self, runtime: "MRTS", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.locals: dict[int, _LocalObject] = {}
        self.ready = ReadyQueue(runtime.ready_discipline)
        # Memory budget comes from the node hardware spec, not the config
        # default — the whole point of out-of-core is respecting node RAM.
        self.ooc = OOCLayer(
            runtime.config, budget=runtime.spec.node.memory_bytes
        )
        backend = runtime.storage_factory(rank)
        self.storage = runtime._compose_storage(rank, backend)
        self.tokens = Store(runtime.engine)
        self.workers: list = []
        self.prefetching: set[int] = set()
        # Objects whose prefetch was *issued* (bytes charged) and not yet
        # claimed by a worker (hit) or an eviction (wasted) — prefetch
        # accuracy attribution, always maintained (RunStats counters).
        self.prefetched: set[int] = set()
        # Single-flight load registry: oid -> completion SimEvent of the
        # one in-flight transfer.  Every other process that needs the
        # object waits on the gate instead of charging a duplicate read.
        self.loading: dict[int, Any] = {}
        # Multicast collections pin several objects at once; serializing
        # them per gather node bounds the pinned working set (two
        # unthrottled collections can otherwise wedge a small node).
        from repro.sim.resources import Resource as _Resource

        self.mcast_slot = _Resource(runtime.engine, 1)
        # Out-of-core medium: None = local disk; a node rank = remote
        # memory server reached over the interconnect (paper [33]).
        self.spill_server: Optional[int] = None
        self.write_behind = _WriteBehind(runtime, rank)
        # Barrier-idle accounting (PR 9): a node is idle when no handler
        # is executing and no message is queued anywhere on it.
        # ``idle_since`` marks when that state began (None = busy, or
        # never had work); the interval is charged to
        # ``NodeStats.barrier_idle_s`` when work arrives again.
        self.active_handlers = 0
        self.queued_msgs = 0
        self.idle_since: Optional[float] = None

    def queue_len(self, oid: int) -> int:
        rec = self.locals.get(oid)
        return len(rec.queue) if rec is not None else 0

    def spec_only(self, oid: int) -> bool:
        """Does the object's queue hold nothing but speculative messages?

        Fed to :meth:`ReadyQueue.pop` so speculation is served strictly
        after every object with real work (stall filler, never a rival).
        """
        rec = self.locals.get(oid)
        if rec is None or not rec.queue:
            return False
        return all(getattr(m, "speculative", False) for m in rec.queue)

    def _find_layer(self, cls: type):
        # Walked on every access (not cached) because attach_remote_memory
        # re-composes self.storage mid-run.
        layer = self.storage
        while layer is not None:
            if isinstance(layer, cls):
                return layer
            layer = getattr(layer, "inner", None)
        return None

    @property
    def compressor(self) -> Optional[CompressingBackend]:
        """The node's compression tier, or None when disabled."""
        return self._find_layer(CompressingBackend)

    @property
    def frame_layer(self) -> Optional[ChecksummedBackend]:
        """The node's frame (checksum) tier, or None when disabled."""
        return self._find_layer(ChecksummedBackend)

    @property
    def packfile(self) -> Optional[PackFileBackend]:
        """The node's locality-aware pack layout, or None when the raw
        store came from a custom factory."""
        return self._find_layer(PackFileBackend)


class _WriteBehind:
    """Per-node pipelined write-behind queue for spill stores.

    ``storage.store()`` has already run in Python time when :meth:`submit`
    is called — the bytes are durable immediately, so crash consistency,
    fault injection and checkpoint reads behave exactly as with
    synchronous spills.  What is deferred is the *virtual disk time* of
    the store: it drains through the node's disk server in a detached
    process, concurrently with whatever the evicting worker does next
    (typically the target object's disk read), instead of serializing in
    front of it.

    :meth:`wait` is the completion barrier: a re-load of an object whose
    own store is still in flight first waits for that store's virtual
    completion, so on the disk timeline a load can never observe bytes
    from "before" they were written.  At most one store per object can be
    pending, because every path back to eviction goes through a load,
    which waits here first.
    """

    def __init__(self, runtime: "MRTS", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.pending: dict[int, Any] = {}  # oid -> completion SimEvent

    def submit(self, oid: int, nbytes: int) -> None:
        """Queue the virtual disk charge for a store that already happened."""
        done = self.runtime.engine.event()
        self.pending[oid] = done
        self.runtime.engine.process(
            self._drain(oid, nbytes, done), name=f"write-behind[{oid}]"
        )

    def _drain(self, oid: int, nbytes: int, done):
        try:
            yield from self.runtime._disk_xfer(
                self.rank, nbytes, is_store=True, blocking=False
            )
        finally:
            if self.pending.get(oid) is done:
                del self.pending[oid]
            done.succeed()

    def wait(self, oid: int):
        """Process body: block until ``oid`` has no in-flight store."""
        done = self.pending.get(oid)
        if done is not None:
            yield done


class MRTS:
    """The Multi-layered Run-Time System.

    Parameters
    ----------
    cluster:
        A :class:`ClusterSpec`, or an int for an n-node default cluster.
    config:
        Runtime tunables (thresholds, swap scheme, directory policy, ...).
    storage_factory:
        ``rank -> StorageBackend`` for each node's out-of-core store;
        defaults to in-memory backends (tests); pass FileBackend factories
        for true disk spill.
    cost_model:
        Compute-cost provider; default measures real handler wall time.
    io_depth:
        Extra in-flight handler slots per node beyond the core count —
        these are what let disk/network waits overlap with computation.
    bus:
        The observability :class:`~repro.obs.events.EventBus` the runtime
        publishes typed events on.  Defaults to a fresh private bus; pass
        a shared one to trace across runtime incarnations (recovery
        supervisors do).  With no subscriber attached every emit point
        costs one attribute read — instrumentation is pay-for-use.
    """

    def __init__(
        self,
        cluster: ClusterSpec | int,
        config: Optional[MRTSConfig] = None,
        storage_factory: Optional[Callable[[int], StorageBackend]] = None,
        cost_model: Optional[CostModel] = None,
        io_depth: int = 2,
        ready_discipline: str = "fifo",
        bus: Optional[EventBus] = None,
    ) -> None:
        if isinstance(cluster, int):
            cluster = ClusterSpec(n_nodes=cluster, node=NodeSpec(cores=1))
        self.spec = cluster
        self.config = config or MRTSConfig()
        self.engine = Engine()
        self.cluster = SimCluster(self.engine, cluster)
        self.cost_model = cost_model or MeasuredCostModel()
        if storage_factory is not None:
            self.storage_factory = storage_factory
        elif self.config.packfile_spills:
            # Default raw store: locality-ordered pack segments, so
            # curve-adjacent objects cohabit and neighborhood warms are
            # one sequential read.  Custom factories (file spill, fault
            # injection, dist shards) are never wrapped.
            self.storage_factory = lambda rank: PackFileBackend()
        else:
            self.storage_factory = lambda rank: MemoryBackend()
        # Learned prefetch: a Markov model over the demand-load event
        # stream.  Fed directly with the same LoadEvents the bus carries
        # (not via subscription, so instrumentation stays pay-for-use).
        self.predictor: Optional[PrefetchPredictor] = (
            PrefetchPredictor() if self.config.learned_prefetch else None
        )
        self.io_depth = io_depth
        self.ready_discipline = ready_discipline
        self.directory: Directory = make_directory(
            self.config.directory_policy, cluster.n_nodes
        )
        self.stats = RunStats()
        self.bus = bus if bus is not None else EventBus()
        self._done_event = self.engine.event()
        self.termination = TerminationDetector(self._on_quiescent)
        # Speculative tasking (PR 9): constructed only when enabled, so
        # every hot-path hook stays a single ``is not None`` check when
        # off and the default runtime is byte-identical.  (``self.spec``
        # is the ClusterSpec; the manager deliberately gets the longer
        # name.)
        self.speculation: Optional[SpeculationManager] = (
            SpeculationManager(self) if self.config.speculation else None
        )
        # Installed by RecoveryPolicy: oid -> last checkpointed payload (or
        # None).  _load_blocking falls back to it when the storage copy
        # fails frame validation (torn write detected as CorruptObject).
        self.recovery_source: Optional[Callable[[int], Optional[bytes]]] = None
        # Objects whose storage copy was rewritten since the supervisor's
        # last snapshot (cleared by RecoveryPolicy at every checkpoint and
        # restore).  For these the snapshot payload is stale, so the
        # corrupt-load fallback must escalate instead of silently rewinding
        # one object to an older cut than the rest of the world.
        self.stored_since_snapshot: set[int] = set()
        self.nodes = [_NodeRuntime(self, r) for r in range(cluster.n_nodes)]
        # Elastic balancing (PR 9): a live bus subscriber that migrates
        # mobile objects off hot nodes as queue-depth imbalance develops.
        self.balancer = None
        if self.config.elastic_balance:
            # Local import: balancer.py imports this module at top level.
            from repro.core.balancer import ElasticBalancer

            self.balancer = ElasticBalancer(self)
            self.balancer.attach(self.bus)
        self._id_alloc = IdAllocator()
        self._objects_by_oid: dict[int, MobilePointer] = {}
        self._obj_classes: dict[int, type] = {}
        self._executors = {
            r: make_executor(self.config.executor, cluster.node.cores)
            for r in range(cluster.n_nodes)
        }
        self._running = False
        self._started = False
        for rank in range(cluster.n_nodes):
            self.cluster.network.attach_sink(rank, self._make_sink(rank))

    # ================================================================ setup
    def create_object(
        self, cls: type, *args: Any, node: int = 0, **kwargs: Any
    ) -> MobilePointer:
        """Create a mobile object before or during the parallel phase."""
        return self._create_object(cls, args, kwargs, node)

    def post(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Post an initial message (the application's driver message)."""
        msg = Message(target, handler_name, args, kwargs, source_node=-1)
        self._post_message(msg, from_node=self.directory.location(target.oid))

    def run(self, until: Optional[float] = None) -> RunStats:
        """Execute until global termination; returns the run statistics.

        Can be called again after posting more messages (the paper's "it is
        possible to start another phase of computing with the run-time
        system"); each call gets a fresh quiescence event.
        """
        if not self._started:
            self._start_workers()
            self._started = True
        self._running = True
        if self.termination.outstanding == 0:
            # Nothing posted: trivially quiescent.
            self.stats.total_time = self.engine.now
            return self.stats
        if self._done_event.triggered:
            self._done_event = self.engine.event()
        self.engine.run(until=self._done_event if until is None else until)
        self._running = False
        self.stats.total_time = self.engine.now
        return self.stats

    def _on_quiescent(self) -> None:
        # Quiescence is the speculation commit point: the outstanding
        # count is zero, so no write is in flight anywhere and commit
        # validation is exact.  A resolution that re-injects credits
        # (a commit's buffered outbox, an abort's re-posted messages)
        # keeps the run alive; termination is only declared once every
        # record is resolved with nothing re-entering flight.
        if self.speculation is not None and self.speculation.resolve():
            return
        if not self._done_event.triggered:
            self._done_event.succeed()

    def _start_workers(self) -> None:
        for node in self.nodes:
            slots = self.spec.node.cores + self.io_depth
            for k in range(slots):
                proc = self.engine.process(
                    self._worker(node), name=f"worker[{node.rank}.{k}]"
                )
                node.workers.append(proc)
        if self.config.work_stealing and len(self.nodes) > 1:
            for node in self.nodes:
                self.engine.process(
                    node_thief(self, node), name=f"thief[{node.rank}]"
                )

    def _node_executor(self, rank: int):
        return self._executors[rank]

    # ======================================================== self-healing
    def _compose_storage(self, rank: int, backend: StorageBackend) -> CountingBackend:
        """Wrap a factory backend in the self-healing storage stack.

        Delegates to :func:`~repro.core.storage.build_storage_stack` (also
        used by the ``repro.dist`` workers) with this node's rank as the
        retry-jitter seed and the runtime's retry hook for stats/events.
        """

        def on_retry(op: str, oid: int, attempt: int, delay: float) -> None:
            self._note_retry(rank, op, oid, attempt, delay)

        return build_storage_stack(
            self.config, backend, seed=rank, on_retry=on_retry
        )

    def _note_retry(
        self, rank: int, op: str, oid: int, attempt: int, delay: float
    ) -> None:
        """A storage op on ``rank`` is about to be retried (obs hook)."""
        self.stats.node(rank).storage_retries += 1
        if self.bus.active:
            self.bus.publish(RetryEvent(
                self.engine.now, rank, op, oid, attempt, delay))

    def _note_corrupt(self, rank: int, oid: int) -> None:
        """A load on ``rank`` failed frame validation (obs hook)."""
        self.stats.node(rank).corrupt_loads += 1
        if self.bus.active:
            self.bus.publish(CorruptEvent(self.engine.now, rank, oid))

    def _note_pack(self, rank: int, op: str, seconds: float, nbytes: int) -> None:
        """A serialization op ran on ``rank`` (obs hook); ``op`` is
        ``"pack"`` or ``"unpack"``."""
        if op == "pack":
            self.stats.node(rank).add_pack(seconds, nbytes)
        else:
            self.stats.node(rank).add_unpack(seconds, nbytes)
        if self.bus.active:
            self.bus.publish(PackEvent(
                self.engine.now, rank, op, seconds, nbytes))

    def _note_spill(
        self, rank: int, oid: int, kind: str, raw: int, stored: int
    ) -> None:
        """A dirty spill persisted on ``rank`` (obs hook); ``kind`` is
        ``"delta"`` or ``"full"``, ``raw``/``stored`` are payload bytes
        before and after the compression tier."""
        self.stats.node(rank).add_spill(kind, raw, stored)
        if self.bus.active:
            self.bus.publish(SpillEvent(
                self.engine.now, rank, oid, kind, raw, stored))

    @property
    def degraded(self) -> bool:
        """True once any node's OOC layer entered degraded mode."""
        return any(n.ooc.degraded for n in self.nodes)

    def enter_degraded_mode(self) -> None:
        """Tighten every node for a full medium: headroom to the floor,
        proactive spills suppressed (see :meth:`OOCLayer.enter_degraded`)."""
        for node in self.nodes:
            node.ooc.enter_degraded()

    # ====================================================== object lifecycle
    def _create_object(
        self, cls: type, args: tuple, kwargs: dict, node: int
    ) -> MobilePointer:
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"no such node {node}")
        oid = self._id_alloc.allocate()
        ptr = MobilePointer(oid=oid, last_known_node=node)
        obj = cls(ptr, *args, **kwargs)
        if not isinstance(obj, MobileObject):
            raise TypeError(f"{cls.__name__} is not a MobileObject")
        obj.on_init()
        nrt = self.nodes[node]
        local = _LocalObject(obj=obj)
        nbytes = self._obj_nbytes_local(local)
        victims = nrt.ooc.admit(oid, nbytes)
        # Synchronous bookkeeping; the disk time for forced evictions is
        # charged by a detached process so creation never blocks the caller.
        for victim in victims:
            self._evict_now(nrt, victim)
        nrt.ooc.confirm_admit(oid)
        nrt.locals[oid] = local
        self._bind_dirty(nrt, oid, obj)
        self.directory.register(oid, node)
        self._objects_by_oid[oid] = ptr
        self._obj_classes[oid] = cls
        obj.on_register(node)
        return ptr

    def _destroy_object(self, ptr: MobilePointer) -> None:
        node = self.directory.location(ptr.oid)
        nrt = self.nodes[node]
        rec = nrt.locals.pop(ptr.oid, None)
        if rec is None:
            raise ObjectNotFound(f"object {ptr.oid} not found on node {node}")
        if rec.queue:
            raise MRTSError(
                f"destroying object {ptr.oid} with {len(rec.queue)} queued messages"
            )
        if self.speculation is not None:
            self.speculation.forget(ptr.oid)
        if rec.obj is not None:
            rec.obj.on_unregister(node)
        nrt.prefetched.discard(ptr.oid)
        nrt.ooc.forget(ptr.oid)
        nrt.storage.delete(ptr.oid)
        self.directory.unregister(ptr.oid)
        self._objects_by_oid.pop(ptr.oid, None)
        self._obj_classes.pop(ptr.oid, None)

    def _obj_nbytes_local(
        self, rec: _LocalObject, rank: Optional[int] = None
    ) -> int:
        """Size of a local record's object, without packing when possible.

        Resolution order: cost-model override (modeled apps), subclass
        ``nbytes`` override (cheap exact size), the serializer's
        :meth:`~repro.core.mobile.Serializer.size_estimate` (pack-free),
        and only then pack-to-measure — whose bytes are kept in
        ``rec.pack_cache`` so a following spill does not serialize the
        same state again.
        """
        obj = rec.obj
        n = self.cost_model.object_nbytes(obj)
        if n is not None:
            return n
        if type(obj).nbytes is not MobileObject.nbytes:
            return obj.nbytes()  # subclass with its own (cheap) size
        est = obj.serializer.size_estimate(obj.get_state())
        if est is not None:
            return max(est, 1)
        return max(len(self._pack_local(rec, rank)), 1)

    def _pack_local(self, rec: _LocalObject, rank: Optional[int] = None) -> bytes:
        """Serialize via the per-residency cache (at most once per epoch)."""
        if rec.pack_cache is None:
            wall0 = _time.perf_counter()
            rec.pack_cache = rec.obj.pack()
            if rank is not None:
                self._note_pack(
                    rank, "pack", _time.perf_counter() - wall0,
                    len(rec.pack_cache),
                )
        return rec.pack_cache

    def _bind_dirty(self, nrt: _NodeRuntime, oid: int, obj: MobileObject) -> None:
        """Install the dirty hook: object mutation -> residency + cache.

        The hook only fires through to the layers while ``obj`` is the
        node's current in-core instance — a stale reference held after a
        spill or migration cannot corrupt the residency dirty bit.
        """

        def _on_dirty() -> None:
            rec = nrt.locals.get(oid)
            if rec is not None and rec.obj is obj:
                rec.pack_cache = None
                nrt.ooc.mark_dirty(oid)

        obj._dirty_cb = _on_dirty

    def _with_residency(self, ptr: MobilePointer, fn) -> None:
        node = self.directory.location(ptr.oid)
        fn(self.nodes[node].ooc, ptr.oid)

    def _boost(self, ptr: MobilePointer, amount: float) -> None:
        node = self.directory.location(ptr.oid)
        self.nodes[node].ready.boost(ptr.oid, amount)

    def _is_local_resident(self, ptr: MobilePointer, node: int) -> bool:
        return (
            self.directory.truth.get(ptr.oid) == node
            and self.nodes[node].ooc.is_resident(ptr.oid)
        )

    # =========================================================== spill/load
    def _evict_now(self, nrt: _NodeRuntime, oid: int) -> None:
        """Synchronously spill an object; its disk-store time drains behind.

        Dirty-aware: when the residency record says the storage copy is
        still current (the object only served read-only handlers since its
        load), the pack, the ``storage.store()`` and the virtual disk
        charge are all skipped — a clean eviction costs nothing but
        bookkeeping.  Dirty spills store their bytes immediately (Python
        time) and queue the virtual disk charge on the node's write-behind
        queue, so the evicting worker never waits for the store.
        """
        rec = nrt.locals[oid]
        if rec.obj is None:
            raise MRTSError(f"evicting already-spilled object {oid}")
        rec.obj.on_unregister(nrt.rank)
        residency = nrt.ooc.table[oid]
        dirty = residency.dirty
        modeled = residency.nbytes
        charge = 0
        if dirty:
            charge = self._store_spill(nrt, rec, oid, modeled)
        rec.obj = None
        rec.pack_cache = None
        nrt.ooc.confirm_evict(oid)
        nrt.ready.note_resident(oid, False)
        if oid in nrt.prefetched:
            # Prefetched bytes evicted before any worker touched them.
            nrt.prefetched.discard(oid)
            self.stats.node(nrt.rank).prefetch_wasted += 1
            if self.bus.active:
                self.bus.publish(PrefetchEvent(
                    self.engine.now, nrt.rank, oid, "wasted"))
        if self.bus.active:
            self.bus.publish(EvictEvent(
                self.engine.now, nrt.rank, oid, modeled, not dirty,
                nrt.ooc.memory_used))
        if dirty:
            nrt.write_behind.submit(oid, charge)

    def _store_spill(
        self, nrt: _NodeRuntime, rec: _LocalObject, oid: int, modeled: int
    ) -> int:
        """Persist a dirty object's state; returns the virtual disk charge.

        Delta path (serializer declares the payload append-mostly, a
        current stored base exists, and the append-log has room): pack
        only what grew since the recorded token and append it as one
        delta frame.  Modeled objects charge the modeled *growth*; real
        objects charge the post-compression appended bytes.  Full path:
        store the whole pack and charge the modeled size, exactly as
        before delta spills existed.  Compaction (a forced full store)
        triggers on ``delta_log_frames_max`` for everyone and
        additionally on ``delta_compact_factor`` for real payloads,
        bounding both reassembly work and log bloat.
        """
        obj = rec.obj
        ser = obj.serializer
        cfg = self.config
        pf = nrt.packfile
        if pf is not None:
            # Push the object's curve position down to the pack layout so
            # this spill lands in its neighborhood's segment.
            pf.note_locality(oid, obj.locality_key())
        delta_ok = (
            cfg.delta_spills
            and ser.supports_delta
            and rec.stored_token is not None
            and nrt.frame_layer is not None
            and rec.log_frames < cfg.delta_log_frames_max
        )
        payload = None
        if delta_ok:
            wall0 = _time.perf_counter()
            payload = ser.pack_delta(obj.get_state(), rec.stored_token)
            if payload is not None:
                self._note_pack(
                    nrt.rank, "pack", _time.perf_counter() - wall0,
                    len(payload),
                )
        is_modeled = self.cost_model.object_nbytes(obj) is not None
        if (
            payload is not None
            and not is_modeled
            and rec.log_payload_bytes + len(payload)
            > cfg.delta_compact_factor * max(rec.base_payload_bytes, 1)
        ):
            payload = None  # log outgrew its base: compact via full store
        if payload is not None:
            nrt.storage.append(oid, payload)
            rec.log_frames += 1
            rec.log_payload_bytes += len(payload)
            rec.stored_token = ser.delta_token(obj.get_state())
            stored = self._last_stored_len(nrt, len(payload))
            if is_modeled:
                charge = max(modeled - rec.stored_modeled, 1)
            else:
                charge = max(stored, 1)
            self._note_spill(nrt.rank, oid, "delta", len(payload), stored)
        else:
            data = self._pack_local(rec, nrt.rank)
            nrt.storage.store(oid, data)
            rec.log_frames = 1
            rec.base_payload_bytes = len(data)
            rec.log_payload_bytes = 0
            rec.stored_token = (
                ser.delta_token(obj.get_state())
                if cfg.delta_spills
                and ser.supports_delta
                and nrt.frame_layer is not None
                else None
            )
            stored = self._last_stored_len(nrt, len(data))
            charge = modeled
            self._note_spill(nrt.rank, oid, "full", len(data), stored)
        rec.stored_modeled = modeled
        self.stored_since_snapshot.add(oid)
        return charge

    def _last_stored_len(self, nrt: _NodeRuntime, fallback: int) -> int:
        """Payload bytes the last store/append actually put on the medium."""
        comp = nrt.compressor
        if comp is not None:
            return comp.last_stored_len
        frame = nrt.frame_layer
        if frame is not None:
            return frame.last_payload_len
        return fallback

    def _disk_xfer(self, rank: int, nbytes: int, is_store: bool, blocking: bool):
        """One out-of-core transfer with the right per-PE span attribution.

        ``blocking`` transfers (a worker waits on them) record wait-
        inclusive spans — the paper's Tables IV-VI percentages; detached
        write-behind and prefetch record only the service time, since no
        PE sits idle behind them.

        The medium is the node's local disk unless the node has a remote
        memory server attached (paper [33]): then the bytes travel the
        interconnect, charged through the same disk-stat channel so every
        breakdown table compares media directly.
        """
        nrt = self.nodes[rank]
        start = self.engine.now
        if nrt.spill_server is not None:
            net = self.cluster.network
            yield from net.send(rank, nrt.spill_server, nbytes, ("svc",))
            service = net.spec.latency + nbytes / net.spec.bandwidth
        else:
            node = self.cluster[rank]
            yield from node.disk.transfer(nbytes)
            service = node.disk.service_time(nbytes)
        span = (self.engine.now - start) if blocking else service
        self.stats.node(rank).add_disk(service, nbytes, is_store, span=span)
        if self.bus.active:
            self.bus.publish(DiskSpan(
                start, rank, nbytes, is_store, blocking, service, span))

    def _note_load_wait(self, rank: int, start: float, span: float) -> None:
        """A demand path waited behind another process's in-flight load.

        The transfer's service time and bytes were charged exactly once
        by the gate holder; the waiter still *perceived* disk wait, which
        is what the paper's disk%/overlap% measure.  Recorded as a
        zero-byte blocking span so stats and the event-stream analyzer
        stay bit-identical.
        """
        self.stats.node(rank).add_disk(0.0, 0, False, span=span)
        if self.bus.active:
            self.bus.publish(DiskSpan(start, rank, 0, False, True, 0.0, span))

    def _load_blocking(self, nrt: _NodeRuntime, oid: int, background: bool = False):
        """Process body: bring ``oid`` in core, evicting victims first.

        ``background`` marks prefetch loads: no worker waits on them, so
        their disk time is attributed as service-only (see _disk_xfer).

        Loads are *single-flight* per (node, oid): the first process to
        need an absent object registers a gate in ``nrt.loading`` and
        performs the transfer; every concurrent requester (worker,
        multicast collect, migration, prefetch) waits on the gate and
        re-checks residency instead of charging a duplicate disk read.
        Before this registry, two workers racing for the same object each
        paid the full modeled transfer and the loser threw its copy away
        — nearly half the bytes the OUPDR guard loaded were such
        duplicates.
        """
        blocking = not background
        while True:
            gate = nrt.loading.get(oid)
            if gate is None:
                break
            start = self.engine.now
            yield gate
            if blocking and self.engine.now > start:
                # The PE perceived this wait as disk time even though the
                # bytes were charged by the gate holder: record a
                # zero-byte wait-only span so the paper's Tables IV-VI
                # disk%/overlap% keep their wait-inclusive meaning.
                self._note_load_wait(nrt.rank, start, self.engine.now - start)
            rec = nrt.locals.get(oid)
            if rec is None or rec.obj is not None:
                return  # the in-flight load delivered (or the object left)
        target = nrt.ooc.table.get(oid)
        if target is None:
            return  # destroyed/migrated while we waited on a gate
        gate = self.engine.event()
        nrt.loading[oid] = gate
        try:
            # Write-behind completion barrier: if this object's own spill
            # is still draining its virtual store, a re-load must wait for
            # it — on the disk timeline the bytes do not exist "before"
            # the store completes.  (Victim spills below never need this:
            # an object can only be spilled again after a load, which
            # passes through here.)
            yield from nrt.write_behind.wait(oid)
            # Evict until the object fits.  Plans can go stale across
            # yields (victims can get pinned by a handler, or evicted by
            # someone else), so re-validate each victim and re-plan until
            # there is room or nothing can be done but wait for pins to
            # release.
            stalls = 0
            while not target.resident and nrt.ooc.memory_free < target.nbytes:
                try:
                    victims = nrt.ooc.plan_load(oid)
                except OutOfMemory:
                    # Everything evictable is pinned (or the budget is in
                    # a temporary overrun).  Handlers finish in finite
                    # virtual time, so wait for pins to release with
                    # exponential backoff — but bound the wait so a
                    # genuine can't-ever-fit (e.g. a multicast collection
                    # larger than node memory) surfaces as an error
                    # instead of hanging.
                    stalls += 1
                    if stalls > 10_000:
                        raise
                    yield self.engine.timeout(
                        min(1e-6 * (1.5 ** min(stalls, 50)), 1.0)
                    )
                    continue
                progress = False
                for victim in victims:
                    vrec = nrt.locals.get(victim)
                    if vrec is None or vrec.obj is None:
                        continue  # raced with another evictor
                    if nrt.ooc.is_locked(victim) or not nrt.ooc.is_resident(victim):
                        continue  # pinned since the plan was made
                    # Pipelined spill: bytes snapshot + memory release
                    # happen now; the store's disk time drains through the
                    # write-behind queue concurrently with the target's
                    # read below instead of serializing in front of it.
                    self._evict_now(nrt, victim)
                    progress = True
                if not progress and nrt.ooc.memory_free < target.nbytes:
                    # Everything evictable is pinned right now; let
                    # handlers finish and retry.
                    yield self.engine.timeout(1e-6)
            rec = nrt.locals[oid]
            if rec.obj is not None:
                return  # someone else loaded it while we evicted
            modeled = nrt.ooc.table[oid].nbytes
            yield from self._disk_xfer(nrt.rank, modeled, False, blocking)
            if nrt.locals.get(oid) is not rec or rec.obj is not None:
                return  # concurrent load won (or the object moved/died)
            # Read the bytes only *after* the transfer completes: during
            # the virtual I/O another worker may have loaded, mutated and
            # re-spilled the object — the storage now holds the newer
            # state, and resurrecting a pre-transfer snapshot would lose
            # updates.
            repaired = False
            try:
                segments = nrt.storage.load_segments(oid)
            except CorruptObject:
                # Torn write detected at load.  Treat it like a miss: fall
                # back to the last checkpointed copy when recovery
                # installed one, and repair the torn storage copy so the
                # residency invariant (a clean resident has a current
                # storage copy) holds for the rest of the run.  Only safe
                # when the object was NOT re-stored since that snapshot —
                # a stale payload would silently rewind one object to an
                # older cut than the rest of the world; escalating instead
                # lets the supervisor restore a *consistent* cut and
                # replay.
                self._note_corrupt(nrt.rank, oid)
                fallback = None
                if (
                    self.recovery_source is not None
                    and oid not in self.stored_since_snapshot
                ):
                    fallback = self.recovery_source(oid)
                if fallback is None:
                    raise
                nrt.storage.store(oid, fallback)
                segments = [fallback]
                repaired = True
            self._install_loaded(
                nrt, oid, rec, segments, modeled, background, repaired
            )
        finally:
            if nrt.loading.get(oid) is gate:
                del nrt.loading[oid]
            gate.succeed()

    def _install_loaded(
        self,
        nrt: _NodeRuntime,
        oid: int,
        rec,
        segments: list,
        modeled: int,
        background: bool,
        repaired: bool,
    ) -> None:
        """Unpack transferred bytes and confirm residency (load tail).

        Shared by the demand path (:meth:`_load_blocking`) and the
        batched prefetch path, which charges one transfer for a whole
        neighborhood and then installs each member through here.
        """
        ptr = self._objects_by_oid[oid]
        obj = object.__new__(self._obj_class(oid))
        MobileObject.__init__(obj, ptr)
        wall0 = _time.perf_counter()
        if len(segments) == 1:
            obj.unpack(segments[0])
        else:
            obj.unpack_segments(segments)
        self._note_pack(
            nrt.rank, "unpack", _time.perf_counter() - wall0,
            sum(len(s) for s in segments),
        )
        rec.obj = obj
        # A single loaded segment *is* the pack of the current state:
        # start the residency epoch clean with a warm pack cache.  An
        # append-log reassembly has no single-blob equivalent.
        rec.pack_cache = segments[0] if len(segments) == 1 else None
        nrt.ooc.confirm_load(oid)
        self._bind_dirty(nrt, oid, obj)
        if repaired:
            # The repair rewrote a full (possibly older) copy: the delta
            # bookkeeping no longer describes the medium.  Force the next
            # dirty spill to re-baseline with a full store.
            rec.stored_token = None
            rec.log_frames = 1
            rec.base_payload_bytes = len(segments[0])
            rec.log_payload_bytes = 0
        elif (
            self.config.delta_spills
            and obj.serializer.supports_delta
            and nrt.frame_layer is not None
        ):
            # The stored copy equals the loaded state: refresh the token
            # so the next dirty spill appends only post-load growth.
            rec.stored_token = obj.serializer.delta_token(obj.get_state())
        nrt.ready.note_resident(oid, True)
        obj.on_register(nrt.rank)
        if self.bus.active or self.predictor is not None:
            ev = LoadEvent(
                self.engine.now, nrt.rank, oid, modeled, background,
                nrt.ooc.memory_used)
            if self.bus.active:
                self.bus.publish(ev)
            if self.predictor is not None:
                # The predictor mines the same typed event stream the bus
                # carries; it ignores background (prefetch) loads itself.
                self.predictor(ev)

    def _obj_class(self, oid: int) -> type:
        return self._obj_classes[oid]

    def _canonical_payload(self, nrt: _NodeRuntime, oid: int) -> bytes:
        """Full packed payload of an object's stored copy.

        A stored copy may be an append-log; checkpoints want one
        canonical full blob, so multi-segment logs are reassembled
        through the class serializer and re-packed.
        """
        segments = nrt.storage.load_segments(oid)
        if len(segments) == 1:
            return segments[0]
        ser = self._obj_class(oid).serializer
        return ser.pack(ser.unpack_segments(segments))

    # ============================================================ messaging
    def _post_message(self, msg: Message | MulticastMessage, from_node: int) -> None:
        self.termination.add(1)
        if isinstance(msg, MulticastMessage):
            self._route_multicast(msg, from_node)
            return
        oid = msg.target.oid
        dest = self.directory.lookup(
            oid, max(from_node, 0), default=msg.target.last_known_node
        )
        if dest == from_node and self.directory.truth.get(oid) == from_node:
            self._enqueue_local(self.nodes[from_node], msg)
        else:
            self._send(from_node, dest, msg, path=[])

    def _send(
        self, src: int, dst: int, msg: Message | MulticastMessage, path: list[int]
    ) -> None:
        payload = ("msg", msg, path + [src] if src >= 0 else path)
        nbytes = msg.nbytes()
        sender = max(src, 0)
        self.engine.process(
            self._send_proc(sender, dst, nbytes, payload),
            name=f"send[{msg.handler}]",
        )

    def _send_proc(self, src: int, dst: int, nbytes: int, payload):
        start = self.engine.now
        yield from self.cluster.network.send(src, dst, nbytes, payload)
        # Comm cost = sender-side serialization overhead (service) and the
        # wait-inclusive span; same-node sends bypass the NIC entirely.
        service = span = 0.0
        if src != dst:
            service = self.cluster.network.send_overhead(nbytes)
            span = self.engine.now - start
            self.stats.node(src).add_comm(service, nbytes, span=span)
        if self.bus.active:
            self.bus.publish(SendSpan(
                start, src, dst, nbytes, service, span, src != dst))

    def _make_sink(self, rank: int) -> Callable[[int, Any], None]:
        def sink(source: int, payload: Any) -> None:
            kind = payload[0]
            if kind == "svc":
                return  # directory service / migration byte carrier: no handler
            if kind == "batch":
                _, msgs, path = payload
                for msg in msgs:
                    self._arrive(rank, msg, list(path))
                return
            _, msg, path = payload
            self._arrive(rank, msg, path)

        return sink

    def _arrive(self, rank: int, msg, path: list[int]) -> None:
        """A message landed on ``rank``: deliver locally or forward."""
        self.stats.node(rank).messages_received += 1
        oid = msg.target.oid if isinstance(msg, Message) else msg.targets[0].oid
        if self.directory.truth.get(oid) == rank:
            updates = self.directory.arrived(oid, path)
            self._emit_service_updates(rank, path, updates)
            self._enqueue_local(self.nodes[rank], msg)
        else:
            # Stale hint: forward along the directory chain.
            nxt = self.directory.next_hop(oid, rank)
            if isinstance(msg, Message):
                msg.hops += 1
            self._send(rank, nxt, msg, path)

    def _dispatch_outbox(self, outbox, from_node: int) -> None:
        """Send a handler's produced messages, aggregating when configured.

        With ``config.message_aggregation > 1``, messages bound for the
        same destination node travel as one wire transfer of up to that
        many messages — the PCDM optimization ("asynchronous small messages
        which can be aggregated to minimize startup overheads").  Local
        deliveries and multicasts are never batched.
        """
        limit = self.config.message_aggregation
        if limit <= 1:
            for msg in outbox:
                self._post_message(msg, from_node=from_node)
            return
        by_dest: dict[int, list[Message]] = {}
        for msg in outbox:
            if isinstance(msg, MulticastMessage):
                self._post_message(msg, from_node=from_node)
                continue
            oid = msg.target.oid
            dest = self.directory.lookup(
                oid, from_node, default=msg.target.last_known_node
            )
            if dest == from_node and self.directory.truth.get(oid) == from_node:
                self._post_message(msg, from_node=from_node)
            else:
                msg.source_node = from_node
                by_dest.setdefault(dest, []).append(msg)
        for dest, msgs in sorted(by_dest.items()):
            for i in range(0, len(msgs), limit):
                chunk = msgs[i : i + limit]
                self.termination.add(len(chunk))
                # One wire header amortized over the batch.
                nbytes = sum(m.nbytes() for m in chunk) - 48 * (len(chunk) - 1)
                self.engine.process(
                    self._send_proc(
                        from_node, dest, nbytes,
                        ("batch", chunk, [from_node]),
                    ),
                    name=f"send-batch[{len(chunk)}]",
                )

    def _emit_service_updates(self, rank: int, path: list[int], updates: int) -> None:
        """Send the lazy-update corrections as real (tiny) network messages."""
        for node in path[:updates]:
            if node == rank or node < 0:
                continue
            self.engine.process(
                self._send_proc(rank, node, _SERVICE_MSG_BYTES, ("svc",)),
                name="svc-update",
            )

    def _enqueue_local(
        self, nrt: _NodeRuntime, msg: Message | MulticastMessage
    ) -> None:
        if isinstance(msg, MulticastMessage):
            self._route_multicast(msg, nrt.rank)
            return
        oid = msg.target.oid
        rec = nrt.locals.get(oid)
        if rec is None:
            # Object migrated away between routing decisions; re-route.
            self.termination.add(1)
            self._send(nrt.rank, self.directory.next_hop(oid, nrt.rank), msg, [])
            self.termination.done(1)
            return
        self._note_work_arrived(nrt)
        nrt.queued_msgs += 1
        rec.queue.push(msg)
        nrt.ooc.set_queue_length(oid, len(rec.queue))
        msg.target.queued_messages = len(rec.queue)
        nrt.ready.push(oid)
        nrt.tokens.put(oid)
        if self.bus.active:
            self.bus.publish(QueueDepthEvent(
                self.engine.now, nrt.rank, oid, len(rec.queue)))

    # ============================================================ multicast
    def _route_multicast(self, msg: MulticastMessage, from_node: int) -> None:
        """Collect all target objects on the first target's node, then deliver."""
        if msg.mode == "fanout":
            self._fanout_multicast(msg, from_node)
            return
        gather = self.directory.location(msg.targets[0].oid)
        self.engine.process(
            self._multicast_proc(msg, gather), name=f"mcast[{msg.handler}]"
        )

    def _fanout_multicast(self, msg: MulticastMessage, from_node: int) -> None:
        """Deliver to ALL targets: one aggregated wire send per node.

        The ghost-exchange push shape (Holke et al.): the payload is
        identical for every subscriber, so it travels once per destination
        node — ``48 + 16 * |local targets| + payload`` bytes — instead of
        once per target.  Each sub-message then takes the normal ``_arrive``
        path on landing, so a target that migrated between the directory
        read and the arrival is simply forwarded along the hint chain; no
        collection, no pinning, no serialization through ``mcast_slot``.
        """
        src = max(from_node, 0)
        by_dest: dict[int, list[Message]] = {}
        for ptr in msg.targets:
            sub = Message(
                ptr, msg.handler, msg.args, dict(msg.kwargs),
                source_node=msg.source_node,
            )
            dest = self.directory.lookup(
                ptr.oid, src, default=ptr.last_known_node
            )
            by_dest.setdefault(dest, []).append(sub)
        payload_nbytes = msg.payload_nbytes()
        for dest, subs in sorted(by_dest.items()):
            self.termination.add(len(subs))
            if dest == from_node:
                # Local fan-in: no wire transfer, deliver (or re-route on a
                # stale hint) through the normal local path.
                for sub in subs:
                    self._enqueue_local(self.nodes[dest], sub)
                continue
            self.stats.node(src).multicast_sends += 1
            nbytes = 48 + 16 * len(subs) + payload_nbytes
            self.engine.process(
                self._send_proc(
                    src, dest, nbytes, ("batch", subs, [from_node])
                ),
                name=f"mcast-fanout[{msg.handler}]",
            )
        self.termination.done(1)  # the multicast envelope itself

    def _multicast_proc(self, msg: MulticastMessage, gather: int):
        nrt = self.nodes[gather]
        yield nrt.mcast_slot.acquire()
        try:
            yield from self._multicast_collect(msg, gather, nrt)
        finally:
            nrt.mcast_slot.release()
        self.termination.done(1)  # the multicast envelope itself

    def _multicast_collect(self, msg: MulticastMessage, gather: int, nrt):
        # Collect members in GLOBAL OID ORDER: concurrent multicasts
        # competing for shared members then acquire their pins in the same
        # order, which rules out circular waits (classic lock ordering).
        locked: list[int] = []
        try:
            for ptr in sorted(msg.targets, key=lambda p: p.oid):
                oid = ptr.oid
                stalls = 0
                while True:
                    where = self.directory.location(oid)
                    if where != gather:
                        yield from self._migrate_proc(oid, where, gather)
                        continue  # re-check: someone may have moved it again
                    if not nrt.ooc.is_resident(oid):
                        yield from self._load_blocking(nrt, oid)
                    # The object may have migrated away during the load.
                    if self.directory.location(oid) == gather and \
                            nrt.ooc.is_resident(oid):
                        nrt.ooc.lock(oid)  # pinned: nobody can take it now
                        locked.append(oid)
                        break
                    stalls += 1
                    if stalls > 10_000:
                        raise MRTSError(
                            f"multicast cannot collect object {oid} on node "
                            f"{gather} (contended or permanently pinned "
                            "elsewhere)"
                        )
                    yield self.engine.timeout(1e-6)
            # Deliver to the first deliver_count targets as ordinary local
            # messages (they execute through the normal worker path).
            for ptr in msg.targets[: msg.deliver_count]:
                sub = Message(
                    ptr, msg.handler, msg.args, dict(msg.kwargs),
                    source_node=msg.source_node,
                )
                self.termination.add(1)
                self._enqueue_local(nrt, sub)
            # Hold the pins until the delivered handlers have actually run:
            # the §III contract is "objects are loaded into memory when the
            # message is delivered".  Wait for this object's queue to drain.
            guard = 0
            while any(
                nrt.locals.get(p.oid) is not None
                and (len(nrt.locals[p.oid].queue) > 0
                     or nrt.locals[p.oid].in_flight > 0)
                for p in msg.targets[: msg.deliver_count]
            ):
                guard += 1
                if guard > 1_000_000:
                    raise MRTSError("multicast delivery never drained")
                yield self.engine.timeout(1e-6)
        finally:
            for oid in locked:
                if oid in nrt.ooc.table:
                    nrt.ooc.unlock(oid)

    # ============================================================ migration
    def migrate(self, ptr: MobilePointer, dst: int) -> None:
        """Move an object to another node (asynchronously)."""
        src = self.directory.location(ptr.oid)
        if src == dst:
            return
        self.termination.add(1)
        self.engine.process(
            self._migrate_and_done(ptr.oid, src, dst), name=f"migrate[{ptr.oid}]"
        )

    def _migrate_and_done(self, oid: int, src: int, dst: int):
        yield from self._migrate_proc(oid, src, dst)
        self.termination.done(1)

    def _migrate_proc(self, oid: int, src: int, dst: int):
        """Move an object: charge the transfer, then swap atomically.

        The object keeps serving messages at the source while its bytes are
        "on the wire" (pre-copy style); the actual state capture and
        installation happen in one event, which removes any window in which
        the object exists nowhere (messages can never be lost or looped).
        """
        nrt = self.nodes[src]
        rec = nrt.locals.get(oid)
        if rec is None:
            return  # already moved (racing multicasts)
        if rec.obj is None:
            yield from self._load_blocking(nrt, oid)
        modeled = nrt.ooc.table[oid].nbytes
        # Charge the wire time for the object's bytes.
        xfer_start = self.engine.now
        yield from self.cluster.network.send(src, dst, modeled + 64, ("svc",))
        if src != dst:
            overhead = self.cluster.network.send_overhead(modeled + 64)
            self.stats.node(src).add_comm(overhead, modeled)
            if self.bus.active:
                # span defaults to the service time in add_comm; mirror it.
                self.bus.publish(SendSpan(
                    xfer_start, src, dst, modeled, overhead, overhead, True))
        # Reach a state where the object is present, loaded, idle, and
        # unpinned — only then may it move.  Locked objects are guaranteed
        # in-core *here* (the §III contract), so a migration must wait for
        # the unlock; in-flight handlers must finish; and every wait point
        # re-validates, since any of those can change across a yield.
        stalls = 0
        while True:
            rec = nrt.locals.get(oid)
            if rec is None:
                return  # someone else migrated it while we were transferring
            if rec.obj is None:
                yield from self._load_blocking(nrt, oid)
                continue
            if rec.in_flight > 0 or (
                oid in nrt.ooc.table and nrt.ooc.is_locked(oid)
            ):
                stalls += 1
                if stalls > 1_000_000:
                    raise MRTSError(
                        f"migration of object {oid} starved "
                        "(permanently locked?)"
                    )
                yield self.engine.timeout(1e-6)
                continue
            break
        # Reserve room at the destination *first* (patiently: pinned
        # residents may hold all its memory until their handlers drain).
        # Only once space is secured does the object leave the source, so
        # it is addressable somewhere at every instant.
        dst_nrt = self.nodes[dst]
        current = nrt.ooc.table[oid].nbytes
        stalls = 0
        while True:
            try:
                victims = dst_nrt.ooc.admit(oid, current)
                break
            except OutOfMemory:
                stalls += 1
                if stalls > 1_000_000:
                    raise
                yield self.engine.timeout(1e-6)
        # Re-validate the source after the wait; release the reservation
        # if we lost the race.
        rec = nrt.locals.get(oid)
        if (
            rec is None
            or rec.obj is None
            or rec.in_flight > 0
            or (oid in nrt.ooc.table and nrt.ooc.is_locked(oid))
        ):
            dst_nrt.ooc.forget(oid)
            if rec is not None:
                # Try again from the top conditions.
                yield from self._migrate_proc(oid, src, dst)
            return
        for victim in victims:
            vrec = dst_nrt.locals.get(victim)
            if vrec is not None and vrec.obj is not None:
                self._evict_now(dst_nrt, victim)
        dst_nrt.ooc.confirm_admit(oid)
        if self.speculation is not None:
            # The state capture below must ship pre-speculation bytes:
            # abort restores the snapshot and folds the speculated
            # messages back into rec.queue, so they travel with the move.
            # No yield separates this from the swap, so no new
            # speculation can begin in between.
            self.speculation.abort_if_pending(oid)
        # ---- atomic swap ----
        obj = rec.obj
        obj.on_unregister(src)
        data = self._pack_local(rec, nrt.rank)
        queue = rec.queue
        del nrt.locals[oid]
        nrt.prefetched.discard(oid)
        nrt.ooc.forget(oid)
        nrt.storage.delete(oid)
        clone = object.__new__(self._obj_class(oid))
        MobileObject.__init__(clone, self._objects_by_oid[oid])
        clone.unpack(data)
        # The destination residency starts dirty (its storage has no copy
        # yet) but the clone's pack cache is warm: first spill packs free.
        dst_nrt.locals[oid] = _LocalObject(
            obj=clone, queue=queue, pack_cache=data
        )
        self._bind_dirty(dst_nrt, oid, clone)
        self._objects_by_oid[oid].last_known_node = dst
        svc = self.directory.migrated(oid, dst)
        self._emit_service_updates(src, [src], svc)
        clone.on_register(dst)
        if self.bus.active:
            self.bus.publish(MigrateEvent(
                self.engine.now, src, oid, dst, current))
        if queue:
            nrt.queued_msgs -= len(queue)
            self._note_maybe_idle(nrt)
            self._note_work_arrived(dst_nrt)
            dst_nrt.queued_msgs += len(queue)
            dst_nrt.ooc.set_queue_length(oid, len(queue))
            dst_nrt.ready.push(oid)
            for _ in range(len(queue)):
                dst_nrt.tokens.put(oid)

    # ============================================================== workers
    def _worker(self, nrt: _NodeRuntime):
        """One in-flight handler slot on a node (DES process body).

        After loading an object the worker *drains* its message queue while
        it stays resident — the paper's control layer explicitly decides
        "whether to continue to process the message queue of the current
        object or switch", and staying is what amortizes each out-of-core
        load over all pending messages.  Messages of one object serialize
        (the paper parallelizes across objects and within handlers, never
        two handlers on one object).
        """
        while True:
            token = yield nrt.tokens.get()
            if token is _SHUTDOWN:
                return
            try:
                oid = nrt.ready.pop(
                    nrt.queue_len,
                    resident=nrt.ooc.is_resident,
                    spec_only=(
                        nrt.spec_only if self.speculation is not None else None
                    ),
                )
            except IndexError:
                continue
            rec = nrt.locals.get(oid)
            if rec is None or not rec.queue or rec.in_flight > 0:
                continue
            # Issue opportunistic prefetches: ready-queue hints, learned
            # successors of the object we are about to process, and its
            # pack-file curve neighbors (never the target itself).
            self._issue_prefetch(nrt, current=oid)
            if oid in nrt.prefetched:
                # A background warm covered this pop — the object is
                # either already in core or its transfer is in flight (the
                # demand path below then waits on the load gate instead of
                # paying its own read).
                nrt.prefetched.discard(oid)
                self.stats.node(nrt.rank).prefetch_hits += 1
                if self.bus.active:
                    self.bus.publish(PrefetchEvent(
                        self.engine.now, nrt.rank, oid, "hit"))
            # Bring the target in core (charges disk time, holds no core).
            if rec.obj is None:
                yield from self._load_blocking(nrt, oid)
            while True:
                if nrt.locals.get(oid) is not rec or not rec.queue:
                    break
                if rec.obj is None:
                    # Evicted between messages: hand the rest back to the
                    # scheduler rather than thrash.
                    nrt.ready.push(oid)
                    break
                msg = rec.queue.pop()
                nrt.queued_msgs -= 1
                nrt.ooc.set_queue_length(oid, len(rec.queue))
                yield from self._execute_handler(nrt, oid, rec, msg)
                if self.speculation is not None and not rec.queue:
                    # Local quiescent point: the drain consumed every
                    # message delivered to this object, so a surviving
                    # record validates now.  Committing here (before the
                    # message's termination credit retires) may refill
                    # the queue and keeps the wavefront flowing without
                    # a global synchronization.
                    self.speculation.resolve_local(oid)
                self.termination.done(1)
                self._note_maybe_idle(nrt)

    # ------------------------------------------------- barrier-idle tracking
    def _note_work_arrived(self, nrt: _NodeRuntime) -> None:
        """Work reached an idle node: close its barrier-idle interval."""
        if nrt.idle_since is not None:
            self.stats.node(nrt.rank).barrier_idle_s += (
                self.engine.now - nrt.idle_since
            )
            nrt.idle_since = None

    def _note_maybe_idle(self, nrt: _NodeRuntime) -> None:
        """A handler or queue drain finished: open an idle interval if the
        node now has nothing running and nothing queued (the global-sync
        stall the speculation layer exists to fill)."""
        if (
            nrt.idle_since is None
            and nrt.active_handlers == 0
            and nrt.queued_msgs == 0
        ):
            nrt.idle_since = self.engine.now

    def _execute_handler(self, nrt: _NodeRuntime, oid: int, rec, msg):
        """Run one message handler: compute via cores, then dispatch output."""
        engine = self.engine
        node = self.cluster[nrt.rank]
        t0 = engine.now
        charged = 0.0
        nrt.ooc.touch(oid)
        spec = self.speculation is not None and getattr(
            msg, "speculative", False
        )
        if self.speculation is not None and not spec:
            # Eager conflict detection: a non-speculative access (even a
            # readonly one — it must not see unvalidated state) proves any
            # pending speculation on this object read stale input.  Abort
            # first so this handler executes against the restored state.
            self.speculation.abort_if_pending(oid)
        obj = rec.obj
        ctx = HandlerContext(self, nrt.rank)
        fn = getattr(obj, msg.handler, None)
        if fn is None or not getattr(fn, "_mrts_handler", False):
            raise MRTSError(
                f"{type(obj).__name__} has no handler {msg.handler!r}"
            )
        record = None
        if spec:
            ctx.speculative = True
            record = self.speculation.begin(nrt, oid, rec, msg)
        rec.in_flight += 1
        nrt.active_handlers += 1
        # Pin the object while its handler runs: a mid-handler eviction
        # (reachable through direct-call chains that trigger spills)
        # would snapshot partial state and lose later mutations.
        nrt.ooc.lock(oid)
        yield node.cores.acquire()
        try:
            wall0 = _time.perf_counter()
            fn(ctx, *msg.args, **msg.kwargs)
            measured = _time.perf_counter() - wall0
            modeled = self.cost_model.handler_cost(obj, msg.handler, msg)
            cost = (modeled if modeled is not None else measured)
            cost += ctx.extra_charge
            cost = node.compute_time(cost)
            if cost > 0:
                start = engine.now
                yield engine.timeout(cost)
                charged = engine.now - start
            self.stats.node(nrt.rank).add_comp(charged)
        finally:
            node.cores.release()
            rec.in_flight -= 1
            nrt.active_handlers -= 1
            if oid in nrt.ooc.table:
                nrt.ooc.unlock(oid)
        # Object size may have changed during the handler (skip if the
        # object migrated away while we were charging compute time).
        # Readonly handlers promised not to mutate serialized state, so the
        # object stays clean and keeps its size — that is what lets the
        # eviction path skip the write-back for read-mostly objects.
        # A speculative record aborted mid-charge (a direct call from
        # another handler) already rolled the object back: its growth and
        # dirty state are the restore's business, not this execution's.
        orphaned = record is not None and (
            self.speculation.pending.get(oid) is not record
        )
        if (
            nrt.locals.get(oid) is rec
            and rec.obj is not None
            and not getattr(fn, "_mrts_readonly", False)
            and not orphaned
        ):
            rec.obj.mark_dirty()
            self._account_growth(nrt, oid, ctx)
            if self.speculation is not None and not spec:
                # Write-version stamp for commit validation: any pending
                # speculation elsewhere that read this object's state is
                # now provably stale.
                self.directory.bump_version(oid)
        # Dispatch messages the handler produced.  A speculative
        # execution's output buffers on its record until commit; an
        # orphaned record's output is dropped — the abort already
        # re-posted the message, so the work re-runs and regenerates it.
        if record is not None:
            if not orphaned:
                record.outbox.extend(ctx.outbox)
        else:
            self._dispatch_outbox(ctx.outbox, nrt.rank)
        # Soft-threshold advice: spill idle objects in the background.
        if oid in nrt.ooc.table:
            for victim in nrt.ooc.advise_swap(protect={oid}):
                self._evict_now(nrt, victim)
        if self.bus.active:
            depth = len(rec.queue) if nrt.locals.get(oid) is rec else 0
            self.bus.publish(HandlerSpan(
                t0, nrt.rank, oid, msg.handler, engine.now - t0, charged,
                depth))

    def _issue_prefetch(
        self, nrt: _NodeRuntime, current: Optional[int] = None
    ) -> None:
        """Launch one batched background warm for the likely-next objects.

        Candidate sources, chained lazily in priority order (the picker
        mostly stops inside the first): the ready queue (objects with
        messages already waiting), the learned predictor's successors of
        ``current`` (the object the calling worker is about to process),
        and the pack-file curve neighbors of those seeds — the buffer-zone
        patches a refine message will touch before it is even scheduled.
        ``current`` and objects whose bytes are already in flight
        (write-behind drain, another load or prefetch) are skipped; the OOC
        layer drops what does not fit without eviction (stays advisory).
        """
        cfg = self.config
        if cfg.prefetch_depth == 0:
            return
        warm = cfg.neighborhood_warm if nrt.packfile is not None else 0

        def hints():
            ready = nrt.ready.snapshot()
            yield from ready
            seeds = ([] if current is None else [current]) + ready[:1]
            if self.predictor is not None:
                predicted = self.predictor.predict(
                    nrt.rank, after=current, k=max(cfg.prefetch_depth, 2))
                yield from predicted
                if not ready:
                    seeds += predicted[:1]
            if warm:
                for seed in seeds:
                    yield from nrt.packfile.neighborhood(seed, warm)

        skip = {current, *nrt.prefetching, *nrt.loading,
                *nrt.write_behind.pending}  # a None current is nobody's oid
        batch = nrt.ooc.prefetch_candidates(
            hints(), skip=skip, limit=cfg.prefetch_depth + warm)
        if not batch:
            return
        nrt.prefetching.update(batch)
        self.engine.process(
            self._prefetch_batch_proc(nrt, batch),
            name=f"prefetch[{nrt.rank}:{batch[0]}+{len(batch) - 1}]",
        )

    def _prefetch_batch_proc(self, nrt: _NodeRuntime, batch: list[int]):
        """Warm a whole neighborhood with one transfer and one backend call.

        The batch charges a single sequential disk read of the summed
        modeled bytes (one seek instead of one per object — the layout
        win) and reads the payloads through ``storage.load_many`` (one
        backend call — the batching win), then installs each member.
        Members are claimed in the single-flight registry for the whole
        warm, so a demand load arriving mid-transfer waits on the gate
        instead of double-charging.
        """
        claimed: list[tuple[int, Any]] = []
        stats = self.stats.node(nrt.rank)
        try:
            for oid in batch:
                yield from nrt.write_behind.wait(oid)
            for oid in batch:
                rec = nrt.locals.get(oid)
                if rec is None or rec.obj is not None or oid in nrt.loading:
                    continue  # delivered or contested while we waited
                gate = self.engine.event()
                nrt.loading[oid] = gate
                claimed.append((oid, gate))
            # Advisory re-check: memory may have shrunk since the batch
            # was picked; keep only what still fits without eviction.
            fits = set(nrt.ooc.prefetch_candidates(
                [oid for oid, _ in claimed], limit=len(claimed)
            ))
            kept = [(oid, g) for oid, g in claimed if oid in fits]
            if not kept:
                return
            for oid, _ in kept:
                stats.prefetch_issued += 1
                nrt.prefetched.add(oid)
                if self.bus.active:
                    self.bus.publish(PrefetchEvent(
                        self.engine.now, nrt.rank, oid, "issue"))
            total = sum(nrt.ooc.table[oid].nbytes for oid, _ in kept)
            yield from self._disk_xfer(
                nrt.rank, total, is_store=False, blocking=False
            )
            try:
                found = nrt.storage.load_many([oid for oid, _ in kept])
            except MRTSError:
                found = {}  # best-effort: the demand path handles repair
            for oid, _ in kept:
                rec = nrt.locals.get(oid)
                if rec is not None and rec.obj is not None:
                    continue  # already in core; still claimable as a hit
                segments = found.get(oid)
                target = nrt.ooc.table.get(oid)
                if (
                    rec is None
                    or segments is None
                    or target is None
                    or nrt.ooc.memory_free < target.nbytes
                ):
                    # Transferred but never delivered (object left, bytes
                    # unreadable, or the room vanished mid-flight): wasted.
                    if oid in nrt.prefetched:
                        nrt.prefetched.discard(oid)
                        stats.prefetch_wasted += 1
                        if self.bus.active:
                            self.bus.publish(PrefetchEvent(
                                self.engine.now, nrt.rank, oid, "wasted"))
                    continue
                self._install_loaded(
                    nrt, oid, rec, segments, target.nbytes,
                    background=True, repaired=False,
                )
        finally:
            for oid, gate in claimed:
                if nrt.loading.get(oid) is gate:
                    del nrt.loading[oid]
                gate.succeed()
            for oid in batch:
                nrt.prefetching.discard(oid)

    def _account_growth(
        self, nrt: _NodeRuntime, oid: int, ctx: Optional[HandlerContext] = None
    ) -> None:
        """Re-account an object's size after a handler mutated it.

        A handler-context growth report (``ctx.grew`` / ``ctx.report_size``)
        is consumed first — pack-free accounting; otherwise the size is
        probed through the estimator/pack path.

        Growth beyond what eviction can cover is tolerated as a temporary
        budget overrun (the bytes already exist; concurrent pinned handlers
        can make room unreachable) — everything evictable is spilled and
        the layer recovers on the next cycle.
        """
        rec = nrt.locals[oid]
        new_size = None
        if ctx is not None:
            hint = ctx._take_size_hint()
            if hint is not None:
                kind, n = hint
                if kind == "abs":
                    new_size = max(n, 1)
                else:
                    new_size = max(nrt.ooc.table[oid].nbytes + n, 1)
        if new_size is None:
            new_size = self._obj_nbytes_local(rec, nrt.rank)
        try:
            victims = nrt.ooc.resize(oid, new_size)
        except OutOfMemory:
            victims = [
                v for v in nrt.ooc.eviction_candidates(protect={oid})
                if nrt.locals[v].obj is not None
            ]
            nrt.ooc.force_resize(oid, new_size)
        for victim in victims:
            if nrt.locals.get(victim) is not None and nrt.locals[victim].obj is not None:
                self._evict_now(nrt, victim)

    # ---------------------------------------------------------- direct call
    def _call_direct(
        self,
        ctx: HandlerContext,
        target: MobilePointer,
        handler_name: str,
        args: tuple,
        kwargs: dict,
    ) -> bool:
        node = ctx.node
        if ctx.speculative:
            # A speculative handler may not reach other objects directly:
            # those effects would bypass commit validation.  Refusing
            # falls back to a message, which buffers until commit.
            return False
        if self.directory.truth.get(target.oid) != node:
            return False
        nrt = self.nodes[node]
        if not nrt.ooc.is_resident(target.oid):
            return False
        rec = nrt.locals[target.oid]
        if self.speculation is not None:
            # Eager conflict detection, same as the worker path: this
            # direct access must see validated (pre-speculation) state.
            self.speculation.abort_if_pending(target.oid)
        obj = rec.obj
        if obj is None:
            return False
        fn = getattr(obj, handler_name, None)
        if fn is None or not getattr(fn, "_mrts_handler", False):
            raise MRTSError(
                f"{type(obj).__name__} has no handler {handler_name!r}"
            )
        nrt.ooc.touch(target.oid)
        nrt.ooc.lock(target.oid)  # pin across the inline handler
        try:
            wall0 = _time.perf_counter()
            fn(ctx, *args, **kwargs)
            measured = _time.perf_counter() - wall0
        finally:
            nrt.ooc.unlock(target.oid)
        probe = Message(target, handler_name, args, kwargs, source_node=node)
        modeled = self.cost_model.handler_cost(obj, handler_name, probe)
        ctx.extra_charge += modeled if modeled is not None else measured
        if not getattr(fn, "_mrts_readonly", False):
            obj.mark_dirty()
            self._account_growth(nrt, target.oid, ctx)
            if self.speculation is not None:
                self.directory.bump_version(target.oid)
        return True

    # ------------------------------------------------------------ inspection
    def get_object(self, ptr: MobilePointer) -> MobileObject:
        """Fetch the live object (post-run inspection; loads if spilled)."""
        node = self.directory.location(ptr.oid)
        nrt = self.nodes[node]
        rec = nrt.locals[ptr.oid]
        if rec.obj is None:
            # Synchronous convenience load outside the timed run.
            proc = self.engine.process(self._load_blocking(nrt, ptr.oid))
            self.engine.run(until=proc)
        return rec.obj  # type: ignore[return-value]

    def object_location(self, ptr: MobilePointer) -> int:
        return self.directory.location(ptr.oid)
