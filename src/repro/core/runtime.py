"""The MRTS runtime: mobile objects + active messages on a cluster.

This module is the *wiring*: it builds the per-node state of the four
layers on the discrete-event cluster substrate, owns the public API
(``create_object`` / ``post`` / ``run`` / ``migrate`` / ``get_object``),
object creation and destruction, quiescence and worker start-up.  What
the layers *do* lives in the layer modules, as functions over the runtime:

* the **storage layer** (:mod:`repro.core.storage`) really packs objects
  and stores bytes (files or memory) — out-of-core is not simulated away;
* the **out-of-core layer** decides evictions, enforces the hard/soft
  thresholds, honours locks and priorities (:mod:`repro.core.ooc`, the
  policy) and moves objects between core and storage
  (:mod:`repro.core.spill`, the mechanism);
* the **control layer** (:mod:`repro.core.control`) routes messages
  through the distributed directory (lazy-update forwarding), orders
  per-object queues, migrates objects and detects global termination;
* the **computing layer** (:mod:`repro.core.computing`) runs handlers and
  turns their task trees into execution time under the configured backend.

Imports go one way — computing -> control -> spill -> ooc / storage — and
this module imports all of them; none of them imports this one
(``tests/test_layering.py`` holds that).

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

from typing import Any, Callable, Optional

from repro.core.config import MRTSConfig
from repro.core.computing import HandlerContext, handler, node_thief, worker
from repro.core.control import (
    ReadyQueue,
    TerminationDetector,
    make_sink,
    migrate_and_done,
    post_message,
)
from repro.core.directory import Directory, make_directory
from repro.core.messages import Message, MulticastMessage
from repro.core.mobile import MobileObject, MobilePointer
from repro.core.ooc import OOCLayer
from repro.core.packfile import PackFileBackend
from repro.core.prefetch import PrefetchPredictor
from repro.core.spec import SpeculationManager
from repro.core.spill import (
    LocalObject,
    WriteBehind,
    admit,
    install,
    load_blocking,
    obj_nbytes,
)
from repro.core.stats import Ledger, RunStats
from repro.core.storage import (
    CompressingBackend,
    CountingBackend,
    StorageBackend,
    build_storage_stack,
)
from repro.obs.events import EventBus
from repro.sim.cluster import ClusterSpec, SimCluster
from repro.sim.engine import Engine
from repro.sim.node import NodeSpec
from repro.sim.resources import Resource, Store
from repro.util.errors import MRTSError, ObjectNotFound
from repro.util.ids import IdAllocator

__all__ = ["MRTS", "HandlerContext", "CostModel", "MeasuredCostModel", "handler"]


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


class _NodeRuntime:
    """Per-node state of the four layers (the functions in
    :mod:`~repro.core.spill`, :mod:`~repro.core.control` and
    :mod:`~repro.core.computing` take it as ``nrt``)."""

    def __init__(self, runtime: "MRTS", rank: int) -> None:
        self.rank = rank
        self.locals: dict[int, LocalObject] = {}
        self.ready = ReadyQueue()
        # Memory budget comes from the node hardware spec, not the config
        # default — the whole point of out-of-core is respecting node RAM.
        self.ooc = OOCLayer(
            runtime.config, budget=runtime.spec.node.memory_bytes
        )
        backend = runtime.storage_factory(rank)
        self.storage = runtime.compose_storage(rank, backend)
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
        self.mcast_slot = Resource(runtime.engine, 1)
        # Out-of-core medium: None = local disk; a node rank = remote
        # memory server reached over the interconnect (paper [33]).
        self.spill_server: Optional[int] = None
        self.write_behind = WriteBehind(runtime, rank)
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
    def compressor(self) -> CompressingBackend:
        """The node's compression tier."""
        return self._find_layer(CompressingBackend)

    @property
    def packfile(self) -> Optional[PackFileBackend]:
        """The node's locality-aware pack layout, or None when the raw
        store came from a custom factory."""
        return self._find_layer(PackFileBackend)


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
        defaults to a :class:`PackFileBackend` per node, whose bytes live
        in an anonymous temporary file; pass ``MemoryBackend`` or
        ``FileBackend`` factories for other media.
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
        bus: Optional[EventBus] = None,
    ) -> None:
        if isinstance(cluster, int):
            cluster = ClusterSpec(n_nodes=cluster, node=NodeSpec(cores=1))
        self.spec = cluster
        self.config = config or MRTSConfig()
        self.engine = Engine()
        self.cluster = SimCluster(self.engine, cluster)
        self.cost_model = cost_model or MeasuredCostModel()
        if storage_factory is None:
            # Default raw store: locality-ordered pack segments, so
            # curve-adjacent objects cohabit and neighborhood warms are
            # one sequential read.  Custom factories (file spill, fault
            # injection, dist shards) are never wrapped.
            storage_factory = lambda rank: PackFileBackend()
        self.storage_factory = storage_factory
        # Learned prefetch: a Markov model over the demand-load stream,
        # fed directly by the load path (not via a bus subscription, so
        # instrumentation stays pay-for-use).
        self.predictor = PrefetchPredictor()
        self.io_depth = io_depth
        self.directory: Directory = make_directory(
            self.config.directory_policy, cluster.n_nodes
        )
        # The one accounting path: every layer reports through the ledger,
        # which owns the run's stats and its event bus.
        self.ledger = Ledger(
            RunStats(), bus if bus is not None else EventBus(), self.engine
        )
        self.stats = self.ledger.stats
        self.bus = self.ledger.bus
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
        # None).  The blocking load falls back to it when the storage copy
        # fails frame validation (torn write detected as CorruptObject).
        self.recovery_source: Optional[Callable[[int], Optional[bytes]]] = None
        # Objects whose storage copy was rewritten since the supervisor's
        # last snapshot (cleared by RecoveryPolicy at every checkpoint and
        # restore).  For these the snapshot payload is stale, so the
        # corrupt-load fallback must escalate instead of silently rewinding
        # one object to an older cut than the rest of the world.
        self.stored_since_snapshot: set[int] = set()
        self.nodes = [_NodeRuntime(self, r) for r in range(cluster.n_nodes)]
        self._id_alloc = IdAllocator()
        # oid -> the canonical pointer / the class of every live object.
        self.pointers: dict[int, MobilePointer] = {}
        self._classes: dict[int, type] = {}
        self._started = False
        for rank in range(cluster.n_nodes):
            self.cluster.network.attach_sink(rank, make_sink(self, rank))

    # ================================================================ setup
    def post(
        self, target: MobilePointer, handler_name: str, *args: Any, **kwargs: Any
    ) -> None:
        """Post an initial message (the application's driver message)."""
        msg = Message(target, handler_name, args, kwargs, source_node=-1)
        post_message(self, msg, self.directory.location(target.oid))

    def run(self, until: Optional[float] = None) -> RunStats:
        """Execute until global termination; returns the run statistics.

        Can be called again after posting more messages (the paper's "it is
        possible to start another phase of computing with the run-time
        system"); each call gets a fresh quiescence event.
        """
        if not self._started:
            self._start_workers()
            self._started = True
        if self.termination.outstanding == 0:
            # Nothing posted: trivially quiescent.
            self.stats.total_time = self.engine.now
            return self.stats
        if self._done_event.triggered:
            self._done_event = self.engine.event()
        self.engine.run(until=self._done_event if until is None else until)
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
                    worker(self, node), name=f"worker[{node.rank}.{k}]"
                )
                node.workers.append(proc)
        if self.config.work_stealing and len(self.nodes) > 1:
            for node in self.nodes:
                self.engine.process(
                    node_thief(self, node), name=f"thief[{node.rank}]"
                )

    # ======================================================== self-healing
    def compose_storage(self, rank: int, backend: StorageBackend) -> CountingBackend:
        """Wrap a factory backend in the self-healing storage stack.

        Delegates to :func:`~repro.core.storage.build_storage_stack` (also
        used by the ``repro.dist`` workers) with this node's rank as the
        retry-jitter seed and the ledger's retry hook for stats/events.
        """

        def on_retry(op: str, oid: int, attempt: int, delay: float) -> None:
            self.ledger.retry(rank, op, oid, attempt, delay)

        return build_storage_stack(backend, seed=rank, on_retry=on_retry)

    @property
    def degraded(self) -> bool:
        """True once any node's OOC layer entered degraded mode."""
        return any(n.ooc.degraded for n in self.nodes)

    # ====================================================== object lifecycle
    def create_object(
        self, cls: type, *args: Any, node: int = 0, **kwargs: Any
    ) -> MobilePointer:
        """Create a mobile object before or during the parallel phase."""
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"no such node {node}")
        ptr = MobilePointer(oid=self._id_alloc.allocate(), last_known_node=node)
        obj = cls(ptr, *args, **kwargs)
        if not isinstance(obj, MobileObject):
            raise TypeError(f"{cls.__name__} is not a MobileObject")
        obj.on_init()
        nrt = self.nodes[node]
        # Sizing may have to pack; the bytes stay as the warm pack cache.
        probe = LocalObject(obj=obj)
        admit(self, nrt, ptr.oid, obj_nbytes(self, probe))
        self.register_object(ptr, cls, node)
        install(self, nrt, ptr.oid, obj, pack_cache=probe.pack_cache)
        return ptr

    def register_object(self, ptr: MobilePointer, cls: type, node: int) -> None:
        """Enter an object into the name tables: the directory, the
        canonical pointer, its class.  (Creation, and checkpoint restore
        re-creating an object under its recorded id.)"""
        self.directory.register(ptr.oid, node)
        self.pointers[ptr.oid] = ptr
        self._classes[ptr.oid] = cls

    def object_class(self, oid: int) -> type:
        """The class to rehydrate a spilled or shipped ``oid`` as."""
        return self._classes[oid]

    @property
    def next_oid(self) -> int:
        """The id the next created object will get."""
        return self._id_alloc.peek()

    def reserve_oids(self, upto: int) -> None:
        """Never allocate an id below ``upto`` (restore: ids already taken)."""
        while self._id_alloc.peek() < upto:
            self._id_alloc.allocate()

    def destroy_object(self, ptr: MobilePointer) -> None:
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
            rec.obj = None  # an idle worker may still hold the record
        nrt.prefetched.discard(ptr.oid)
        nrt.ooc.forget(ptr.oid)
        nrt.storage.delete(ptr.oid)
        self.directory.unregister(ptr.oid)
        self.pointers.pop(ptr.oid, None)
        self._classes.pop(ptr.oid, None)

    def migrate(self, ptr: MobilePointer, dst: int) -> None:
        """Move an object to another node (asynchronously)."""
        src = self.directory.location(ptr.oid)
        if src == dst:
            return
        self.termination.add(1)
        self.engine.process(
            migrate_and_done(self, ptr.oid, src, dst), name=f"migrate[{ptr.oid}]"
        )

    # ------------------------------------------------------------ inspection
    def get_object(self, ptr: MobilePointer) -> MobileObject:
        """Fetch the live object (post-run inspection; loads if spilled)."""
        node = self.directory.location(ptr.oid)
        nrt = self.nodes[node]
        rec = nrt.locals[ptr.oid]
        if rec.obj is None:
            # Synchronous convenience load outside the timed run.
            proc = self.engine.process(load_blocking(self, nrt, ptr.oid))
            self.engine.run(until=proc)
        return rec.obj  # type: ignore[return-value]

    def object_location(self, ptr: MobilePointer) -> int:
        return self.directory.location(ptr.oid)
