"""The shard worker: one real process hosting one shard of the store.

A worker is deliberately dumb: it owns no routing truth (the coordinator
computes every assignment from the hash ring) and it executes exactly
what it is told, exactly once.  The control loop is single-threaded —
``recv``, execute, ``ack`` — so handlers on one shard are serial (the
same guarantee one MRTS node gives its objects) and parallelism comes
from running many workers.  The peer memory server rides on a side
thread, serving the ring neighbor's spills concurrently with handler
execution — real compute/communication overlap across processes, which
is the whole point of leaving the DES.

Every effect of a handler travels in its ACK: the packed post-state (the
coordinator's replica), the handler's outgoing posts, and the node's obs
events since the last ACK plus a clock watermark.  The dedupe cache
(``msg_id -> Ack``) makes redelivery free: a duplicate is answered with
the cached ACK, never re-executed.

``ShardWorker`` is transport-agnostic (anything with ``send``/``recv``)
so unit tests drive it in-process over ``multiprocessing.Pipe`` ends and
the logic stays inside coverage; :func:`worker_main` is the process
entry point that wires the real tiers together.
"""

from __future__ import annotations

import time
import traceback

from repro.core import spill
from repro.core.mobile import MobilePointer
from repro.core.remote_memory import MemoryPool
from repro.core.runtime import MRTS
from repro.core.stats import Ledger
from repro.core.storage import MemoryBackend, StorageBackend, build_storage_stack
from repro.dist.events import encode_event
from repro.dist.store import PeerClient, PeerMemoryServer, PeerTier, resolve_class
from repro.dist.wire import Ack, Create, Post, Shutdown
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.invariants import check_node_residency
from repro.util.errors import ObjectNotFound, OutOfMemory

__all__ = ["ShardWorker", "DistHandlerContext", "worker_main"]


class DistHandlerContext:
    """The handler's window into the runtime, distributed edition.

    Mirrors the paper's messaging surface: ``post`` buffers outgoing
    messages, which ride the ACK back to the coordinator for routing
    through the shard map (one-sided sends, like the ARMCI layer).  The
    locality-dependent extras (``lock``, ``call_direct``, task trees) are
    meaningless across a process boundary and are intentionally absent —
    an application using them must run the simulated backends.
    """

    def __init__(self, node: int) -> None:
        self.node = node
        self.outbox: list[tuple[int, str, tuple, dict]] = []

    def post(self, target, method: str, *args, **kwargs) -> None:
        oid = target.oid if isinstance(target, MobilePointer) else int(target)
        self.outbox.append((oid, method, args, kwargs))

    def grew(self, nbytes: int) -> None:
        """Size-hint no-op: the worker re-measures after every mutation."""


class _StoredAlready:
    """Write-behind with nothing behind: the store already ran in full."""

    def submit(self, oid: int, nbytes: int) -> None:
        pass


class ShardWorker:
    """Serve one shard over a control connection until Shutdown.

    The shard lives in a one-node MRTS (``rt``, its node ``nrt``) whose
    memory is ``l0_bytes`` and whose raw store is ``medium``: records,
    residency, loads, spills and their accounting are ``core/spill.py``
    and the ``Ledger``, as on a simulated node.  L0 charges an object its
    packed size, which the worker always holds.  The node's engine never
    runs, and three of its parts are swapped for a process:

    * the storage stack, recomposed with ``seed=rank`` and real sleeps
      for retry backoff (the simulator charges the delay in virtual time);
    * the ledger's clock, a real one, since the coordinator merges the
      workers' events by real time;
    * write-behind, which queues the virtual disk time of a store that
      already ran: a process has no virtual disk, and every queued
      charge would be an engine process that never runs.
    """

    def __init__(self, rank: int, conn, config, l0_bytes: int,
                 medium: StorageBackend, t0: float = 0.0,
                 clock=time.monotonic) -> None:
        self.rank = rank
        self.conn = conn
        self.peer = medium if isinstance(medium, PeerTier) else None
        self.t0 = t0
        self._clock = clock
        self.rt = MRTS(
            ClusterSpec(n_nodes=1, node=NodeSpec(cores=1, memory_bytes=l0_bytes)),
            config, storage_factory=lambda _: medium,
        )
        self.nrt = nrt = self.rt.nodes[0]
        nrt.rank = rank  # events and counters name the worker
        nrt.storage = build_storage_stack(medium, seed=rank, sleep=time.sleep)
        nrt.write_behind = _StoredAlready()
        self.rt.ledger = Ledger(self.rt.stats, self.rt.bus, self)
        self._events = self.rt.bus.subscribe()
        self._acked: dict[int, Ack] = {}
        self.delivered = 0
        self.duplicates = 0

    @property
    def now(self) -> float:
        """Seconds since the coordinator's epoch: the ledger's clock."""
        return self._clock() - self.t0

    # ------------------------------------------------------------------ loop
    def serve_forever(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                return  # coordinator went away; nothing left to serve
            if not self.handle(msg):
                return

    def handle(self, msg) -> bool:
        """Process one control message; returns False on Shutdown."""
        cached = self._acked.get(msg.msg_id)
        if cached is not None:
            # Exactly-once: a redelivery (retransmit or wire duplicate)
            # re-sends the receipt without re-executing anything.
            self.duplicates += 1
            self._send(cached)
            return True
        if isinstance(msg, Shutdown):
            self._send(self._ack_shutdown(msg))
            return False
        try:
            if isinstance(msg, Create):
                ack = self._do_create(msg)
            elif isinstance(msg, Post):
                ack = self._do_post(msg)
            else:
                raise TypeError(f"unknown message {type(msg)}")
        except Exception:
            ack = Ack(msg.msg_id, getattr(msg, "oid", -1),
                      error=traceback.format_exc())
        self._acked[msg.msg_id] = ack
        self._send(ack)
        return True

    def _send(self, ack: Ack) -> None:
        try:
            self.conn.send(ack)
        except (OSError, BrokenPipeError):  # pragma: no cover - dying link
            pass

    def _ack(self, msg, **fields) -> Ack:
        rows = tuple(map(encode_event, self._events.events))
        self._events.events.clear()
        return Ack(msg.msg_id, getattr(msg, "oid", -1), events=rows,
                   now=self.now, **fields)

    # -------------------------------------------------------------- messages
    def _do_create(self, msg: Create) -> Ack:
        rt, nrt, oid, state = self.rt, self.nrt, msg.oid, msg.state
        if oid in nrt.locals:
            # A re-home re-admit: the previous life's record and stored
            # copy describe an older state than the one arriving.
            rt.destroy_object(rt.pointers[oid])
        rt.register_object(
            MobilePointer(oid, self.rank), resolve_class(msg.cls_path), 0)
        budget = nrt.ooc.budget
        spill.admit(rt, nrt, oid, min(len(state), budget))
        spill.install(rt, nrt, oid, spill.rehydrate(rt, oid, [state]),
                      pack_cache=state)
        if len(state) > budget:  # larger than L0: admitted as an overrun
            spill.resize_resident(rt, nrt, oid, len(state))
        return self._ack(msg)

    def _do_post(self, msg: Post) -> Ack:
        rt, nrt, oid = self.rt, self.nrt, msg.oid
        rec = nrt.locals.get(oid)
        if rec is None:
            raise ObjectNotFound(f"object {oid} is not homed on this shard")
        if rec.obj is None:
            try:
                victims = nrt.ooc.plan_load(oid)
            except OutOfMemory:  # larger than L0: back in as the overrun
                victims = nrt.ooc.eviction_candidates(protect={oid})
            spill.evict_all(rt, nrt, victims)
            spill.install_loaded(
                rt, nrt, oid, nrt.storage.load_segments(oid),
                nrt.ooc.table[oid].nbytes, background=False, repaired=False)
        else:
            nrt.ooc.touch(oid)
        obj = rec.obj
        fn = getattr(obj, msg.method, None)
        if fn is None or not getattr(fn, "_mrts_handler", False):
            raise AttributeError(
                f"{type(obj).__name__}.{msg.method} is not a handler")
        ctx = DistHandlerContext(self.rank)
        start = self.now
        fn(ctx, *msg.args, **msg.kwargs)
        rt.ledger.handler(
            self.rank, oid, msg.method, start, self.now - start, 0)
        state = None
        if not getattr(fn, "_mrts_readonly", False):
            obj.mark_dirty()  # drops the stale pack cache
            state = spill.pack_local(rt, rec, self.rank)
            spill.resize_resident(rt, nrt, oid, len(state))
        # Soft-threshold advice, as after every MRTS handler.
        spill.evict_all(rt, nrt, nrt.ooc.advise_swap(protect={oid}))
        self.delivered += 1
        return self._ack(msg, state=state, posts=tuple(ctx.outbox))

    def _ack_shutdown(self, msg: Shutdown) -> Ack:
        ooc, storage, counters = self.nrt.ooc, self.nrt.storage, self.rt.stats
        stats = dict(
            evictions=ooc.evictions, loads=storage.loads,
            clean_evictions=ooc.clean_evictions, packs=counters.packs,
            delta_spills=counters.delta_spills, stores=storage.stores,
            owned=len(self.nrt.locals),
            delivered=self.delivered, duplicates=self.duplicates,
            residency_violations=check_node_residency(
                self.nrt, f"worker {self.rank}"),
        )
        if self.peer is not None:
            client = self.peer.client
            stats.update(peer_hits=client.gets, peer_puts=client.puts,
                         peer_fallbacks=self.peer.fallbacks)
            client.close()
        return self._ack(msg, stats=stats)


def worker_main(rank: int, conn, peer_server_conn, peer_client_conn, config,
                l0_bytes: int, peer_pool_bytes: int, t0: float) -> None:
    """Process entry point: compose the media and serve the shard.

    The raw store is a private in-process disk, with the ring neighbor's
    RAM over it as a :class:`PeerTier`.  The peer server hosts
    ``peer_pool_bytes`` of slab for the other neighbor, overflowing under
    pressure into its own demotion backend — the live deployment of the
    MemoryPool eviction path.
    """
    medium = MemoryBackend()
    if peer_client_conn is not None:
        medium = PeerTier(medium, PeerClient(peer_client_conn))
    if peer_server_conn is not None:
        PeerMemoryServer(
            peer_server_conn,
            MemoryPool(peer_pool_bytes, overflow=MemoryBackend()),
        ).start()
    ShardWorker(rank, conn, config, l0_bytes, medium, t0=t0).serve_forever()
