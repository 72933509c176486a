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
coordinator's replica), the handler's outgoing posts, and the worker's
buffered obs events plus a clock watermark.  The dedupe cache
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
from typing import Optional

from repro.core.mobile import MobileObject, MobilePointer, revive
from repro.core.ooc import OOCLayer
from repro.core.remote_memory import MemoryPool
from repro.core.spill import LocalObject, bind_dirty
from repro.core.storage import CountingBackend, MemoryBackend, build_storage_stack
from repro.dist.events import encode_event
from repro.dist.store import PeerClient, PeerMemoryServer, PeerTier, resolve_class
from repro.dist.wire import Ack, Create, Post, Shutdown
from repro.obs.events import EvictEvent, HandlerSpan, LoadEvent
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


class ShardWorker:
    """Serve one shard over a control connection until Shutdown.

    The shard is kept the way an MRTS node keeps its objects: residency
    in ``ooc``, ``spill.LocalObject`` records with the node's dirty hook,
    spills through ``storage`` (a ``build_storage_stack``, with ``peer``
    under it if any).  So a clean eviction skips the pack and the store,
    and a dirty one stores the bytes its last handler packed for the
    ACK.  L0 charges an object its packed size: the worker always holds
    those bytes.
    """

    def __init__(
        self,
        rank: int,
        conn,
        storage: CountingBackend,
        ooc: OOCLayer,
        peer: Optional[PeerTier] = None,
        t0: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.rank = rank
        self.conn = conn
        self.storage = storage
        self.ooc = ooc
        self.peer = peer
        self.t0 = t0
        self._clock = clock
        self.locals: dict[int, LocalObject] = {}
        self.classes: dict[int, type] = {}
        self._acked: dict[int, Ack] = {}
        self._events: list = []
        self.delivered = 0
        self.duplicates = 0
        self.packs = 0

    def now(self) -> float:
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
        if isinstance(msg, Create):
            ack = self._do_create(msg)
        elif isinstance(msg, Post):
            ack = self._do_post(msg)
        else:
            ack = Ack(msg.msg_id, -1, error=f"unknown message {type(msg)}")
        self._acked[msg.msg_id] = ack
        self._send(ack)
        return True

    def _send(self, ack: Ack) -> None:
        try:
            self.conn.send(ack)
        except (OSError, BrokenPipeError):  # pragma: no cover - dying link
            pass

    def _drain_events(self) -> tuple:
        rows = tuple(encode_event(e) for e in self._events)
        self._events.clear()
        return rows

    def _emit(self, kind: type, oid: int, nbytes: int, **fields) -> None:
        self._events.append(kind(
            time=self.now(), node=self.rank, oid=oid, nbytes=nbytes,
            memory_used=self.ooc.memory_used, **fields,
        ))

    # ------------------------------------------------------------- residency
    def get(self, oid: int) -> MobileObject:
        """The in-core instance of ``oid``, loaded if it was spilled."""
        rec = self.locals.get(oid)
        if rec is None:
            raise ObjectNotFound(f"object {oid} is not homed on this shard")
        if rec.obj is not None:
            self.ooc.touch(oid)
            return rec.obj
        try:
            victims = self.ooc.plan_load(oid)
        except OutOfMemory:  # larger than L0: back in as the recorded overrun
            victims = self.ooc.eviction_candidates(protect={oid})
        self._evict(victims)
        self._install(oid, self.storage.load(oid))
        self.ooc.confirm_load(oid)
        self._emit(LoadEvent, oid, self.ooc.table[oid].nbytes, background=False)
        return rec.obj

    def _admit(self, oid: int, cls: type, state: bytes) -> None:
        if oid in self.locals:
            # A re-home re-admit: the previous life's record and stored
            # copy describe an older state than the one arriving.
            del self.locals[oid]
            self.ooc.forget(oid)
            self.storage.delete(oid)
        self.classes[oid] = cls
        self._install(oid, state)
        fits = min(len(state), self.ooc.budget)
        self._evict(self.ooc.admit(oid, fits))
        self.ooc.confirm_admit(oid)
        if fits < len(state):  # larger than L0: admitted as a recorded overrun
            self.ooc.force_resize(oid, len(state))

    def _install(self, oid: int, packed: bytes) -> None:
        rec = self.locals.setdefault(oid, LocalObject(obj=None))
        rec.obj = revive(self.classes[oid], MobilePointer(oid, self.rank),
                         [packed])
        rec.pack_cache = packed
        bind_dirty(self, oid, rec.obj)

    def _resize(self, oid: int, nbytes: int) -> None:
        """Re-account a mutated object, as ``spill.resize_resident`` does."""
        try:
            victims = self.ooc.resize(oid, nbytes)
        except OutOfMemory:  # grew past what eviction can free
            victims = self.ooc.eviction_candidates(protect={oid})
            self.ooc.force_resize(oid, nbytes)
        self._evict(victims)

    def _evict(self, victims: list[int]) -> None:
        for oid in victims:
            rec = self.locals[oid]
            dirty = self.ooc.is_dirty(oid)
            if dirty:  # else the stored copy is current: no pack, no store
                self.storage.store(oid, self._pack(rec))
            rec.obj = rec.pack_cache = None
            nbytes = self.ooc.confirm_evict(oid)
            self._emit(EvictEvent, oid, nbytes, clean=not dirty)

    def _pack(self, rec: LocalObject) -> bytes:
        """The record's packed state: one ``pack()`` per write at most."""
        if rec.pack_cache is None:
            rec.pack_cache = rec.obj.pack()
            self.packs += 1
        return rec.pack_cache

    # -------------------------------------------------------------- messages
    def _do_create(self, msg: Create) -> Ack:
        try:
            self._admit(msg.oid, resolve_class(msg.cls_path), msg.state)
        except Exception:
            return Ack(msg.msg_id, msg.oid, error=traceback.format_exc())
        return Ack(
            msg.msg_id, msg.oid, state=None,
            events=self._drain_events(), now=self.now(),
        )

    def _do_post(self, msg: Post) -> Ack:
        try:
            obj = self.get(msg.oid)
            fn = getattr(obj, msg.method, None)
            if fn is None or not getattr(fn, "_mrts_handler", False):
                raise AttributeError(
                    f"{type(obj).__name__}.{msg.method} is not a handler"
                )
            readonly = getattr(fn, "_mrts_readonly", False)
            ctx = DistHandlerContext(self.rank)
            start = self.now()
            fn(ctx, *msg.args, **msg.kwargs)
            duration = self.now() - start
            state = None
            if not readonly:
                obj.mark_dirty()  # drops the stale pack cache
                state = self._pack(self.locals[msg.oid])
                self._resize(msg.oid, len(state))
            # Soft-threshold advice, as after every MRTS handler.
            self._evict(self.ooc.advise_swap(protect={msg.oid}))
            self.delivered += 1
            self._events.append(HandlerSpan(
                time=start, node=self.rank, oid=msg.oid, handler=msg.method,
                duration=duration, comp_s=duration, queue_len=0,
            ))
        except Exception:
            return Ack(msg.msg_id, msg.oid, error=traceback.format_exc())
        return Ack(
            msg.msg_id, msg.oid, state=state, posts=tuple(ctx.outbox),
            events=self._drain_events(), now=self.now(),
        )

    def _ack_shutdown(self, msg: Shutdown) -> Ack:
        stats = dict(
            evictions=self.ooc.evictions, loads=self.storage.loads,
            clean_evictions=self.ooc.clean_evictions, packs=self.packs,
            stores=self.storage.stores, owned=len(self.locals),
            delivered=self.delivered, duplicates=self.duplicates,
            residency_violations=check_node_residency(
                self, f"worker {self.rank}"),
        )
        if self.peer is not None:
            client = self.peer.client
            stats.update(peer_hits=client.gets, peer_puts=client.puts,
                         peer_fallbacks=self.peer.fallbacks)
            client.close()
        return Ack(
            msg.msg_id, -1, events=self._drain_events(), now=self.now(),
            stats=stats,
        )


def worker_main(
    rank: int,
    conn,
    peer_server_conn,
    peer_client_conn,
    config,
    l0_bytes: int,
    peer_pool_bytes: int,
    t0: float,
) -> None:
    """Process entry point: compose the layers and serve the shard.

    Residency is an :class:`OOCLayer` budgeted at ``l0_bytes``; storage
    is the single-process runtime's self-healing stack (with *real*
    sleeps for retry backoff) over a private in-process disk, with the
    ring neighbor's RAM under it as a :class:`PeerTier`.  The peer server
    hosts ``peer_pool_bytes`` of slab for the other neighbor, overflowing
    under pressure into its own demotion backend — the live deployment
    of the MemoryPool eviction path.
    """
    medium = MemoryBackend()
    peer = None
    if peer_client_conn is not None:
        medium = peer = PeerTier(medium, PeerClient(peer_client_conn))
    storage = build_storage_stack(config, medium, seed=rank, sleep=time.sleep)
    if peer_server_conn is not None:
        PeerMemoryServer(
            peer_server_conn,
            MemoryPool(peer_pool_bytes, overflow=MemoryBackend()),
        ).start()
    ooc = OOCLayer(config, budget=l0_bytes)
    ShardWorker(rank, conn, storage, ooc, peer=peer, t0=t0).serve_forever()
