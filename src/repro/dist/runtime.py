"""The distributed execution backend: real processes behind the MRTS API.

:class:`DistRuntime` is the third sibling of the simulated TBB-like and
GCD-like computing backends: instead of scheduling virtual tasks under
one DES clock, every node is a real :mod:`multiprocessing` worker and
handlers burn real cores.  The coordinator keeps the MRTS application
surface — ``create_object`` / ``post`` / ``run`` / ``get_object`` — so
workloads written against the simulator (``run_storm`` et al.) drive the
distributed store unchanged.

Architecture (docs/distributed.md has the full protocol):

* **Shard map** — a consistent-hash :class:`~repro.dist.shard.HashRing`
  assigns every oid a home worker; the coordinator owns routing truth and
  workers execute blindly.
* **Replicated directory** — each entry holds the object's class and its
  last *acked* packed state, updated from every non-readonly ACK.  The
  replica is what makes a worker crash survivable without rewinding
  anyone (see :mod:`repro.dist.recovery`).
* **Exactly-once delivery** — coordinator-assigned msg ids, worker-side
  dedupe with cached ACKs, coordinator-side ACK dedupe, and timer-driven
  retransmission.  :class:`~repro.dist.wire.WireChaos` attacks exactly
  this machinery in the chaos matrix.
* **Per-object FIFO** — at most one in-flight message per object, next
  one dispatched when the previous is acked.  This preserves the MRTS
  per-object delivery-order guarantee across retransmits and re-homes
  (``meet`` lands before any ``pulse``); cross-object parallelism is
  what the workers exploit.
* **Event relay** — ACKs carry wire-encoded obs events plus a clock
  watermark; an :class:`~repro.dist.events.EventMerger` releases them
  into a local bus in global time order, so traces and the overlap
  analysis work as in-process.

Determinism: the final application state for order-independent workloads
(the StormActor family) is identical across 1, 2 and 4 workers and equal
to the single-process simulator's — pinned by tests and gated by
``mrts-bench perf --backend dist``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import MRTSConfig
from repro.core.mobile import MobileObject, MobilePointer, revive
from repro.dist.events import EventMerger, decode_event
from repro.dist.recovery import ShardRecoveryPolicy
from repro.dist.shard import HashRing
from repro.dist.store import class_path, resolve_class
from repro.dist.wire import Ack, Create, DistError, Post, Shutdown, WireChaos
from repro.obs.events import EventBus
from repro.util.errors import ObjectNotFound
from repro.util.ids import IdAllocator

__all__ = ["DistRuntime", "DistRunStats", "WorkerHandle"]

#: Bound on unacked messages per worker: keeps pipes well under their
#: buffer size so the coordinator's sends never block against a worker
#: that is itself blocked sending an ACK (the classic pipe deadlock).
MAX_INFLIGHT_PER_WORKER = 8


@dataclass
class DistRunStats:
    """Counters for one distributed run (the perf report's raw material)."""

    workers: int = 0
    delivered: int = 0          # ACKs processed (creates + posts)
    posts_routed: int = 0       # handler-generated messages routed
    retransmits: int = 0
    dup_acks: int = 0
    rehomes: int = 0
    moved_objects: int = 0
    bytes_replicated: int = 0   # replica state bytes shipped in ACKs
    events_merged: int = 0
    wall_s: float = 0.0
    worker_stats: dict = field(default_factory=dict)

    def aggregate(self, key: str) -> int:
        return sum(int(s.get(key, 0)) for s in self.worker_stats.values())

    def residency_violations(self) -> list[str]:
        """What each worker's shutdown residency check found."""
        return [v for s in self.worker_stats.values()
                for v in s.get("residency_violations", ())]


@dataclass
class _DirEntry:
    cls_path: str
    state: bytes
    home: int


@dataclass
class _InFlight:
    msg: Any
    oid: int
    worker: int
    last_send: float
    sends: int = 1


class WorkerHandle:
    """One spawned worker: process + control connection."""

    def __init__(self, rank: int, process, conn) -> None:
        self.rank = rank
        self.process = process
        self.conn = conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class DistRuntime:
    """Coordinator for a sharded multiprocess object store."""

    def __init__(
        self,
        n_workers: int,
        config: Optional[MRTSConfig] = None,
        *,
        l0_bytes: int = 48 * 1024,
        peer_pool_bytes: int = 128 * 1024,
        chaos: Optional[WireChaos] = None,
        bus: Optional[EventBus] = None,
        recovery: Optional[ShardRecoveryPolicy] = None,
        rto_s: float = 0.25,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.config = config or MRTSConfig()
        self.ring = HashRing(range(n_workers))
        self.chaos = chaos
        self.recovery = recovery or ShardRecoveryPolicy()
        self.rto_s = rto_s
        self.stats = DistRunStats(workers=n_workers)
        self.bus = bus if bus is not None else EventBus()
        self.merger = EventMerger(self.bus)
        self._id_alloc = IdAllocator()        # oids, parity with MRTS
        self._msg_ids = IdAllocator()         # wire message ids
        self.directory: dict[int, _DirEntry] = {}
        self._pending: dict[int, deque] = {}
        self._outstanding: dict[int, Optional[int]] = {}
        self._inflight: dict[int, _InFlight] = {}
        self._per_worker_inflight: dict[int, int] = {}
        self._kill_plan: Optional[tuple[int, int]] = None  # (after, rank)
        self._closed = False
        self._t0 = time.monotonic()
        self.workers: list[WorkerHandle] = []
        self._spawn(n_workers, l0_bytes, peer_pool_bytes)

    # ------------------------------------------------------------------ setup
    def _spawn(self, n: int, l0_bytes: int, peer_pool_bytes: int) -> None:
        from repro.dist.worker import worker_main

        ctx = multiprocessing.get_context("fork")
        # Peer ring: worker i's client talks to worker (i+1)%n's server.
        client_conns: list = [None] * n
        server_conns: list = [None] * n
        if n > 1:
            for i in range(n):
                client_end, server_end = ctx.Pipe(duplex=True)
                client_conns[i] = client_end
                server_conns[(i + 1) % n] = server_end
        for rank in range(n):
            coord_conn, worker_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_main,
                args=(
                    rank, worker_conn, server_conns[rank], client_conns[rank],
                    self.config, l0_bytes, peer_pool_bytes, self._t0,
                ),
                daemon=True,
                name=f"shard-worker-{rank}",
            )
            process.start()
            self.workers.append(WorkerHandle(rank, process, coord_conn))
            self.merger.add_source(rank)
            self._per_worker_inflight[rank] = 0

    # -------------------------------------------------------- MRTS-like API
    @property
    def nodes(self) -> list[WorkerHandle]:
        """Duck-typing shim: workloads use ``len(runtime.nodes)``."""
        return self.workers

    def create_object(
        self, cls: type, *args: Any, node: Optional[int] = None, **kwargs: Any
    ) -> MobilePointer:
        """Create a mobile object; the shard map decides its home.

        ``node`` is accepted for source compatibility with the simulated
        runtime and ignored — placement is consistent-hash sharding, not
        caller choice.  The object is constructed (and ``on_init`` run)
        coordinator-side so the directory replica is correct from birth,
        then shipped packed to its home worker.
        """
        oid = self._id_alloc.allocate()
        home = self.ring.assign(oid)
        ptr = MobilePointer(oid, last_known_node=home)
        obj = cls(ptr, *args, **kwargs)
        if not isinstance(obj, MobileObject):
            raise TypeError(f"{cls.__name__} is not a MobileObject")
        obj.on_init()
        state = obj.pack()
        self.directory[oid] = _DirEntry(class_path(cls), state, home)
        self._enqueue(oid, Create(self._msg_ids.allocate(), oid,
                                  class_path(cls), state))
        return ptr

    def post(
        self, target: MobilePointer, handler_name: str, *args: Any,
        **kwargs: Any,
    ) -> None:
        """Queue an application message for exactly-once delivery."""
        self._enqueue_post(target.oid, handler_name, args, kwargs)

    def run(self, until: Optional[float] = None) -> DistRunStats:
        """Pump the wire until global quiescence; returns run counters.

        ``until`` is accepted for API parity and ignored (real time has
        no virtual horizon).  Quiescence is exact, not heuristic: the
        coordinator routes every message, so "no queued work and no
        unacked work" is global termination.
        """
        start = time.perf_counter()
        while not self._quiescent():
            self._dispatch()
            self._drain_acks(timeout=0.005)
            self._check_retransmits()
            self._check_liveness()
        self.stats.wall_s += time.perf_counter() - start
        self.stats.events_merged = self.merger.merged
        return self.stats

    def get_object(self, target: MobilePointer) -> MobileObject:
        """Rebuild the object from its replicated directory entry.

        At quiescence every effect has been acked, so the replica equals
        the live copy byte-for-byte; mid-run it reflects the acked prefix.
        """
        entry = self.directory.get(target.oid)
        if entry is None:
            raise ObjectNotFound(f"object {target.oid} unknown")
        return revive(
            resolve_class(entry.cls_path),
            MobilePointer(target.oid, entry.home), [entry.state],
        )

    # --------------------------------------------------------------- faults
    def kill_worker(self, rank: int) -> None:
        """SIGKILL a worker (chaos).  Recovery happens on the next pump."""
        handle = self.workers[rank]
        if handle.alive:
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=5.0)

    def schedule_kill(self, rank: int, after_acks: int) -> None:
        """Kill ``rank`` once ``after_acks`` ACKs have been processed —
        a count-based (hence reproducible) mid-epoch crash."""
        self._kill_plan = (after_acks, rank)

    # ------------------------------------------------------------- shutdown
    def close(self) -> DistRunStats:
        """Drain, stop every worker, collect final events and counters."""
        if self._closed:
            return self.stats
        self._closed = True
        waiting = {}
        for handle in self.workers:
            if not handle.alive:
                continue
            msg_id = self._msg_ids.allocate()
            try:
                handle.conn.send(Shutdown(msg_id))
                waiting[msg_id] = handle
            except (OSError, BrokenPipeError):
                continue
        deadline = time.monotonic() + 5.0
        while waiting and time.monotonic() < deadline:
            for msg_id, handle in list(waiting.items()):
                if handle.conn.poll(0.05):
                    try:
                        ack = handle.conn.recv()
                    except (EOFError, OSError):
                        del waiting[msg_id]
                        continue
                    if isinstance(ack, Ack) and ack.msg_id == msg_id:
                        self._absorb_events(handle.rank, ack)
                        if ack.stats is not None:
                            self.stats.worker_stats[handle.rank] = ack.stats
                        del waiting[msg_id]
                if not handle.alive:
                    waiting.pop(msg_id, None)
        for handle in self.workers:
            handle.process.join(timeout=1.0)
            if handle.alive:
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self.merger.flush()
        self.stats.events_merged = self.merger.merged
        return self.stats

    def __enter__(self) -> "DistRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _enqueue(self, oid: int, msg) -> None:
        self._pending.setdefault(oid, deque()).append(msg)
        self._outstanding.setdefault(oid, None)

    def _enqueue_post(self, oid: int, method: str, args, kwargs) -> None:
        if oid not in self.directory:
            raise ObjectNotFound(f"cannot post to unknown object {oid}")
        self._enqueue(
            oid, Post(self._msg_ids.allocate(), oid, method,
                      tuple(args), dict(kwargs))
        )

    def _quiescent(self) -> bool:
        return not self._inflight and all(
            not q for q in self._pending.values()
        )

    def _dispatch(self) -> None:
        for oid, queue in self._pending.items():
            if not queue or self._outstanding.get(oid) is not None:
                continue
            home = self.directory[oid].home
            if self._per_worker_inflight[home] >= MAX_INFLIGHT_PER_WORKER:
                continue
            msg = queue.popleft()
            self._outstanding[oid] = msg.msg_id
            self._inflight[msg.msg_id] = _InFlight(
                msg, oid, home, time.monotonic()
            )
            self._per_worker_inflight[home] += 1
            self._wire_send(msg, home)

    def _wire_send(self, msg, worker: int) -> None:
        copies = 1 if self.chaos is None else self.chaos.send_copies(msg.msg_id)
        conn = self.workers[worker].conn
        for _ in range(copies):
            try:
                conn.send(msg)
            except (OSError, BrokenPipeError):
                return  # dead worker: liveness check will re-home

    def _drain_acks(self, timeout: float) -> None:
        conns = {
            handle.conn: handle
            for handle in self.workers
            if handle.rank in self.ring.members
        }
        if not conns:
            return
        try:
            ready = multiprocessing.connection.wait(
                list(conns), timeout=timeout
            )
        except OSError:  # a connection died mid-wait
            ready = [c for c in conns if self._poll_safe(c)]
        for conn in ready:
            handle = conns[conn]
            while self._poll_safe(conn):
                try:
                    ack = conn.recv()
                except (EOFError, OSError):
                    break
                self._on_ack(handle.rank, ack)

    @staticmethod
    def _poll_safe(conn) -> bool:
        try:
            return conn.poll(0)
        except (OSError, EOFError):
            return False

    def _on_ack(self, worker: int, ack: Ack) -> None:
        if not isinstance(ack, Ack):
            return
        rec = self._inflight.get(ack.msg_id)
        if rec is None:
            self.stats.dup_acks += 1  # already acked, or re-homed away
            return
        if self.chaos is not None and self.chaos.drop_ack(ack.msg_id):
            return  # chaos ate the receipt: retransmission will recover
        del self._inflight[ack.msg_id]
        self._per_worker_inflight[rec.worker] -= 1
        if self._outstanding.get(rec.oid) == ack.msg_id:
            self._outstanding[rec.oid] = None
        if ack.error is not None:
            raise DistError(
                f"worker {worker} failed msg {ack.msg_id} "
                f"(oid {rec.oid}):\n{ack.error}"
            )
        if ack.state is not None:
            entry = self.directory[rec.oid]
            entry.state = ack.state
            self.stats.bytes_replicated += len(ack.state)
        for toid, method, args, kwargs in ack.posts:
            self._enqueue_post(toid, method, args, kwargs)
            self.stats.posts_routed += 1
        self._absorb_events(worker, ack)
        self.stats.delivered += 1
        self._maybe_scheduled_kill()

    def _absorb_events(self, worker: int, ack: Ack) -> None:
        events = [decode_event(row) for row in ack.events]
        self.merger.feed(worker, events, watermark=ack.now or None)

    def _maybe_scheduled_kill(self) -> None:
        if self._kill_plan is None:
            return
        after, rank = self._kill_plan
        if self.stats.delivered >= after and rank in self.ring.members:
            self._kill_plan = None
            self.kill_worker(rank)

    def _check_retransmits(self) -> None:
        now = time.monotonic()
        for rec in list(self._inflight.values()):
            if now - rec.last_send >= self.rto_s:
                rec.last_send = now
                rec.sends += 1
                self.stats.retransmits += 1
                self._wire_send(rec.msg, rec.worker)

    def _check_liveness(self) -> None:
        for rank in sorted(self.ring.members):
            if not self.workers[rank].alive:
                self._rehome(rank)

    def _rehome(self, dead: int) -> None:
        """Absorb a worker death: move its shard, requeue its unacked work.

        Survivors are untouched — no rollback, no replay.  See
        :mod:`repro.dist.recovery` for the correctness argument.
        """
        # First drain any ACKs the dead worker managed to write before
        # dying: work it acked is *done* and must not be redelivered.
        conn = self.workers[dead].conn
        while self._poll_safe(conn):
            try:
                ack = conn.recv()
            except (EOFError, OSError):
                break
            self._on_ack(dead, ack)
        self.recovery.on_worker_death(dead, survivors=len(self.ring) - 1)
        self.ring.remove(dead)
        self.merger.close(dead)
        # Unacked in-flight work addressed to the dead worker.  Its
        # effects died unacked, so redelivery is exactly-once in effect.
        lost: dict[int, Any] = {}
        for msg_id, rec in list(self._inflight.items()):
            if rec.worker != dead:
                continue
            del self._inflight[msg_id]
            self._per_worker_inflight[dead] -= 1
            if self._outstanding.get(rec.oid) == msg_id:
                self._outstanding[rec.oid] = None
            # A lost Create is superseded by the re-home Create below.
            if not isinstance(rec.msg, Create):
                lost[rec.oid] = rec.msg
        moved = 0
        requeued = 0
        for oid, entry in self.directory.items():
            if entry.home != dead:
                continue
            entry.home = self.ring.assign(oid)
            moved += 1
            queue = self._pending.setdefault(oid, deque())
            if oid in lost:
                queue.appendleft(lost.pop(oid))
                requeued += 1
            # The Create jumps the queue: the new home must hold the
            # object before any redelivered or pending message lands.
            queue.appendleft(Create(
                self._msg_ids.allocate(), oid, entry.cls_path, entry.state
            ))
        self.recovery.record(dead, moved, requeued)
        self.stats.rehomes += 1
        self.stats.moved_objects += moved
