"""The control layer: delivery, queue ordering, location, termination.

The control layer (paper §II.D) delivers messages, orders the processing
of per-object message queues, and detects the global termination condition
("when no message handlers are executing and no messages are being
delivered the run-time system detects a termination condition").

Two halves.  :class:`TerminationDetector` and :class:`ReadyQueue` are
plain data structures.  The functions below them are the layer's
mechanism on the discrete-event substrate: routing through the
distributed directory (lazy-update forwarding), wire sends and their
aggregation, local enqueueing, collect and fanout multicast, migration,
and barrier-idle tracking.  They take the runtime ``rt`` (and per-node
state ``nrt``) explicitly and reach the out-of-core mechanism only
through :mod:`repro.core.spill` — imports go one way, computing ->
control -> spill -> ooc / storage.  Generator functions are DES process
bodies: the order of their engine calls *is* the virtual schedule.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.core.messages import Message, MulticastMessage
from repro.core.spill import (
    evict_all,
    install,
    load_blocking,
    pack_local,
    rehydrate,
)
from repro.util.errors import MRTSError, OutOfMemory

__all__ = [
    "TerminationDetector",
    "ReadyQueue",
    "route",
    "post_message",
    "send",
    "send_proc",
    "make_sink",
    "arrive",
    "dispatch_outbox",
    "emit_service_updates",
    "enqueue_local",
    "note_work_arrived",
    "note_maybe_idle",
    "route_multicast",
    "fanout_multicast",
    "multicast_proc",
    "multicast_collect",
    "migrate_proc",
    "migrate_and_done",
]

_SERVICE_MSG_BYTES = 64


class TerminationDetector:
    """Counts outstanding work items; fires a callback at quiescence.

    An item is outstanding from the moment a message is posted (or a
    handler starts for other reasons) until its processing fully completes.
    Because posting inside a handler increments before the handler's own
    decrement, the count can only reach zero when no work exists anywhere —
    the classic credit-based termination argument, exact in a single
    address space.
    """

    def __init__(self, on_quiescent: Optional[Callable[[], None]] = None):
        self._outstanding = 0
        self._total = 0
        self._on_quiescent = on_quiescent
        self._started = False

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def total_items(self) -> int:
        return self._total

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("use done() to retire work")
        self._outstanding += n
        self._total += n
        self._started = True

    def done(self, n: int = 1) -> None:
        self._outstanding -= n
        if self._outstanding < 0:
            raise RuntimeError("termination counter went negative")
        if self._outstanding == 0 and self._started and self._on_quiescent:
            self._on_quiescent()

    @property
    def quiescent(self) -> bool:
        return self._started and self._outstanding == 0


class ReadyQueue:
    """Per-node ordering of mobile objects with deliverable messages.

    Objects are served FIFO by first-message arrival, after priority
    boosts and the in-core preference — the paper's control layer
    "decides the order in which message queues of local mobile objects
    are processed"; ONUPDR's §III optimization reorders by in-core buffer
    availability, which the application expresses through priorities
    (see the runtime's ``boost`` parameter).

    The queue is indexed: each member carries a cached scheduling key in a
    lazy min-heap, and mutations (push, boost, residency change) only
    *touch* the member so its key is recomputed at the next pop.  A pop
    validates the apparent winner's cached key against a live recompute —
    a mismatch (e.g. its message queue drained while it waited) restamps
    the entry and retries.  Keys can only *improve* through a touched
    mutation, so a validated winner is the true maximum; the linear scan
    this replaces survives verbatim in the property-test oracle
    (``tests/test_ready_queue_index.py``).

    ``_entries`` is only ever appended to (with the next ``seq``) and
    deleted from, and a dict keeps insertion order: iterating it *is*
    FIFO arrival order, which is what ``snapshot`` returns without a sort.
    """

    def __init__(self) -> None:
        # oid -> [seq, stamp, cached_key]; seq is FIFO arrival order,
        # stamp matches the entry's current heap node (stale nodes skip).
        self._entries: dict[int, list] = {}
        self._heap: list[tuple] = []
        self._touched: set[int] = set()
        self._boost: dict[int, float] = {}
        self._seq = 0
        self._clock = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def push(self, oid: int) -> None:
        """Mark the object ready (idempotent)."""
        if oid not in self._entries:
            self._seq += 1
            self._entries[oid] = [self._seq, -1, None]
        # Even for an existing member the queue length just grew, which
        # can change a speculation-mode key.
        self._touched.add(oid)

    def boost(self, oid: int, amount: float) -> None:
        """Scheduling hint: raise the object's service preference."""
        self._boost[oid] = self._boost.get(oid, 0.0) + amount
        if oid in self._entries:
            self._touched.add(oid)

    def note_resident(self, oid: int, resident: bool = True) -> None:
        """Residency change notification from the out-of-core layer.

        The in-core preference is part of the scheduling key, so a load
        or eviction must invalidate the member's cached key.
        """
        if oid in self._entries:
            self._touched.add(oid)

    def snapshot(self) -> list[int]:
        """Member oids in FIFO arrival order (read-only view).

        Public replacement for reaching into queue internals — the
        prefetcher uses it to see what is coming up.
        """
        return list(self._entries)

    # Min-heap key: negate the oracle's max-key components so that the
    # heap minimum is the scan maximum; seq ascending breaks ties the
    # same way the oracle's -idx does.  ``spec_only`` (PR 9) demotes
    # objects whose queues hold only speculative messages below *all*
    # real work, so speculation only ever fills otherwise-idle slots;
    # with speculation off the component is a constant and the ordering
    # is byte-identical to before.
    def _live_key(
        self,
        oid: int,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]],
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> tuple:
        in_core = resident is not None and resident(oid)
        # Speculation mode (PR 9): a non-resident object costs a demand
        # load to serve, so prefer the one with the deepest queue — the
        # load amortizes over more messages, and objects with thin queues
        # wait for their batch to build up while resident/busier peers
        # run.  Deferral only; nothing is ever refused, so termination is
        # unaffected.
        batch = -queue_len(oid) if spec_only is not None and not in_core else 0
        return (
            -self._boost.get(oid, 0.0),
            1 if (spec_only is not None and spec_only(oid)) else 0,
            0 if in_core else 1,
            batch,
            self._entries[oid][0],
        )

    def _restamp(
        self,
        oid: int,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]],
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> None:
        entry = self._entries[oid]
        key = self._live_key(oid, queue_len, resident, spec_only)
        self._clock += 1
        entry[1] = self._clock
        entry[2] = key
        heapq.heappush(self._heap, (key, self._clock, oid))

    def pop(
        self,
        queue_len: Callable[[int], int],
        resident: Optional[Callable[[int], bool]] = None,
        spec_only: Optional[Callable[[int], bool]] = None,
    ) -> int:
        """Choose the next object to serve.

        ``queue_len(oid)`` reports current pending messages; objects whose
        queue emptied since being marked ready are skipped.  ``resident``
        (when provided) implements the control layer's in-core preference:
        serve loaded objects before paying a disk load for spilled ones —
        the decision the paper describes as influencing swapping ("the
        input from the control layer influences the swapping decisions").
        ``spec_only`` (when provided) reports whether an object's queue
        holds nothing but speculative messages; such objects are served
        after every object with real work (speculation is stall filler).
        """
        for oid in self._touched:
            if oid in self._entries:
                self._restamp(oid, queue_len, resident, spec_only)
        self._touched.clear()
        while self._entries:
            if not self._heap:  # pragma: no cover - defensive resync
                for oid in list(self._entries):
                    self._restamp(oid, queue_len, resident, spec_only)
            key, stamp, oid = heapq.heappop(self._heap)
            entry = self._entries.get(oid)
            if entry is None or entry[1] != stamp:
                continue  # stale node for a popped/restamped member
            live = self._live_key(oid, queue_len, resident, spec_only)
            if live != key:
                # Key drifted without a touch (queue drained in place):
                # reinsert with the live key and keep looking.
                self._restamp(oid, queue_len, resident, spec_only)
                continue
            del self._entries[oid]
            self._boost.pop(oid, None)
            if queue_len(oid) > 0:
                return oid
        raise IndexError("pop from empty ready queue")


# ================================================================= messaging
def route(rt, msg: Message, from_node: int) -> tuple[int, bool]:
    """Where a point-to-point message leaving ``from_node`` goes.

    Returns ``(dest, local)``: the directory's answer for the sender, and
    whether that is a same-node delivery — the hint says "here" *and* the
    object really is here (a stale "here" must still take the forwarding
    path).
    """
    oid = msg.target.oid
    dest = rt.directory.lookup(
        oid, max(from_node, 0), default=msg.target.last_known_node
    )
    return dest, dest == from_node and rt.directory.truth.get(oid) == from_node


def post_message(rt, msg: Message | MulticastMessage, from_node: int) -> None:
    rt.termination.add(1)
    if isinstance(msg, MulticastMessage):
        route_multicast(rt, msg, from_node)
        return
    dest, local = route(rt, msg, from_node)
    if local:
        enqueue_local(rt, rt.nodes[from_node], msg)
    else:
        send(rt, from_node, dest, msg, path=[])


def send(
    rt, src: int, dst: int, msg: Message | MulticastMessage, path: list[int]
) -> None:
    payload = ("msg", msg, path + [src] if src >= 0 else path)
    rt.engine.process(
        send_proc(rt, max(src, 0), dst, msg.nbytes(), payload),
        name=f"send[{msg.handler}]",
    )


def send_proc(rt, src: int, dst: int, nbytes: int, payload):
    network = rt.cluster.network
    start = rt.engine.now
    yield from network.send(src, dst, nbytes, payload)
    # Comm cost = sender-side serialization overhead (service) and the
    # wait-inclusive span; same-node sends bypass the NIC entirely.
    service = span = 0.0
    if src != dst:
        service = network.send_overhead(nbytes)
        span = rt.engine.now - start
    rt.ledger.send(src, dst, nbytes, start, service, span, src != dst)


def make_sink(rt, rank: int) -> Callable[[int, Any], None]:
    """The network sink of ``rank``: what the NIC hands arrivals to."""

    def sink(source: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "svc":
            return  # directory service / migration byte carrier: no handler
        if kind == "batch":
            _, msgs, path = payload
            for msg in msgs:
                arrive(rt, rank, msg, list(path))
            return
        _, msg, path = payload
        arrive(rt, rank, msg, path)

    return sink


def arrive(rt, rank: int, msg, path: list[int]) -> None:
    """A message landed on ``rank``: deliver locally or forward."""
    rt.ledger.count(rank, "messages_received")
    oid = msg.target.oid if isinstance(msg, Message) else msg.targets[0].oid
    if rt.directory.truth.get(oid) == rank:
        updates = rt.directory.arrived(oid, path)
        emit_service_updates(rt, rank, path, updates)
        enqueue_local(rt, rt.nodes[rank], msg)
    else:
        # Stale hint: forward along the directory chain.
        nxt = rt.directory.next_hop(oid, rank)
        if isinstance(msg, Message):
            msg.hops += 1
        send(rt, rank, nxt, msg, path)


def dispatch_outbox(rt, outbox, from_node: int) -> None:
    """Send a handler's produced messages, aggregating when configured.

    With ``config.message_aggregation > 1``, messages bound for the
    same destination node travel as one wire transfer of up to that
    many messages — the PCDM optimization ("asynchronous small messages
    which can be aggregated to minimize startup overheads").  Local
    deliveries and multicasts are never batched.
    """
    limit = rt.config.message_aggregation
    if limit <= 1:
        for msg in outbox:
            post_message(rt, msg, from_node)
        return
    by_dest: dict[int, list[Message]] = {}
    for msg in outbox:
        if isinstance(msg, MulticastMessage):
            post_message(rt, msg, from_node)
            continue
        dest, local = route(rt, msg, from_node)
        if local:
            rt.termination.add(1)
            enqueue_local(rt, rt.nodes[from_node], msg)
        else:
            msg.source_node = from_node
            by_dest.setdefault(dest, []).append(msg)
    for dest, msgs in sorted(by_dest.items()):
        for i in range(0, len(msgs), limit):
            chunk = msgs[i : i + limit]
            rt.termination.add(len(chunk))
            # One wire header amortized over the batch.
            nbytes = sum(m.nbytes() for m in chunk) - 48 * (len(chunk) - 1)
            rt.engine.process(
                send_proc(
                    rt, from_node, dest, nbytes,
                    ("batch", chunk, [from_node]),
                ),
                name=f"send-batch[{len(chunk)}]",
            )


def emit_service_updates(rt, rank: int, path: list[int], updates: int) -> None:
    """Send the lazy-update corrections as real (tiny) network messages."""
    for node in path[:updates]:
        if node == rank or node < 0:
            continue
        rt.engine.process(
            send_proc(rt, rank, node, _SERVICE_MSG_BYTES, ("svc",)),
            name="svc-update",
        )


def enqueue_local(rt, nrt, msg: Message | MulticastMessage) -> None:
    if isinstance(msg, MulticastMessage):
        route_multicast(rt, msg, nrt.rank)
        return
    oid = msg.target.oid
    rec = nrt.locals.get(oid)
    if rec is None:
        # Object migrated away between routing decisions; re-route.
        rt.termination.add(1)
        send(rt, nrt.rank, rt.directory.next_hop(oid, nrt.rank), msg, [])
        rt.termination.done(1)
        return
    note_work_arrived(rt, nrt)
    nrt.queued_msgs += 1
    rec.queue.push(msg)
    nrt.ooc.set_queue_length(oid, len(rec.queue))
    msg.target.queued_messages = len(rec.queue)
    nrt.ready.push(oid)
    nrt.tokens.put(oid)
    rt.ledger.queue_depth(nrt.rank, oid, len(rec.queue))


# ----------------------------------------------------- barrier-idle tracking
def note_work_arrived(rt, nrt) -> None:
    """Work reached an idle node: close its barrier-idle interval."""
    if nrt.idle_since is not None:
        rt.ledger.count(
            nrt.rank, "barrier_idle_s", rt.engine.now - nrt.idle_since)
        nrt.idle_since = None


def note_maybe_idle(rt, nrt) -> None:
    """A handler or queue drain finished: open an idle interval if the
    node now has nothing running and nothing queued (the global-sync
    stall the speculation layer exists to fill)."""
    if (
        nrt.idle_since is None
        and nrt.active_handlers == 0
        and nrt.queued_msgs == 0
    ):
        nrt.idle_since = rt.engine.now


# ================================================================= multicast
def route_multicast(rt, msg: MulticastMessage, from_node: int) -> None:
    """Collect all target objects on the first target's node, then deliver."""
    if msg.mode == "fanout":
        fanout_multicast(rt, msg, from_node)
        return
    gather = rt.directory.location(msg.targets[0].oid)
    rt.engine.process(
        multicast_proc(rt, msg, gather), name=f"mcast[{msg.handler}]"
    )


def fanout_multicast(rt, msg: MulticastMessage, from_node: int) -> None:
    """Deliver to ALL targets: one aggregated wire send per node.

    The ghost-exchange push shape (Holke et al.): the payload is
    identical for every subscriber, so it travels once per destination
    node — ``48 + 16 * |local targets| + payload`` bytes — instead of
    once per target.  Each sub-message then takes the normal arrival
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
        dest = rt.directory.lookup(
            ptr.oid, src, default=ptr.last_known_node
        )
        by_dest.setdefault(dest, []).append(sub)
    payload_nbytes = msg.payload_nbytes()
    for dest, subs in sorted(by_dest.items()):
        rt.termination.add(len(subs))
        if dest == from_node:
            # Local fan-in: no wire transfer, deliver (or re-route on a
            # stale hint) through the normal local path.
            for sub in subs:
                enqueue_local(rt, rt.nodes[dest], sub)
            continue
        rt.ledger.count(src, "multicast_sends")
        nbytes = 48 + 16 * len(subs) + payload_nbytes
        rt.engine.process(
            send_proc(rt, src, dest, nbytes, ("batch", subs, [from_node])),
            name=f"mcast-fanout[{msg.handler}]",
        )
    rt.termination.done(1)  # the multicast envelope itself


def multicast_proc(rt, msg: MulticastMessage, gather: int):
    nrt = rt.nodes[gather]
    yield nrt.mcast_slot.acquire()
    try:
        yield from multicast_collect(rt, msg, gather, nrt)
    finally:
        nrt.mcast_slot.release()
    rt.termination.done(1)  # the multicast envelope itself


def multicast_collect(rt, msg: MulticastMessage, gather: int, nrt):
    # Collect members in GLOBAL OID ORDER: concurrent multicasts
    # competing for shared members then acquire their pins in the same
    # order, which rules out circular waits (classic lock ordering).
    locked: list[int] = []
    try:
        for ptr in sorted(msg.targets, key=lambda p: p.oid):
            oid = ptr.oid
            stalls = 0
            while True:
                where = rt.directory.location(oid)
                if where != gather:
                    yield from migrate_proc(rt, oid, where, gather)
                    continue  # re-check: someone may have moved it again
                if not nrt.ooc.is_resident(oid):
                    yield from load_blocking(rt, nrt, oid)
                # The object may have migrated away during the load.
                if rt.directory.location(oid) == gather and \
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
                yield rt.engine.timeout(1e-6)
        # Deliver to the first deliver_count targets as ordinary local
        # messages (they execute through the normal worker path).
        for ptr in msg.targets[: msg.deliver_count]:
            sub = Message(
                ptr, msg.handler, msg.args, dict(msg.kwargs),
                source_node=msg.source_node,
            )
            rt.termination.add(1)
            enqueue_local(rt, nrt, sub)
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
            yield rt.engine.timeout(1e-6)
    finally:
        for oid in locked:
            if oid in nrt.ooc.table:
                nrt.ooc.unlock(oid)


# ================================================================= migration
def migrate_and_done(rt, oid: int, src: int, dst: int):
    """Process body: one move that retires the credit its caller took."""
    yield from migrate_proc(rt, oid, src, dst)
    rt.termination.done(1)


def _can_move(nrt, oid: int, rec) -> bool:
    """Present, loaded, idle and unpinned — only then may an object move."""
    return (
        rec is not None
        and rec.obj is not None
        and rec.in_flight == 0
        and not (oid in nrt.ooc.table and nrt.ooc.is_locked(oid))
    )


def migrate_proc(rt, oid: int, src: int, dst: int):
    """Move an object: charge the transfer, then swap atomically.

    The object keeps serving messages at the source while its bytes are
    "on the wire" (pre-copy style); the actual state capture and
    installation happen in one event, which removes any window in which
    the object exists nowhere (messages can never be lost or looped).
    """
    nrt = rt.nodes[src]
    rec = nrt.locals.get(oid)
    if rec is None:
        return  # already moved (racing multicasts)
    if rec.obj is None:
        yield from load_blocking(rt, nrt, oid)
    modeled = nrt.ooc.table[oid].nbytes
    # Charge the wire time for the object's bytes.
    network = rt.cluster.network
    xfer_start = rt.engine.now
    yield from network.send(src, dst, modeled + 64, ("svc",))
    if src != dst:
        # No PE waits on a migration: the span is the service time.
        overhead = network.send_overhead(modeled + 64)
        rt.ledger.send(src, dst, modeled, xfer_start, overhead, overhead)
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
            yield from load_blocking(rt, nrt, oid)
            continue
        if _can_move(nrt, oid, rec):
            break
        stalls += 1
        if stalls > 1_000_000:
            raise MRTSError(
                f"migration of object {oid} starved "
                "(permanently locked?)"
            )
        yield rt.engine.timeout(1e-6)
    # Reserve room at the destination *first* (patiently: pinned
    # residents may hold all its memory until their handlers drain).
    # Only once space is secured does the object leave the source, so
    # it is addressable somewhere at every instant.
    dst_nrt = rt.nodes[dst]
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
            yield rt.engine.timeout(1e-6)
    # Re-validate the source after the wait; release the reservation
    # if we lost the race.
    rec = nrt.locals.get(oid)
    if not _can_move(nrt, oid, rec):
        dst_nrt.ooc.forget(oid)
        if rec is not None:
            # Try again from the top conditions.
            yield from migrate_proc(rt, oid, src, dst)
        return
    evict_all(rt, dst_nrt, victims)
    dst_nrt.ooc.confirm_admit(oid)
    if rt.speculation is not None:
        # The state capture below must ship pre-speculation bytes:
        # abort restores the snapshot and folds the speculated
        # messages back into rec.queue, so they travel with the move.
        # No yield separates this from the swap, so no new
        # speculation can begin in between.
        rt.speculation.abort_if_pending(oid)
    # ---- atomic swap ----
    rec.obj.on_unregister(src)
    data = pack_local(rt, rec, nrt.rank)
    queue = rec.queue
    del nrt.locals[oid]
    # An idle worker may still hold this record from the last message it
    # served; the instance must not outlive the move through it.
    rec.obj = None
    nrt.prefetched.discard(oid)
    nrt.ooc.forget(oid)
    nrt.storage.delete(oid)
    # The destination residency starts dirty (its storage has no copy
    # yet) but the clone's pack cache is warm: first spill packs free.
    install(
        rt, dst_nrt, oid, rehydrate(rt, oid, [data]),
        queue=queue, pack_cache=data,
    )
    rt.pointers[oid].last_known_node = dst
    svc = rt.directory.migrated(oid, dst)
    emit_service_updates(rt, src, [src], svc)
    rt.ledger.migrate(src, oid, dst, current)
    if queue:
        nrt.queued_msgs -= len(queue)
        note_maybe_idle(rt, nrt)
        note_work_arrived(rt, dst_nrt)
        dst_nrt.queued_msgs += len(queue)
        dst_nrt.ooc.set_queue_length(oid, len(queue))
        dst_nrt.ready.push(oid)
        for _ in range(len(queue)):
            dst_nrt.tokens.put(oid)
