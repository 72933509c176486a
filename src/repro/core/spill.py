"""Out-of-core mechanism: moving mobile objects between core and storage.

:mod:`repro.core.ooc` is the out-of-core *policy* — which objects must
go, what fits, what is pinned — and needs no engine.  This module is the
*mechanism* the paper's out-of-core layer drives on the discrete-event
substrate: the node-local record of an object, the dirty-aware spill and
its write-behind queue, the single-flight blocking load, batched
prefetch, and post-handler growth accounting.

Every function takes the runtime ``rt`` (and usually the per-node state
``nrt``) explicitly; nothing here imports :mod:`repro.core.runtime`,
:mod:`repro.core.control` or :mod:`repro.core.computing` — imports go one
way, computing -> control -> spill -> ooc / storage.  Generator functions
are DES process bodies: the order of their engine calls *is* the virtual
schedule.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.core.messages import MessageQueue
from repro.core.mobile import MobileObject, revive
from repro.util.errors import CorruptObject, MRTSError, OutOfMemory

#: Delta-spill compaction bounds: a full re-store once an object's
#: append-log holds this many frames, or (real payloads only; modeled
#: stand-ins compact on frame count alone) once the log's payload bytes
#: exceed this multiple of the base segment.
DELTA_LOG_FRAMES_MAX = 8
DELTA_COMPACT_FACTOR = 2.0

__all__ = [
    "LocalObject",
    "WriteBehind",
    "obj_nbytes",
    "pack_local",
    "bind_dirty",
    "rehydrate",
    "admit",
    "install",
    "rebaseline",
    "evict_now",
    "evict_all",
    "store_spill",
    "disk_xfer",
    "load_blocking",
    "install_loaded",
    "canonical_payload",
    "issue_prefetch",
    "prefetch_batch_proc",
    "resize_resident",
    "account_growth",
]


@dataclass
class LocalObject:
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


class WriteBehind:
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

    def __init__(self, rt, rank: int) -> None:
        self.rt = rt
        self.rank = rank
        self.pending: dict[int, Any] = {}  # oid -> completion SimEvent

    def submit(self, oid: int, nbytes: int) -> None:
        """Queue the virtual disk charge for a store that already happened."""
        done = self.rt.engine.event()
        self.pending[oid] = done
        self.rt.engine.process(
            self._drain(oid, nbytes, done), name=f"write-behind[{oid}]"
        )

    def _drain(self, oid: int, nbytes: int, done):
        try:
            yield from disk_xfer(
                self.rt, self.rank, nbytes, is_store=True, blocking=False
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


# ============================================================ size and pack
def obj_nbytes(rt, rec: LocalObject, rank: Optional[int] = None) -> int:
    """Size of a local record's object, without packing when possible.

    Resolution order: cost-model override (modeled apps), subclass
    ``nbytes`` override (cheap exact size), the serializer's
    :meth:`~repro.core.mobile.Serializer.size_estimate` (pack-free),
    and only then pack-to-measure — whose bytes are kept in
    ``rec.pack_cache`` so a following spill does not serialize the
    same state again.
    """
    obj = rec.obj
    n = rt.cost_model.object_nbytes(obj)
    if n is not None:
        return n
    if type(obj).nbytes is not MobileObject.nbytes:
        return obj.nbytes()  # subclass with its own (cheap) size
    est = obj.serializer.size_estimate(obj.get_state())
    if est is not None:
        return max(est, 1)
    return max(len(pack_local(rt, rec, rank)), 1)


def pack_local(rt, rec: LocalObject, rank: Optional[int] = None) -> bytes:
    """Serialize via the per-residency cache (at most once per epoch)."""
    if rec.pack_cache is None:
        wall0 = _time.perf_counter()
        rec.pack_cache = rec.obj.pack()
        if rank is not None:
            rt.ledger.pack(
                rank, "pack", _time.perf_counter() - wall0,
                len(rec.pack_cache),
            )
    return rec.pack_cache


def bind_dirty(nrt, oid: int, obj: MobileObject) -> None:
    """Install the dirty hook: object mutation -> residency + cache.

    ``mark_dirty()`` hands the hook the instance it fired on, and the
    hook only goes through to the layers while that is the node's
    current in-core instance — a stale reference held after a spill or
    migration cannot corrupt the residency dirty bit.  The hook closes
    over ``(nrt, oid)`` and never over ``obj``: the node's record is then
    the only owner of an in-core instance, so ``rec.obj = None`` frees it
    on the spot instead of leaving a cycle for the collector.
    """

    def on_dirty(fired: MobileObject) -> None:
        rec = nrt.locals.get(oid)
        if rec is not None and rec.obj is fired:
            rec.pack_cache = None
            nrt.ooc.mark_dirty(oid)

    obj._dirty_cb = on_dirty


# ================================================= putting an object on a node
def rehydrate(rt, oid: int, segments: list) -> MobileObject:
    """A fresh instance of ``oid``'s class holding the packed state."""
    return revive(rt.object_class(oid), rt.pointers[oid], segments)


def admit(rt, nrt, oid: int, nbytes: int) -> None:
    """Make room for a new resident of ``nbytes`` and account it.

    Synchronous bookkeeping; the disk time for forced evictions drains
    through write-behind, so admission never blocks the caller.
    """
    evict_all(rt, nrt, nrt.ooc.admit(oid, nbytes))
    nrt.ooc.confirm_admit(oid)


def install(
    rt, nrt, oid: int, obj: MobileObject, *,
    queue: Optional[MessageQueue] = None,
    pack_cache: Optional[bytes] = None,
) -> LocalObject:
    """Make ``obj`` the in-core instance of ``oid`` on ``nrt``.

    The one way an instance lands on a node — created, loaded, migrated
    in, restored from a checkpoint or rolled back by speculation: the
    node's record (a new one carrying ``queue``, or the one already
    there), the pack cache (``pack_cache`` is the packed form of exactly
    this state, when the caller has it), the dirty hook, ``on_register``.
    Residency accounting is the caller's, since it differs: admission
    for a newcomer, ``confirm_load`` for a reload, a resize for a
    rollback.
    """
    rec = nrt.locals.get(oid)
    if rec is None:
        rec = nrt.locals[oid] = LocalObject(
            obj=obj, queue=queue if queue is not None else MessageQueue()
        )
    else:
        rec.obj = obj
    rec.pack_cache = pack_cache
    bind_dirty(nrt, oid, obj)
    obj.on_register(nrt.rank)
    return rec


def rebaseline(rec: LocalObject, nbytes: int) -> None:
    """The medium holds one full frame of ``nbytes`` and no delta log.

    Without a token the next dirty spill is a full store; a caller whose
    stored frame equals the in-core state sets ``stored_token`` after.
    """
    rec.stored_token = None
    rec.log_frames = 1
    rec.base_payload_bytes = nbytes
    rec.log_payload_bytes = 0


def _delta_capable(rt, nrt, obj: MobileObject) -> bool:
    return (
        rt.config.delta_spills
        and obj.serializer.supports_delta
        and nrt.frame_layer is not None
    )


# ==================================================================== spill
def evict_now(rt, nrt, oid: int) -> None:
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
        charge = store_spill(rt, nrt, rec, oid, modeled)
    rec.obj = None
    rec.pack_cache = None
    nrt.ooc.confirm_evict(oid)
    nrt.ready.note_resident(oid, False)
    if oid in nrt.prefetched:
        # Prefetched bytes evicted before any worker touched them.
        nrt.prefetched.discard(oid)
        rt.ledger.prefetch(nrt.rank, oid, "wasted")
    rt.ledger.evict(nrt.rank, oid, modeled, not dirty, nrt.ooc.memory_used)
    if dirty:
        nrt.write_behind.submit(oid, charge)


def evict_all(rt, nrt, victims: Iterable[int]) -> int:
    """Spill each victim that is still here and in core; returns how many.

    A plan can be older than the state it is applied to (another evictor
    got there first, the object left), so membership is re-checked per
    victim; for a plan made and applied synchronously the check is
    vacuous.
    """
    evicted = 0
    for victim in victims:
        rec = nrt.locals.get(victim)
        if rec is not None and rec.obj is not None:
            evict_now(rt, nrt, victim)
            evicted += 1
    return evicted


def store_spill(rt, nrt, rec: LocalObject, oid: int, modeled: int) -> int:
    """Persist a dirty object's state; returns the virtual disk charge.

    Delta path (serializer declares the payload append-mostly, a
    current stored base exists, and the append-log has room): pack
    only what grew since the recorded token and append it as one
    delta frame.  Modeled objects charge the modeled *growth*; real
    objects charge the post-compression appended bytes.  Full path:
    store the whole pack and charge the modeled size, exactly as
    before delta spills existed.  Compaction (a forced full store)
    triggers on ``DELTA_LOG_FRAMES_MAX`` for everyone and
    additionally on ``DELTA_COMPACT_FACTOR`` for real payloads,
    bounding both reassembly work and log bloat.
    """
    obj = rec.obj
    ser = obj.serializer
    pf = nrt.packfile
    if pf is not None:
        # Push the object's curve position down to the pack layout so
        # this spill lands in its neighborhood's segment.
        pf.note_locality(oid, obj.locality_key())
    delta_capable = _delta_capable(rt, nrt, obj)
    payload = None
    if (
        delta_capable
        and rec.stored_token is not None
        and rec.log_frames < DELTA_LOG_FRAMES_MAX
    ):
        wall0 = _time.perf_counter()
        payload = ser.pack_delta(obj.get_state(), rec.stored_token)
        if payload is not None:
            rt.ledger.pack(
                nrt.rank, "pack", _time.perf_counter() - wall0, len(payload)
            )
    is_modeled = rt.cost_model.object_nbytes(obj) is not None
    if (
        payload is not None
        and not is_modeled
        and rec.log_payload_bytes + len(payload)
        > DELTA_COMPACT_FACTOR * max(rec.base_payload_bytes, 1)
    ):
        payload = None  # log outgrew its base: compact via full store
    if payload is not None:
        nrt.storage.append(oid, payload)
        rec.log_frames += 1
        rec.log_payload_bytes += len(payload)
        rec.stored_token = ser.delta_token(obj.get_state())
        stored = _last_stored_len(nrt, len(payload))
        if is_modeled:
            charge = max(modeled - rec.stored_modeled, 1)
        else:
            charge = max(stored, 1)
        rt.ledger.spill(nrt.rank, oid, "delta", len(payload), stored)
    else:
        data = pack_local(rt, rec, nrt.rank)
        nrt.storage.store(oid, data)
        rebaseline(rec, len(data))
        if delta_capable:
            rec.stored_token = ser.delta_token(obj.get_state())
        stored = _last_stored_len(nrt, len(data))
        charge = modeled
        rt.ledger.spill(nrt.rank, oid, "full", len(data), stored)
    rec.stored_modeled = modeled
    rt.stored_since_snapshot.add(oid)
    return charge


def _last_stored_len(nrt, fallback: int) -> int:
    """Payload bytes the last store/append actually put on the medium."""
    comp = nrt.compressor
    if comp is not None:
        return comp.last_stored_len
    frame = nrt.frame_layer
    if frame is not None:
        return frame.last_payload_len
    return fallback


def disk_xfer(rt, rank: int, nbytes: int, is_store: bool, blocking: bool):
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
    nrt = rt.nodes[rank]
    start = rt.engine.now
    if nrt.spill_server is not None:
        net = rt.cluster.network
        yield from net.send(rank, nrt.spill_server, nbytes, ("svc",))
        service = net.spec.latency + nbytes / net.spec.bandwidth
    else:
        node = rt.cluster[rank]
        yield from node.disk.transfer(nbytes)
        service = node.disk.service_time(nbytes)
    span = (rt.engine.now - start) if blocking else service
    rt.ledger.disk(rank, start, nbytes, is_store, blocking, service, span)


# ===================================================================== load
def load_blocking(rt, nrt, oid: int, background: bool = False):
    """Process body: bring ``oid`` in core, evicting victims first.

    ``background`` marks prefetch loads: no worker waits on them, so
    their disk time is attributed as service-only (see disk_xfer).

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
    engine = rt.engine
    blocking = not background
    while True:
        gate = nrt.loading.get(oid)
        if gate is None:
            break
        start = engine.now
        yield gate
        if blocking and engine.now > start:
            # The PE perceived this wait as disk time even though the
            # bytes were charged by the gate holder: record a
            # zero-byte wait-only span so the paper's Tables IV-VI
            # disk%/overlap% keep their wait-inclusive meaning.
            rt.ledger.load_wait(nrt.rank, start, engine.now - start)
        rec = nrt.locals.get(oid)
        if rec is None or rec.obj is not None:
            return  # the in-flight load delivered (or the object left)
    target = nrt.ooc.table.get(oid)
    if target is None:
        return  # destroyed/migrated while we waited on a gate
    gate = engine.event()
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
                yield engine.timeout(
                    min(1e-6 * (1.5 ** min(stalls, 50)), 1.0)
                )
                continue
            # Pipelined spill: bytes snapshot + memory release happen
            # now; the stores' disk time drains through the write-behind
            # queue concurrently with the target's read below instead of
            # serializing in front of it.  Victims pinned since the plan
            # was made stay; evict_all skips the ones another evictor
            # already took.
            unpinned = [
                v for v in victims
                if v in nrt.ooc.table and not nrt.ooc.is_locked(v)
            ]
            if (
                not evict_all(rt, nrt, unpinned)
                and nrt.ooc.memory_free < target.nbytes
            ):
                # Everything evictable is pinned right now; let
                # handlers finish and retry.
                yield engine.timeout(1e-6)
        rec = nrt.locals[oid]
        if rec.obj is not None:
            return  # someone else loaded it while we evicted
        modeled = nrt.ooc.table[oid].nbytes
        yield from disk_xfer(rt, nrt.rank, modeled, False, blocking)
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
            rt.ledger.corrupt(nrt.rank, oid)
            fallback = None
            if (
                rt.recovery_source is not None
                and oid not in rt.stored_since_snapshot
            ):
                fallback = rt.recovery_source(oid)
            if fallback is None:
                raise
            nrt.storage.store(oid, fallback)
            segments = [fallback]
            repaired = True
        install_loaded(rt, nrt, oid, segments, modeled, background, repaired)
    finally:
        if nrt.loading.get(oid) is gate:
            del nrt.loading[oid]
        gate.succeed()


def install_loaded(
    rt, nrt, oid: int, segments: list, modeled: int, background: bool,
    repaired: bool,
) -> None:
    """Unpack transferred bytes and confirm residency (load tail).

    Shared by the demand path (:func:`load_blocking`) and the
    batched prefetch path, which charges one transfer for a whole
    neighborhood and then installs each member through here.
    """
    wall0 = _time.perf_counter()
    obj = rehydrate(rt, oid, segments)
    rt.ledger.pack(
        nrt.rank, "unpack", _time.perf_counter() - wall0,
        sum(len(s) for s in segments),
    )
    nrt.ooc.confirm_load(oid)
    # A single loaded segment *is* the pack of the current state:
    # start the residency epoch clean with a warm pack cache.  An
    # append-log reassembly has no single-blob equivalent.
    rec = install(
        rt, nrt, oid, obj,
        pack_cache=segments[0] if len(segments) == 1 else None,
    )
    if repaired:
        # The repair rewrote a full (possibly older) copy: the delta
        # bookkeeping no longer describes the medium.  Force the next
        # dirty spill to re-baseline with a full store.
        rebaseline(rec, len(segments[0]))
    elif _delta_capable(rt, nrt, obj):
        # The stored copy equals the loaded state: refresh the token
        # so the next dirty spill appends only post-load growth.
        rec.stored_token = obj.serializer.delta_token(obj.get_state())
    nrt.ready.note_resident(oid, True)
    rt.ledger.load(
        nrt.rank, oid, modeled, background, nrt.ooc.memory_used)
    if rt.predictor is not None and not background:
        # The predictor learns from demand loads only — the same stream
        # the bus carries, fed directly so that learning does not need a
        # subscription (instrumentation stays pay-for-use).
        rt.predictor.observe(nrt.rank, oid)


def canonical_payload(rt, nrt, oid: int) -> bytes:
    """Full packed payload of an object's stored copy.

    A stored copy may be an append-log; checkpoints want one
    canonical full blob, so multi-segment logs are reassembled
    through the class serializer and re-packed.
    """
    segments = nrt.storage.load_segments(oid)
    if len(segments) == 1:
        return segments[0]
    ser = rt.object_class(oid).serializer
    return ser.pack(ser.unpack_segments(segments))


# ================================================================= prefetch
def issue_prefetch(rt, nrt, current: Optional[int] = None) -> None:
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
    cfg = rt.config
    if cfg.prefetch_depth == 0:
        return
    warm = cfg.neighborhood_warm if nrt.packfile is not None else 0

    def hints():
        ready = nrt.ready.snapshot()
        yield from ready
        seeds = ([] if current is None else [current]) + ready[:1]
        if rt.predictor is not None:
            predicted = rt.predictor.predict(
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
    rt.engine.process(
        prefetch_batch_proc(rt, nrt, batch),
        name=f"prefetch[{nrt.rank}:{batch[0]}+{len(batch) - 1}]",
    )


def prefetch_batch_proc(rt, nrt, batch: list[int]):
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
    try:
        for oid in batch:
            yield from nrt.write_behind.wait(oid)
        for oid in batch:
            rec = nrt.locals.get(oid)
            if rec is None or rec.obj is not None or oid in nrt.loading:
                continue  # delivered or contested while we waited
            gate = rt.engine.event()
            nrt.loading[oid] = gate
            claimed.append((oid, gate))
        # Advisory re-check: memory may have shrunk since the batch
        # was picked; keep only what still fits without eviction.
        fits = set(nrt.ooc.prefetch_candidates(
            [oid for oid, _ in claimed], limit=len(claimed)
        ))
        kept = [oid for oid, _ in claimed if oid in fits]
        if not kept:
            return
        for oid in kept:
            nrt.prefetched.add(oid)
            rt.ledger.prefetch(nrt.rank, oid, "issue")
        total = sum(nrt.ooc.table[oid].nbytes for oid in kept)
        yield from disk_xfer(
            rt, nrt.rank, total, is_store=False, blocking=False
        )
        try:
            found = nrt.storage.load_many(kept)
        except MRTSError:
            found = {}  # best-effort: the demand path handles repair
        for oid in kept:
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
                    rt.ledger.prefetch(nrt.rank, oid, "wasted")
                continue
            install_loaded(
                rt, nrt, oid, segments, target.nbytes,
                background=True, repaired=False,
            )
    finally:
        for oid, gate in claimed:
            if nrt.loading.get(oid) is gate:
                del nrt.loading[oid]
            gate.succeed()
        for oid in batch:
            nrt.prefetching.discard(oid)


# =================================================================== resize
def resize_resident(rt, nrt, oid: int, nbytes: int) -> None:
    """Re-account a resident object at ``nbytes``, spilling to make room.

    Growth beyond what eviction can cover is tolerated as a temporary
    budget overrun (the bytes already exist; concurrent pinned handlers
    can make room unreachable) — everything evictable is spilled and
    the layer recovers on the next cycle.
    """
    try:
        victims = nrt.ooc.resize(oid, nbytes)
    except OutOfMemory:
        victims = nrt.ooc.eviction_candidates(protect={oid})
        nrt.ooc.force_resize(oid, nbytes)
    evict_all(rt, nrt, victims)


def account_growth(rt, nrt, oid: int, hint: Optional[tuple] = None) -> None:
    """Re-account an object's size after a handler mutated it.

    ``hint`` is the handler context's growth report (``ctx.grew`` /
    ``ctx.report_size``) — pack-free accounting, consumed first;
    otherwise the size is probed through the estimator/pack path.
    """
    if hint is None:
        new_size = obj_nbytes(rt, nrt.locals[oid], nrt.rank)
    else:
        kind, n = hint
        base = 0 if kind == "abs" else nrt.ooc.table[oid].nbytes
        new_size = max(base + n, 1)
    resize_resident(rt, nrt, oid, new_size)
