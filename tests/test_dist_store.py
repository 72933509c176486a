"""In-process unit tests for the distributed store machinery.

Everything under :mod:`repro.dist` below the coordinator is
transport-agnostic (any object with ``send``/``recv``/``poll`` works), so
these tests drive the *same* classes the forked workers run — the shard
worker's one-node MRTS, the peer tier under the storage
stack, peer memory server/client, the worker's exactly-once control
loop, the event codec and the watermark merger — entirely in-process,
where coverage can see them.
"""

import itertools
import multiprocessing as mp
import random
import threading

import pytest

from repro.core import MobileObject, MRTSConfig, handler
from repro.core.mobile import MobilePointer, revive
from repro.core.remote_memory import MemoryPool
from repro.core.storage import MemoryBackend
from repro.dist import (
    PeerClient,
    PeerMemoryServer,
    PeerTier,
    ShardWorker,
    WireChaos,
    decode_event,
    encode_event,
)
from repro.dist.events import EVENT_TYPES, EventMerger
from repro.dist.runtime import DistRunStats
from repro.dist.store import class_path, resolve_class
from repro.dist.wire import Ack, Create, PeerOp, Post, Shutdown
from repro.obs.events import EvictEvent, EventBus, HandlerSpan, LoadEvent
from repro.testing.invariants import check_node_residency
from repro.testing.workloads import DeltaStormActor
from repro.util.errors import CorruptObject, ObjectNotFound


class Probe(MobileObject):
    """A small object with a payload and handlers for every ACK shape."""

    def __init__(self, ptr, size=2000):
        super().__init__(ptr)
        self.data = bytes(size)
        self.count = 0

    @handler
    def bump(self, ctx, k=1):
        self.count += k

    @handler
    def grow(self, ctx, nbytes):
        self.data += bytes(nbytes)

    @handler
    def grow_noise(self, ctx, nbytes, seed):
        """Grow by seeded random bytes, which compression cannot shrink."""
        self.data += random.Random(seed).randbytes(nbytes)

    @handler(readonly=True)
    def peek(self, ctx):
        pass

    @handler
    def spray(self, ctx, target_oid):
        ctx.post(MobilePointer(target_oid, 0), "bump", 2)

    @handler
    def boom(self, ctx):
        raise RuntimeError("boom")

    def plain(self, ctx):  # not a handler: posting it must fail
        pass


def probe(oid, size=2000):
    return Probe(MobilePointer(oid, 0), size=size)


class Sink:
    """A capture-only connection end for driving ShardWorker.handle."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


def make_worker(budget=50_000, client=None, config=None, conn=None):
    """A shard worker composed the way ``worker_main`` composes one.

    ~2 KB probes: a 6000 B budget holds two of them, and a third
    admission spills one.
    """
    medium = MemoryBackend()
    if client is not None:
        medium = PeerTier(medium, client)
    return ShardWorker(0, conn if conn is not None else Sink(),
                       config or MRTSConfig(), budget, medium)


_msg_ids = itertools.count(1)


def create(worker, oid, size=2000, count=0):
    obj = probe(oid, size)
    obj.count = count
    assert worker.handle(
        Create(next(_msg_ids), oid, class_path(Probe), obj.pack())
    )
    return worker.conn.sent[-1]


def post(worker, oid, method, *args):
    assert worker.handle(Post(next(_msg_ids), oid, method, args, {}))
    return worker.conn.sent[-1]


def get(worker, oid):
    """``oid``'s in-core instance: a resident one is touched, a spilled
    one is loaded by a read-only post."""
    rec = worker.nrt.locals[oid]
    if rec.obj is None:
        assert post(worker, oid, "peek").error is None
    else:
        worker.nrt.ooc.touch(oid)
    return rec.obj


def spilled(worker):
    return {oid for oid, rec in worker.nrt.locals.items() if rec.obj is None}


def evict_events(ack):
    return [e for e in map(decode_event, ack.events)
            if isinstance(e, EvictEvent)]


# ------------------------------------------------------------- class paths
def test_class_path_round_trip():
    path = class_path(Probe)
    assert resolve_class(path) is Probe


def test_resolve_class_rejects_non_mobile_types():
    with pytest.raises(TypeError):
        resolve_class("builtins:dict")


# ------------------------------------------------- residency on the OOC layer
def test_store_admits_and_serves_live_objects():
    worker = make_worker()
    create(worker, 1)
    obj = get(worker, 1)
    assert isinstance(obj, Probe)
    assert get(worker, 1) is obj  # in core: same instance
    assert set(worker.nrt.locals) == {1}
    assert worker.nrt.storage.loads == 0


def test_store_evicts_lru_and_promotes_from_disk():
    worker = make_worker(budget=6000)
    for oid in (1, 2, 3):  # the third admission spills oid 1
        create(worker, oid)
    assert worker.nrt.ooc.evictions >= 1
    assert worker.nrt.storage.contains(1)
    obj = get(worker, 1)  # promotion: revived from the stored bytes
    assert obj.count == 0
    assert worker.nrt.storage.loads == 1


def test_store_eviction_prefers_least_recently_used():
    worker = make_worker(budget=6000)
    create(worker, 1)
    create(worker, 2)
    get(worker, 1)  # refresh 1: now 2 is the LRU victim
    create(worker, 3)
    assert spilled(worker) == {2}


def test_worker_victim_order_follows_the_swap_scheme():
    victims = {}
    for scheme in ("lru", "mru"):
        worker = make_worker(budget=6000,
                             config=MRTSConfig(swap_scheme=scheme))
        create(worker, 1)
        create(worker, 2)
        get(worker, 1)  # 1 is now the most recently used
        create(worker, 3)
        victims[scheme] = spilled(worker)
    assert victims == {"lru": {2}, "mru": {1}}


def test_mutating_handler_recharges_residency():
    worker = make_worker(budget=50_000)
    create(worker, 1)
    before = worker.nrt.ooc.memory_used
    ack = post(worker, 1, "grow", 4000)
    assert worker.nrt.ooc.memory_used > before
    assert worker.nrt.ooc.table[1].nbytes == len(ack.state)


def test_unknown_oid_raises_object_not_found():
    ack = post(make_worker(), 42, "peek")
    assert ObjectNotFound.__name__ in ack.error


def test_admit_overwrites_a_previous_life():
    """Re-homing re-admits an oid the worker may already track."""
    worker = make_worker()
    create(worker, 1)
    get(worker, 1).count = 99
    create(worker, 1, count=7)
    assert get(worker, 1).count == 7
    assert worker.nrt.ooc.memory_used == worker.nrt.ooc.table[1].nbytes


def test_rehomed_object_is_not_served_from_its_previous_stored_copy():
    worker = make_worker(budget=6000)
    create(worker, 1, count=99)
    create(worker, 2)
    create(worker, 3)  # 1 spills: its previous life is on the medium
    assert worker.nrt.storage.contains(1)
    create(worker, 1, count=7)  # re-home re-admit
    assert not worker.nrt.storage.contains(1)
    assert post(worker, 1, "bump").error is None
    create(worker, 4)
    create(worker, 5)
    assert 1 in spilled(worker)
    assert get(worker, 1).count == 8


def test_store_emits_evict_and_load_events():
    worker = make_worker(budget=6000)
    for oid in (1, 2, 3):
        create(worker, oid)
    post(worker, 1, "peek")
    kinds = {type(decode_event(row))
             for ack in worker.conn.sent for row in ack.events}
    assert EvictEvent in kinds and LoadEvent in kinds


def test_readonly_handler_then_eviction_stores_nothing():
    worker = make_worker(budget=6000)
    for oid in (1, 2, 3):
        create(worker, oid)
    post(worker, 1, "peek")  # 1 reloads and serves a read-only epoch
    stores = worker.nrt.storage.stores
    ack = post(worker, 2, "peek")  # room for 2: 1 goes
    assert [e.clean for e in evict_events(ack) if e.oid == 1] == [True]
    assert worker.nrt.storage.stores == stores
    assert worker.nrt.ooc.clean_evictions == 1


def test_one_pack_per_mutating_handler_and_eviction(monkeypatch):
    worker = make_worker(budget=6000)
    create(worker, 1)
    packed = []
    pack = Probe.pack
    monkeypatch.setattr(
        Probe, "pack", lambda self: packed.append(self.oid) or pack(self))
    ack = post(worker, 1, "bump")  # the ACK's state is the one pack
    create(worker, 2)
    create(worker, 3)  # 1 is dirty and least recent: stored, not repacked
    assert 1 in spilled(worker)
    assert packed.count(1) == 1
    assert worker.rt.stats.packs == 1
    assert worker.nrt.storage.load(1) == ack.state


def test_object_larger_than_l0_is_admitted_as_an_overrun():
    worker = make_worker(budget=1000)
    create(worker, 1, size=3000)
    assert 1 not in spilled(worker)
    assert worker.nrt.ooc.overruns == 1
    assert check_node_residency(worker.nrt, "worker") == []
    create(worker, 2, size=100)  # spills the big one
    assert spilled(worker) == {1}
    assert post(worker, 1, "bump").error is None  # and it loads back
    assert get(worker, 1).count == 1
    assert check_node_residency(worker.nrt, "worker") == []


def test_delta_actors_spill_append_log_frames():
    """Grown append-mostly payloads re-spill as delta frames, and a
    reload reassembles base plus frames into the current state."""
    worker = make_worker(budget=6000)
    for oid in (1, 2, 3):
        actor = DeltaStormActor(MobilePointer(oid, 0), 2000, 0, 1, 256)
        worker.handle(Create(next(_msg_ids), oid, class_path(DeltaStormActor),
                             actor.pack()))
    for _ in range(4):
        acks = [post(worker, oid, "pulse", 0, 0) for oid in (1, 2, 3)]
    assert worker.rt.stats.delta_spills > 0
    for ack in acks:
        replica = revive(DeltaStormActor, MobilePointer(ack.oid, 0), [ack.state])
        assert (replica.hits, len(replica.payload)) == (4, 2000 + 4 * 256)
    worker.handle(Shutdown(next(_msg_ids)))
    stats = worker.conn.sent[-1].stats
    assert stats["delta_spills"] == worker.rt.stats.delta_spills
    assert stats["residency_violations"] == []


def test_dirty_evictions_leave_nothing_on_the_node_engine():
    """The node's engine never runs in a worker, so a dirty spill must
    not queue its disk charge there (write-behind is swapped out)."""
    worker = make_worker(budget=6000)
    for oid in range(1, 6):
        create(worker, oid)
        post(worker, oid, "bump")
    ooc = worker.nrt.ooc
    assert ooc.evictions - ooc.clean_evictions >= 3
    assert worker.rt.engine.peek() == float("inf")


# ------------------------------------------------------- peer memory tiers
def served_pool(capacity=100_000, overflow=True):
    """A live PeerMemoryServer thread and a client across a real pipe."""
    client_end, server_end = mp.Pipe()
    pool = MemoryPool(capacity, overflow=MemoryBackend() if overflow else None)
    server = PeerMemoryServer(server_end, pool).start()
    return PeerClient(client_end, timeout_s=5.0), server, pool


def test_peer_put_get_round_trip():
    client, server, pool = served_pool()
    assert client.put(1, b"x" * 500)
    assert client.get(1) == b"x" * 500
    assert client.get(2) is None  # a miss, not an error
    assert not client.dead
    assert pool.used == 500
    client.close()


def test_peer_server_evicts_under_pressure_into_overflow():
    client, server, pool = served_pool(capacity=1000)
    assert client.put(1, b"a" * 600)
    assert client.put(2, b"b" * 600)  # slab full: 1 demotes to overflow
    assert pool.evictions == 1
    assert pool.overflow.contains(1)
    assert client.get(1) == b"a" * 600  # served from the demoted tier
    assert pool.overflow_loads == 1
    client.close()


def test_peer_server_refuses_when_no_overflow():
    client, server, pool = served_pool(capacity=1000, overflow=False)
    assert client.put(1, b"a" * 900)
    assert not client.put(2, b"b" * 500)  # refused, reply received
    assert not client.dead  # a refusal is an answer, not a dead link
    assert pool.used == 900
    client.close()


def test_peer_server_handles_has_del_and_bad_ops():
    pool = MemoryPool(1000)
    server = PeerMemoryServer(conn=None, pool=pool)
    assert server.handle(PeerOp("put", 1, b"x" * 10)).ok
    assert server.handle(PeerOp("has", 1)).ok
    assert server.handle(PeerOp("del", 1)).ok
    assert not server.handle(PeerOp("has", 1)).ok
    bad = server.handle(PeerOp("zap", 1))
    assert not bad.ok and "bad op" in bad.error


def test_peer_client_timeout_marks_peer_dead_permanently():
    client_end, _server_end = mp.Pipe()  # nobody is serving
    client = PeerClient(client_end, timeout_s=0.05)
    assert client.get(1) is None
    assert client.dead
    assert client.failures == 1
    assert not client.put(1, b"x")  # later calls are cheap no-ops
    assert client.failures == 1


def test_peer_tier_survives_peer_death_via_write_through():
    """The worker-kill guarantee: peer RAM is a cache, disk is the truth."""
    client_end, _server_end = mp.Pipe()
    worker = make_worker(budget=6000,
                         client=PeerClient(client_end, timeout_s=0.05))
    for oid in (1, 2, 3):
        create(worker, oid)
    assert worker.nrt.ooc.evictions >= 1
    assert isinstance(get(worker, 1), Probe)  # peer miss -> disk fallback
    assert worker.peer.fallbacks >= 1
    assert worker.peer.client.gets == 0


def test_peer_tier_reads_prefer_the_peer():
    client, server, pool = served_pool()
    worker = make_worker(budget=6000, client=client)
    for oid in (1, 2, 3):
        create(worker, oid)
    get(worker, 1)
    assert worker.peer.client.gets >= 1
    assert worker.peer.client.puts >= 1
    client.close()


def test_peer_death_mid_run_falls_back_to_disk():
    client_end, server_end = mp.Pipe()
    pool = MemoryPool(100_000)
    serving = threading.Thread(
        target=PeerMemoryServer(server_end, pool).serve, daemon=True)
    serving.start()
    client = PeerClient(client_end, timeout_s=0.5)
    worker = make_worker(budget=6000, client=client)
    for oid in (1, 2, 3):
        create(worker, oid)
    assert pool.holds(1)  # the spill reached the peer
    client.close()  # the peer goes away
    serving.join(timeout=5)
    assert not serving.is_alive()
    server_end.close()
    assert get(worker, 1).count == 0
    assert client.dead
    assert worker.peer.fallbacks == 1


def test_flipped_byte_in_a_peer_copy_raises_corrupt_object():
    client, server, pool = served_pool()
    worker = make_worker(budget=6000, client=client)
    for oid in (1, 2, 3):
        create(worker, oid)
    framed = bytearray(pool.get(1))  # the peer holds the framed bytes
    framed[-1] ^= 0xFF
    pool.store.store(1, bytes(framed))
    assert CorruptObject.__name__ in post(worker, 1, "peek").error
    client.close()


def test_refused_peer_put_drops_the_stale_copy():
    """A re-spill the 3 KB peer slab refuses (3.2 KB of noise still
    frames above 3 KB after compression) must not leave the peer's older
    copy (demoted to its overflow) to win the next load."""
    client, server, pool = served_pool(capacity=3000)
    worker = make_worker(budget=2500, client=client)
    create(worker, 1)
    create(worker, 2)  # 1 spills: version 0 on the peer and on disk
    post(worker, 1, "grow_noise", 3200, 7)  # reloaded and grown
    post(worker, 2, "peek")  # 1 spills again; the peer refuses it
    noise = random.Random(7).randbytes(3200)
    assert get(worker, 1).data == bytes(2000) + noise
    assert worker.peer.fallbacks >= 1
    client.close()


# ------------------------------------------------------------ shard worker
def worker_with_sink(budget=50_000):
    worker = make_worker(budget)
    return worker, worker.conn


def test_worker_create_then_post_updates_replica():
    worker, sink = worker_with_sink()
    assert worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    assert worker.handle(Post(2, 10, "bump", (5,), {}))
    create_ack, post_ack = sink.sent
    assert create_ack.error is None and post_ack.error is None
    assert post_ack.state is not None  # mutating handler ships new state
    revived = probe(10)
    revived.unpack(post_ack.state)
    assert revived.count == 5
    assert any(row[0] == "handler" for row in post_ack.events)


def test_worker_dedupes_via_cached_ack():
    worker, sink = worker_with_sink()
    worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    worker.handle(Post(2, 10, "bump", (), {}))
    worker.handle(Post(2, 10, "bump", (), {}))  # exact redelivery
    assert worker.duplicates == 1
    assert get(worker, 10).count == 1  # executed once
    assert sink.sent[1] is sink.sent[2]  # the very same cached ACK


def test_worker_readonly_handler_ships_no_state():
    worker, sink = worker_with_sink()
    worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    worker.handle(Post(2, 10, "peek", (), {}))
    assert sink.sent[-1].state is None
    assert sink.sent[-1].error is None


def test_worker_posts_ride_the_ack():
    worker, sink = worker_with_sink()
    worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    worker.handle(Post(2, 10, "spray", (77,), {}))
    assert sink.sent[-1].posts == ((77, "bump", (2,), {}),)


def test_worker_handler_errors_become_error_acks():
    worker, sink = worker_with_sink()
    worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    worker.handle(Post(2, 10, "boom", (), {}))
    assert "RuntimeError" in sink.sent[-1].error
    worker.handle(Post(3, 10, "plain", (), {}))  # undecorated method
    assert "not a handler" in sink.sent[-1].error
    worker.handle(Post(4, 99, "bump", (), {}))  # unknown object
    assert sink.sent[-1].error is not None


def test_worker_shutdown_ack_carries_stats():
    worker, sink = worker_with_sink()
    worker.handle(Create(1, 10, class_path(Probe), probe(10).pack()))
    worker.handle(Post(2, 10, "bump", (), {}))
    assert not worker.handle(Shutdown(3))  # False: the loop must exit
    stats = sink.sent[-1].stats
    assert stats["delivered"] == 1
    assert stats["owned"] == 1
    assert stats["residency_violations"] == []


def test_worker_shutdown_reports_a_corrupted_layer():
    worker = make_worker(budget=6000)
    for oid in (1, 2, 3):
        create(worker, oid)
    worker.nrt.ooc.memory_used += 7  # accounting drift
    worker.nrt.storage.delete(1)  # a spilled object's bytes vanish
    worker.handle(Shutdown(next(_msg_ids)))
    violations = worker.conn.sent[-1].stats["residency_violations"]
    assert any("memory_used" in v for v in violations)
    assert "worker 0: spilled object 1 missing from storage" in violations
    stats = DistRunStats(worker_stats={
        0: worker.conn.sent[-1].stats, 1: {"residency_violations": []}})
    assert stats.residency_violations() == violations


def test_worker_serve_forever_over_a_real_pipe():
    ours, theirs = mp.Pipe()
    worker = make_worker(conn=theirs)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    ours.send(Create(1, 10, class_path(Probe), probe(10).pack()))
    ours.send(Post(2, 10, "bump", (3,), {}))
    ours.send(Shutdown(3))
    acks = [ours.recv() for _ in range(3)]
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert [a.msg_id for a in acks] == [1, 2, 3]
    assert acks[2].stats["delivered"] == 1


# ------------------------------------------------------------- event relay
def test_event_codec_round_trips_every_registered_kind():
    samples = {
        "handler": HandlerSpan(time=1.0, node=0, oid=1, handler="h",
                               duration=0.1, comp_s=0.1, queue_len=0),
        "evict": EvictEvent(time=2.0, node=1, oid=2, nbytes=10, clean=False,
                            memory_used=5),
        "load": LoadEvent(time=3.0, node=0, oid=3, nbytes=7,
                          background=False, memory_used=2),
    }
    for kind, event in samples.items():
        assert kind in EVENT_TYPES
        row = encode_event(event)
        assert row[0] == kind
        assert decode_event(row) == event


def test_event_codec_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        decode_event(("warp", 1.0, 0))


def ev(t, node=0):
    return LoadEvent(time=t, node=node, oid=1, nbytes=1, background=False,
                     memory_used=0)


def drain(sub):
    out = [e.time for e in sub.events]
    sub.events.clear()
    return out


def test_merger_holds_events_until_all_watermarks_pass():
    bus = EventBus()
    sub = bus.subscribe()
    merger = EventMerger(bus)
    merger.add_source(0)
    merger.add_source(1)
    merger.feed(0, [ev(1.0), ev(3.0)], watermark=3.0)
    # Source 1 is silent at clock 0: nothing may release yet.
    assert merger.merged == 0
    merger.feed(1, [ev(2.0, node=1)], watermark=2.0)
    # Horizon is now 2.0: events at 1.0 and 2.0 release, 3.0 stays held.
    assert drain(sub) == [1.0, 2.0]
    merger.feed(1, [], watermark=10.0)
    assert drain(sub) == [3.0]
    assert merger.merged == 3


def test_merger_orders_across_sources():
    bus = EventBus()
    sub = bus.subscribe()
    merger = EventMerger(bus)
    merger.add_source(0)
    merger.add_source(1)
    merger.feed(0, [ev(5.0)], watermark=5.0)
    merger.feed(1, [ev(1.0, node=1), ev(4.0, node=1)], watermark=9.0)
    assert drain(sub) == [1.0, 4.0, 5.0]
    assert merger.reordered >= 1


def test_merger_close_retires_a_dead_sources_clock():
    bus = EventBus()
    sub = bus.subscribe()
    merger = EventMerger(bus)
    merger.add_source(0)
    merger.add_source(1)
    merger.feed(0, [ev(2.0)], watermark=2.0)
    assert merger.merged == 0  # gated on silent source 1
    merger.close(1)  # crash: source 1 stops holding the line back
    assert drain(sub) == [2.0]


def test_merger_flush_drains_everything():
    bus = EventBus()
    sub = bus.subscribe()
    merger = EventMerger(bus)
    merger.feed(0, [ev(1.0), ev(9.0)], watermark=1.0)
    merger.feed(1, [ev(5.0, node=1)], watermark=0.5)
    merger.flush()
    assert drain(sub) == [1.0, 5.0, 9.0]


# -------------------------------------------------------------- wire chaos
def test_wire_chaos_is_deterministic_per_seed():
    a = WireChaos(seed=7, drop_rate=0.3, dup_rate=0.3)
    b = WireChaos(seed=7, drop_rate=0.3, dup_rate=0.3)
    rows_a = [(a.send_copies(m), a.drop_ack(m)) for m in range(200)]
    rows_b = [(b.send_copies(m), b.drop_ack(m)) for m in range(200)]
    assert rows_a == rows_b
    assert a.dropped_sends > 0 and a.duplicated_sends > 0 and a.dropped_acks > 0


def test_wire_chaos_caps_consecutive_drops():
    chaos = WireChaos(seed=1, drop_rate=1.0, max_drops_per_msg=3)
    copies = [chaos.send_copies(5) for _ in range(10)]
    assert copies[:3] == [0, 0, 0]
    assert all(c >= 1 for c in copies[3:])  # the cap forces delivery
    assert [chaos.drop_ack(5) for _ in range(10)][3:] == [False] * 7


def test_wire_chaos_off_by_default():
    chaos = WireChaos(seed=0)
    assert all(chaos.send_copies(m) == 1 for m in range(50))
    assert not any(chaos.drop_ack(m) for m in range(50))
