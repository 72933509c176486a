"""Regression tests for the out-of-core fast path.

Pins the three behaviors the fast path introduced:

* **dirty-aware spills** — a load / read-only-handler / evict cycle calls
  ``storage.store()`` exactly zero times (the storage copy is already
  current), while a mutation makes the next spill pay the write-back;
* **pipelined write-behind** — a dirty spill's bytes are durable
  immediately (Python time) but its virtual disk charge drains behind,
  overlapping the disk read of the object the eviction made room for;
* **completion barrier** — re-loading an object whose own store is still
  in flight waits for the store's virtual completion first.
"""

import pytest

from repro.core import MRTS, MobileObject, handler
from repro.core.spill import evict_now, load_blocking
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing import assert_invariants

seen_first_bytes = []


class Page(MobileObject):
    """Fixed-size payload: reads are read-only, pokes mutate in place."""

    def __init__(self, ptr, size=4000):
        super().__init__(ptr)
        self.blob = bytes(size)

    @handler(readonly=True)
    def read(self, ctx):
        seen_first_bytes.append(self.blob[:1])

    @handler
    def poke(self, ctx):
        self.blob = b"x" + self.blob[1:]


class Blob(MobileObject):
    def __init__(self, ptr, size=1000):
        super().__init__(ptr)
        self.payload = bytes(size)


def one_node(memory, **node_kwargs):
    return ClusterSpec(
        n_nodes=1, node=NodeSpec(cores=1, memory_bytes=memory, **node_kwargs)
    )


# ------------------------------------------------------------ clean spills
def test_clean_reload_cycle_performs_zero_stores():
    """load → read-only handler → evict must not call storage.store()."""
    del seen_first_bytes[:]
    rt = MRTS(one_node(6000))  # fits exactly one Page at a time
    p1 = rt.create_object(Page)
    p2 = rt.create_object(Page)  # spills p1 (dirty from creation)
    rt.post(p1, "read")
    rt.run()  # loads p1, spilling p2 (also dirty from creation)
    nrt = rt.nodes[0]
    base_stores = nrt.storage.stores
    base_clean = nrt.ooc.clean_evictions

    # Ping-pong read-only traffic: every round evicts a clean page.
    for _ in range(4):
        rt.post(p2, "read")
        rt.run()
        rt.post(p1, "read")
        rt.run()
    assert nrt.storage.stores == base_stores
    assert nrt.ooc.clean_evictions > base_clean
    assert len(seen_first_bytes) == 9

    # A mutation flips the dirty bit: exactly one more write-back.
    rt.post(p1, "poke")
    rt.run()
    rt.post(p2, "read")  # forces p1 out, dirty this time
    rt.run()
    assert nrt.storage.stores == base_stores + 1
    rt.post(p1, "read")
    rt.run()
    assert seen_first_bytes[-1] == b"x"  # the write-back kept the update
    assert_invariants(rt)


def test_readonly_handler_does_not_mark_dirty():
    rt = MRTS(one_node(1 << 20))
    p = rt.create_object(Page)
    nrt = rt.nodes[0]
    assert nrt.ooc.is_dirty(p.oid)  # fresh state: storage has no copy
    rt.run()
    # Spill + reload establishes a current storage copy.
    evict_now(rt, nrt, p.oid)
    assert rt.get_object(p) is not None
    assert not nrt.ooc.is_dirty(p.oid)
    rt.post(p, "read")
    rt.run()
    assert not nrt.ooc.is_dirty(p.oid)
    rt.post(p, "poke")
    rt.run()
    assert nrt.ooc.is_dirty(p.oid)


# ------------------------------------------------- write-behind pipelining
def test_write_behind_overlaps_store_with_load():
    """Victim store charges drain concurrently with the target's read.

    Three disk channels so queueing never hides the ordering: with the
    barrier, A's re-load starts only after A's own in-flight store drain
    completes (t = s), never before; B's store drains in parallel with
    the read instead of serializing in front of it (total 2s, not 3s).
    """
    rt = MRTS(one_node(1500, disk_channels=3))
    a = rt.create_object(Blob)
    b = rt.create_object(Blob)  # spills a; store is durable immediately
    nrt = rt.nodes[0]
    assert nrt.storage.contains(a.oid)
    assert a.oid in nrt.write_behind.pending
    size_a = nrt.ooc.table[a.oid].nbytes

    evict_now(rt, nrt, b.oid)  # second in-flight store drain
    assert nrt.storage.contains(b.oid)
    assert b.oid in nrt.write_behind.pending

    s = rt.cluster[0].disk.service_time(size_a)  # equal sizes, equal s
    proc = rt.engine.process(load_blocking(rt, nrt, a.oid))
    rt.engine.run(until=proc)
    # Barrier: read could only start at s (A's drain done) → finishes 2s.
    # Overlap: B's drain rode along in [0, s]; serialized would be 3s.
    assert rt.engine.now == pytest.approx(2 * s, rel=1e-9)
    assert not nrt.write_behind.pending
    assert nrt.ooc.is_resident(a.oid)
    assert not nrt.ooc.is_dirty(a.oid)


def test_reeviction_after_clean_load_is_free():
    rt = MRTS(one_node(1500, disk_channels=2))
    a = rt.create_object(Blob)
    rt.create_object(Blob)  # spills a (dirty)
    nrt = rt.nodes[0]
    proc = rt.engine.process(load_blocking(rt, nrt, a.oid))
    rt.engine.run(until=proc)

    stores = nrt.storage.stores
    clean = nrt.ooc.clean_evictions
    evict_now(rt, nrt, a.oid)  # untouched since the load: clean spill
    assert nrt.storage.stores == stores
    assert a.oid not in nrt.write_behind.pending  # no virtual charge either
    assert nrt.ooc.clean_evictions == clean + 1
    assert nrt.storage.contains(a.oid)  # old copy still serves reloads
