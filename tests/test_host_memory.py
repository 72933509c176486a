"""Evicted means freed: an instance that stops being current dies at once.

The out-of-core layer exists to bound host memory, so the moment the
runtime lets go of an in-core instance — clean or dirty eviction,
migration out, ``destroy_object``, a speculation rollback, a checkpoint
restore — nothing else may keep it alive.  Every test here runs with the
cyclic collector **off**: a weak reference that is dead was freed by
reference count, at that instruction, not whenever a generation filled.

The second half pins what the fix must not loosen — the dirty hook still
ignores a stale instance — and gates the garbage a whole run leaves
behind with a count that must not grow with the number of evictions.
(That the hook never references the instance it is installed on is
asserted on the source in ``tests/test_layering.py``.)  The last test
gates the host bytes a spilling run holds at its peak against the budget.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro import perf
from repro.core import MRTS, MRTSConfig, MobileObject, handler
from repro.core.checkpoint import Checkpoint, checkpoint, restore
from repro.core.codec import PointColumn, get_codec
from repro.core.control import post_message
from repro.core.messages import Message
from repro.core.spill import evict_now
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel

speculated = []  # weak references taken by handlers as they run


@pytest.fixture(autouse=True)
def collector_off():
    """No cyclic collection while a test runs; what it left is collected
    afterwards, outside every assertion."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class Page(MobileObject):
    def __init__(self, ptr, size=4000):
        super().__init__(ptr)
        self.blob = bytes(size)
        self.pokes = 0

    @handler(readonly=True)
    def read(self, ctx):
        pass

    @handler
    def poke(self, ctx):
        self.pokes += 1
        speculated.append(weakref.ref(self))


class Patch(MobileObject):
    serializer = get_codec("mesh-patch")

    def __init__(self, ptr, n=64):
        super().__init__(ptr)
        self.points = PointColumn((float(i), float(-i)) for i in range(n))

    @handler
    def grow(self, ctx, n):
        self.points.extend((float(i), 0.5) for i in range(n))
        ctx.grew(16 * n)


def make_runtime(n_nodes=1, **config):
    return MRTS(
        ClusterSpec(n_nodes=n_nodes,
                    node=NodeSpec(cores=1, memory_bytes=1 << 20)),
        config=MRTSConfig(**config), cost_model=FixedCostModel(1e-4),
    )


def in_core(rt, ptr):
    """(record, weak reference to its in-core instance); holds no strong
    reference to the instance once it returns."""
    rec = rt.nodes[rt.object_location(ptr)].locals[ptr.oid]
    assert rec.obj is not None
    return rec, weakref.ref(rec.obj)


# -------------------------------------------------- freed at that instant
@pytest.mark.parametrize("cls,mutate", [(Page, "poke"), (Patch, "grow")])
def test_dirty_eviction_frees_the_instance(cls, mutate):
    rt = make_runtime()
    ptr = rt.create_object(cls)
    rt.post(ptr, mutate, *([8] if cls is Patch else []))
    rt.run()  # a worker served it, and idles holding its record
    nrt = rt.nodes[0]
    rec, ref = in_core(rt, ptr)
    assert nrt.ooc.is_dirty(ptr.oid)
    evict_now(rt, nrt, ptr.oid)
    assert rec.obj is None and ref() is None


def test_clean_eviction_frees_the_instance():
    rt = make_runtime()
    ptr = rt.create_object(Page)
    nrt = rt.nodes[0]
    evict_now(rt, nrt, ptr.oid)
    rt.post(ptr, "read")
    rt.run()  # reloaded, served read-only: the stored copy is current
    rec, ref = in_core(rt, ptr)
    assert not nrt.ooc.is_dirty(ptr.oid)
    stores = nrt.storage.stores
    evict_now(rt, nrt, ptr.oid)
    assert nrt.storage.stores == stores  # it was a clean eviction
    assert rec.obj is None and ref() is None


def test_migration_frees_the_source_instance():
    rt = make_runtime(n_nodes=2)
    ptr = rt.create_object(Page, node=0)
    rt.post(ptr, "poke")
    rt.run()  # node 0's idle worker still holds the source record
    _, ref = in_core(rt, ptr)
    rt.migrate(ptr, 1)
    rt.run()
    assert rt.object_location(ptr) == 1
    assert ref() is None
    _, moved = in_core(rt, ptr)
    assert moved().pokes == 1


def test_destroy_object_frees_the_instance():
    rt = make_runtime()
    ptr = rt.create_object(Page)
    rt.post(ptr, "poke")
    rt.run()
    _, ref = in_core(rt, ptr)
    rt.destroy_object(ptr)
    assert ref() is None


def test_speculation_rollback_frees_the_speculated_instance():
    del speculated[:]
    rt = make_runtime(speculation=True)
    rt.speculation.force_abort = True
    ptr = rt.create_object(Page)
    msg = Message(ptr, "poke", (), {}, source_node=-1)
    msg.speculative = True
    post_message(rt, msg, 0)
    rt.run()
    assert rt.stats.spec_aborted == 1 and rt.stats.spec_committed == 0
    # The handler ran twice: speculatively, on an instance the rollback
    # replaced, and for real, on the replacement.
    first, second = speculated
    rec, current = in_core(rt, ptr)
    assert first() is None
    assert second() is current() and current().pokes == 1


def test_checkpoint_restore_holds_no_instance():
    """A snapshot is bytes.  Taking one pins nothing in the runtime it
    came from, and what ``restore`` installs is freed by its first
    eviction like any other instance."""
    old = make_runtime()
    ptr = old.create_object(Patch)
    old.post(ptr, "grow", 32)
    old.run()
    _, before = in_core(old, ptr)
    snap = Checkpoint.from_bytes(checkpoint(old).to_bytes())
    evict_now(old, old.nodes[0], ptr.oid)
    assert before() is None  # the snapshot did not keep it

    new = make_runtime()
    ptrs = restore(snap, new, class_map={"Patch": Patch})
    rec, restored = in_core(new, ptrs[ptr.oid])
    assert len(restored().points) == 96
    evict_now(new, new.nodes[0], ptr.oid)
    assert rec.obj is None and restored() is None
    # (The old *runtime* is another matter: engine, processes and nodes
    # refer to one another, so a dropped runtime is the collector's.)


# ------------------------------------------------------ the hook's guard
def test_a_stale_instance_cannot_dirty_its_successor():
    """An instance a caller kept across its spill still has the hook; its
    ``mark_dirty()`` must change nothing about the reloaded incarnation."""
    rt = make_runtime()
    ptr = rt.create_object(Page)
    nrt = rt.nodes[0]
    stale = rt.get_object(ptr)
    evict_now(rt, nrt, ptr.oid)
    fresh = rt.get_object(ptr)  # reloads: a new instance, clean, cached
    rec = nrt.locals[ptr.oid]
    assert fresh is not stale and rec.obj is fresh
    assert not nrt.ooc.is_dirty(ptr.oid)
    cache = rec.pack_cache
    assert cache is not None

    stale.mark_dirty()
    assert not nrt.ooc.is_dirty(ptr.oid)
    assert rec.pack_cache is cache

    fresh.mark_dirty()  # the guard lets the current instance through
    assert nrt.ooc.is_dirty(ptr.oid)
    assert rec.pack_cache is None


# -------------------------------------------- garbage does not grow per run
def _unreachable_after(rounds: int) -> tuple[int, int]:
    gc.collect()
    result = perf.run_mesh_patch_stream(
        seed=5, n_actors=8, initial_points=256, rounds=rounds,
        append_per_round=64, memory_bytes=16 * 1024,
    )
    runtime = result.runtime
    runtime.engine.run()  # let detached write-behind drains finish
    evictions = sum(n.ooc.evictions for n in runtime.nodes)
    del result, runtime
    return gc.collect(), evictions


def test_garbage_per_run_does_not_grow_with_evictions():
    """What the collector finds after a run is the runtime's own
    scaffolding (engine, processes, nodes, the predictor's table), never
    evicted instances: three times the rounds, nearly three times the
    evictions, the same count.  (From three rounds on, because the
    learned predictor keeps one table row per object it has seen loaded
    and the first rounds are still filling it.  Before the hook stopped
    capturing its instance these two counts were 8 741 and 33 989.)"""
    few, evictions_few = _unreachable_after(rounds=3)
    many, evictions_many = _unreachable_after(rounds=9)
    assert evictions_many >= 2 * evictions_few > 0
    assert many == few


# ------------------------------------------------- peak against the budget
def test_patch_stream_peak_stays_near_the_budget():
    """The ``tracemalloc`` peak of a spilling patch stream, from its first
    ``run()`` on, is at most 2.5x ``nodes x budget``: the objects in core
    plus spill transients, with the spilled bytes off the heap (in the
    pack file's temporary file).  An in-heap medium measured 4.5x here.
    A tiny run first pays the one-time lazy imports and caches, so the
    number is about the run alone."""
    inputs = dict(n_actors=24, initial_points=1024, rounds=4,
                  append_per_round=256, n_nodes=2, memory_bytes=256 * 1024)
    perf.run_mesh_patch_stream(seed=0, **dict(inputs, n_actors=4, rounds=1))

    def from_first_run(rt) -> None:
        run = rt.run

        def first_run(*args, **kwargs):
            del rt.run  # back to the class's method
            tracemalloc.reset_peak()
            return run(*args, **kwargs)

        rt.run = first_run

    tracemalloc.start()
    try:
        result = perf.run_mesh_patch_stream(
            seed=0, on_runtime=from_first_run, **inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(n.ooc.evictions for n in result.runtime.nodes) > 0
    budget = inputs["n_nodes"] * inputs["memory_bytes"]
    assert peak <= 2.5 * budget, f"peak {peak / budget:.2f} x budget"
