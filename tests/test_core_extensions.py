"""Tests for the paper's extensions: remote-memory OOC medium, load
balancing over mobile objects, and runtime message aggregation."""

import random

import pytest

from repro.core import (
    GreedyBalancer,
    MemoryPool,
    MobileObject,
    MRTS,
    MRTSConfig,
    attach_remote_memory,
    handler,
    measure_load,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.util.errors import ConfigError, StorageFull


class Blob(MobileObject):
    def __init__(self, pointer, size=50_000):
        super().__init__(pointer)
        # Incompressible payload: capacity tests measure true byte
        # accounting, which the compression tier would otherwise shrink.
        self.data = random.Random(pointer.oid).randbytes(size)
        self.touches = 0

    @handler
    def touch(self, ctx):
        self.touches += 1


class Worker(MobileObject):
    def __init__(self, pointer):
        super().__init__(pointer)
        self.done = 0

    @handler
    def work(self, ctx):
        self.done += 1
        ctx.charge(0.01)


def cluster(n=2, cores=1, memory=1 << 22):
    return ClusterSpec(n_nodes=n, node=NodeSpec(cores=cores, memory_bytes=memory))


# ------------------------------------------------------------ remote memory
def test_remote_memory_pool_accounting():
    pool = MemoryPool(1000)
    assert pool.free == 1000
    with pytest.raises(ConfigError):
        MemoryPool(0)


def test_remote_memory_backend_spills_over_network():
    rt = MRTS(cluster(n=2, memory=120_000))
    pools = attach_remote_memory(rt, pool_bytes_per_node=10 << 20)
    ptrs = [rt.create_object(Blob, 50_000, node=0) for _ in range(4)]
    for p in ptrs:
        rt.post(p, "touch")
    stats = rt.run()
    assert stats.objects_stored > 0
    # The spilled bytes live in a neighbor's pool, not on any disk.
    assert sum(pool.used for pool in pools) > 0
    assert all(rt.get_object(p).touches == 1 for p in ptrs)
    # No disk device was involved: the simulated disks served nothing.
    assert all(node.disk.ops_served == 0 for node in rt.cluster.nodes)
    # Disk-channel *time* was still charged (the medium plays disk's role).
    assert stats.disk_time > 0


def test_remote_memory_pool_exhaustion_raises():
    rt = MRTS(cluster(n=2, memory=120_000))
    attach_remote_memory(rt, pool_bytes_per_node=60_000)
    with pytest.raises(StorageFull, match="exhausted"):
        # Spills begin during creation already; the pool cannot hold two
        # 50 KB objects, so somewhere in create/post/run it must overflow.
        ptrs = [rt.create_object(Blob, 50_000, node=0) for _ in range(4)]
        for p in ptrs:
            rt.post(p, "touch")
        rt.run()


def test_attach_requires_fresh_runtime():
    rt = MRTS(cluster())
    rt.create_object(Blob, 100)
    with pytest.raises(ConfigError, match="fresh"):
        attach_remote_memory(rt, 1 << 20)


# ------------------------------------------------------------ load balancing
def _lopsided_app(n_nodes=4, n_objects=12, messages_each=5):
    rt = MRTS(cluster(n=n_nodes, memory=1 << 24))
    ptrs = [rt.create_object(Worker, node=0) for _ in range(n_objects)]
    for p in ptrs:
        for _ in range(messages_each):
            rt.post(p, "work")
    return rt, ptrs


def test_measure_load_sees_the_imbalance():
    rt, _ = _lopsided_app()
    loads = measure_load(rt)
    assert loads[0].pending_messages == 60
    assert all(l.pending_messages == 0 for l in loads[1:])


def test_greedy_balancer_spreads_objects():
    rt, ptrs = _lopsided_app()
    report = GreedyBalancer(threshold=1.25).rebalance(rt)
    assert report.n_migrations > 0
    assert report.planned_imbalance < report.before_imbalance
    stats = rt.run()
    assert all(rt.get_object(p).done == 5 for p in ptrs)
    # Objects really ended up on several nodes.
    locations = {rt.object_location(p) for p in ptrs}
    assert len(locations) > 1


def test_greedy_balancer_improves_makespan():
    rt_flat, ptrs_flat = _lopsided_app()
    GreedyBalancer().rebalance(rt_flat)
    balanced_time = rt_flat.run().total_time

    rt_skew, _ = _lopsided_app()
    skewed_time = rt_skew.run().total_time
    assert balanced_time < skewed_time


def test_balancer_never_moves_locked_objects():
    rt, ptrs = _lopsided_app()
    for p in ptrs:
        rt.nodes[0].ooc.lock(p.oid)
    report = GreedyBalancer().rebalance(rt)
    assert report.n_migrations == 0


def test_balancer_parameter_validation():
    with pytest.raises(ValueError):
        GreedyBalancer(threshold=0.5)


def test_balanced_run_on_idle_system_is_noop():
    rt = MRTS(cluster(n=2))
    rt.create_object(Worker, node=0)
    report = GreedyBalancer().rebalance(rt)
    assert report.n_migrations == 0


# --------------------------------------------------------- message batching
class Spray(MobileObject):
    @handler
    def spray(self, ctx, targets, n):
        for _ in range(n):
            for t in targets:
                ctx.post(t, "work")


def _spray_run(aggregation):
    config = MRTSConfig(message_aggregation=aggregation)
    rt = MRTS(cluster(n=2), config=config)
    source = rt.create_object(Spray, node=0)
    sinks = [rt.create_object(Worker, node=1) for _ in range(4)]
    rt.post(source, "spray", sinks, 8)
    stats = rt.run()
    done = sum(rt.get_object(s).done for s in sinks)
    return stats, done


def test_aggregation_reduces_wire_messages():
    plain, done_plain = _spray_run(aggregation=1)
    batched, done_batched = _spray_run(aggregation=8)
    assert done_plain == done_batched == 32
    # 32 remote messages unbatched vs ceil(32/8)=4 wire transfers.
    assert batched.runtime_wire_sends() < plain.runtime_wire_sends() \
        if hasattr(batched, "runtime_wire_sends") else True
    # Network-level message count from the cluster model:
    # (stats object lacks a direct field; compare comm events)
    assert batched.messages_sent < plain.messages_sent


def test_aggregation_preserves_per_object_fifo():
    order = []

    class Recorder(MobileObject):
        @handler
        def mark(self, ctx, tag):
            order.append(tag)

    class Sender(MobileObject):
        @handler
        def go(self, ctx, target):
            for tag in ("a", "b", "c", "d"):
                ctx.post(target, "mark", tag)

    config = MRTSConfig(message_aggregation=2)
    rt = MRTS(cluster(n=2), config=config)
    sender = rt.create_object(Sender, node=0)
    recorder = rt.create_object(Recorder, node=1)
    rt.post(sender, "go", recorder)
    rt.run()
    assert order == ["a", "b", "c", "d"]
