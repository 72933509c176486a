"""Tests for the HandlerContext API surface (what applications program to)."""

import pytest

from repro.core import (
    CostModel,
    MobileObject,
    MRTS,
    Task,
    WorkStealingExecutor,
    handler,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


def rt_with(cores=2, n_nodes=1, memory=1 << 22, **kw):
    cluster = ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(cores=cores, memory_bytes=memory)
    )
    return MRTS(cluster, **kw)


class Probe(MobileObject):
    def __init__(self, pointer):
        super().__init__(pointer)
        self.observations = {}

    @handler
    def observe(self, ctx, peers):
        self.observations["node"] = ctx.node
        self.observations["now"] = ctx.now
        self.observations["resident"] = [ctx.is_resident(p) for p in peers]
        self.observations["peeked"] = [
            getattr(ctx.peek(p), "oid", None) for p in peers
        ]

    @handler
    def parallel_region(self, ctx, n_tasks, dur):
        makespan = ctx.run_tasks([Task(dur) for _ in range(n_tasks)])
        self.observations["makespan"] = makespan

    @handler
    def manage(self, ctx, target):
        ctx.lock(target)
        self.observations["locked"] = True
        ctx.set_priority(target, 5.0)
        ctx.unlock(target)

    @handler
    def bad_charge(self, ctx):
        ctx.charge(-1.0)

    @handler
    def noop(self, ctx):
        pass


def test_ctx_observation_fields():
    rt = rt_with()
    a = rt.create_object(Probe)
    b = rt.create_object(Probe)
    rt.post(a, "observe", [b])
    rt.run()
    obs = rt.get_object(a).observations
    assert obs["node"] == 0
    assert obs["now"] >= 0.0
    assert obs["resident"] == [True]
    assert obs["peeked"] == [b.oid]


def test_ctx_peek_remote_returns_none():
    rt = rt_with(n_nodes=2)
    a = rt.create_object(Probe, node=0)
    b = rt.create_object(Probe, node=1)
    rt.post(a, "observe", [b])
    rt.run()
    obs = rt.get_object(a).observations
    assert obs["resident"] == [False]
    assert obs["peeked"] == [None]


def test_ctx_run_tasks_uses_all_cores():
    rt = rt_with(cores=4)
    p = rt.create_object(Probe)
    rt.post(p, "parallel_region", 8, 1.0)
    stats = rt.run()
    makespan = rt.get_object(p).observations["makespan"]
    # 8 x 1 s tasks on 4 workers: ~2 s, not 8 s.
    assert 1.9 < makespan < 2.5
    # The makespan was charged as compute time.
    assert stats.comp_time >= makespan


def test_ctx_run_tasks_schedules_on_work_stealing():
    rt = rt_with(cores=3)
    p = rt.create_object(Probe)
    rt.post(p, "parallel_region", 7, 1.0)
    rt.run()
    want = WorkStealingExecutor(3).schedule([Task(1.0) for _ in range(7)])
    assert rt.get_object(p).observations["makespan"] == want.makespan


def test_ctx_lock_priority_unlock():
    rt = rt_with()
    a = rt.create_object(Probe)
    b = rt.create_object(Probe)
    rt.post(a, "manage", b)
    rt.run()
    ooc = rt.nodes[0].ooc
    assert not ooc.is_locked(b.oid)          # unlocked again
    assert ooc.table[b.oid].priority == 5.0  # hint stuck
    assert b.priority == 5.0                 # mirrored in the pointer


def test_ctx_negative_charge_rejected():
    rt = rt_with()
    p = rt.create_object(Probe)
    rt.post(p, "bad_charge")
    with pytest.raises(ValueError):
        rt.run()


def test_ctx_boost_schedule_orders_service():
    """A boosted object is served before earlier-ready ones."""
    order = []

    class Recorder(MobileObject):
        def __init__(self, pointer, tag):
            super().__init__(pointer)
            self.tag = tag

        @handler
        def mark(self, ctx):
            order.append(self.tag)

    class Booster(MobileObject):
        @handler
        def go(self, ctx, first, second):
            ctx.post(first, "mark")
            ctx.post(second, "mark")
            ctx.boost_schedule(second, 10.0)

    rt = rt_with(cores=1)
    first = rt.create_object(Recorder, "first")
    second = rt.create_object(Recorder, "second")
    booster = rt.create_object(Booster)
    rt.post(booster, "go", first, second)
    rt.run()
    assert order == ["second", "first"]


def test_ctx_create_places_on_requested_node():
    created = {}

    class Factory(MobileObject):
        @handler
        def make(self, ctx):
            created["local"] = ctx.create(Probe)
            created["remote"] = ctx.create(Probe, node=1)

    rt = rt_with(n_nodes=2)
    f = rt.create_object(Factory, node=0)
    rt.post(f, "make")
    rt.run()
    assert rt.object_location(created["local"]) == 0
    assert rt.object_location(created["remote"]) == 1
