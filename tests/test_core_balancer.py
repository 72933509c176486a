"""Backfill unit tests for the load-balancing module.

``tests/test_core_extensions.py`` covers the headline behaviors (spread,
makespan win, locked objects); these tests pin the decision mechanics:
the load scalar, migration budgets, the no-flip guard, and the report
arithmetic.
"""

import pytest

from repro.core import MobileObject, MRTS, handler
from repro.core.balancer import (
    GreedyBalancer,
    NodeLoad,
    _movable_objects,
    measure_load,
)
from repro.core.config import MRTSConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


class Worker(MobileObject):
    def __init__(self, pointer):
        super().__init__(pointer)
        self.done = 0

    @handler
    def work(self, ctx):
        self.done += 1
        ctx.charge(0.01)


def cluster(n=4, memory=1 << 24):
    return ClusterSpec(n_nodes=n, node=NodeSpec(cores=1, memory_bytes=memory))


def skewed(n_nodes=4, n_objects=8, messages_each=5, hot_node=0):
    rt = MRTS(cluster(n=n_nodes))
    ptrs = [rt.create_object(Worker, node=hot_node) for _ in range(n_objects)]
    for p in ptrs:
        for _ in range(messages_each):
            rt.post(p, "work")
    return rt, ptrs


# ---------------------------------------------------------------- measurement
def test_node_load_scalar_pending_dominates():
    busy = NodeLoad(rank=0, pending_messages=3, n_objects=0, memory_used=0)
    crowded = NodeLoad(rank=1, pending_messages=2, n_objects=90,
                       memory_used=1 << 30)
    assert busy.load > crowded.load


def test_node_load_object_count_tiebreaks():
    a = NodeLoad(rank=0, pending_messages=2, n_objects=5, memory_used=0)
    b = NodeLoad(rank=1, pending_messages=2, n_objects=3, memory_used=0)
    assert a.load > b.load


def test_measure_load_reports_queue_and_memory():
    rt, ptrs = skewed(n_nodes=2, n_objects=3, messages_each=4)
    loads = measure_load(rt)
    assert loads[0].pending_messages == 12
    assert loads[0].n_objects == 3
    assert loads[0].memory_used > 0
    assert loads[1].pending_messages == 0
    assert loads[1].n_objects == 0
    assert [l.rank for l in loads] == [0, 1]


# -------------------------------------------------------------------- greedy
def test_greedy_respects_migration_budget():
    rt, _ = skewed(n_objects=12, messages_each=5)
    report = GreedyBalancer(threshold=1.0 + 1e-9, max_migrations=2).rebalance(rt)
    assert report.n_migrations == 2


def test_greedy_stops_below_threshold():
    rt, _ = skewed()
    report = GreedyBalancer(threshold=10.0).rebalance(rt)
    # Max/mean imbalance of an all-on-one-node app over 4 nodes is 4;
    # a threshold of 10 declares that acceptable.
    assert report.n_migrations == 0
    assert report.planned_imbalance == report.before_imbalance


def test_greedy_never_flips_the_imbalance():
    """One hot object: moving it would make the destination the new max,
    so the planner must leave it alone."""
    rt = MRTS(cluster(n=2))
    p = rt.create_object(Worker, node=0)
    for _ in range(10):
        rt.post(p, "work")
    report = GreedyBalancer(threshold=1.25).rebalance(rt)
    assert report.n_migrations == 0


def test_greedy_skips_objects_with_handlers_in_flight():
    rt, ptrs = skewed(n_nodes=2)
    for p in ptrs:
        rt.nodes[0].locals[p.oid].in_flight = 1
    report = GreedyBalancer().rebalance(rt)
    assert report.n_migrations == 0
    for p in ptrs:
        rt.nodes[0].locals[p.oid].in_flight = 0


def test_greedy_migration_report_is_consistent():
    rt, ptrs = skewed()
    report = GreedyBalancer(threshold=1.25).rebalance(rt)
    assert report.n_migrations == len(report.migrations) > 0
    assert report.planned_imbalance < report.before_imbalance
    for oid, src, dst in report.migrations:
        assert src == 0 and dst != 0
        assert oid in {p.oid for p in ptrs}
    # Each object moved at most once per rebalance.
    moved = [oid for oid, _, _ in report.migrations]
    assert len(moved) == len(set(moved))


def test_greedy_work_is_conserved_across_migrations():
    rt, ptrs = skewed(n_objects=12, messages_each=5)
    GreedyBalancer(threshold=1.25).rebalance(rt)
    rt.run()
    assert all(rt.get_object(p).done == 5 for p in ptrs)


# ------------------------------------------------------------- speculation
def test_movable_objects_skip_pending_speculation():
    rt = MRTS(cluster(n=2), config=MRTSConfig(speculation=True))
    p = rt.create_object(Worker, node=0)
    assert _movable_objects(rt, 0) == [p.oid]
    rt.speculation.pending[p.oid] = object()  # membership is the check
    assert _movable_objects(rt, 0) == []
    del rt.speculation.pending[p.oid]
    assert _movable_objects(rt, 0) == [p.oid]


# ------------------------------------------------------------------- reports
def test_rebalance_after_run_is_stable():
    """Migrations execute on the next run(); a rebalance called at the
    following phase boundary finds nothing left to move (no ping-pong)."""
    rt, _ = skewed(n_objects=12, messages_each=5)
    first = GreedyBalancer(threshold=1.25).rebalance(rt)
    rt.run()
    second = GreedyBalancer(threshold=1.25).rebalance(rt)
    assert first.n_migrations > 0
    assert second.n_migrations == 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        GreedyBalancer(threshold=0.99)
