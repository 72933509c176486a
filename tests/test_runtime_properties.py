"""Property-based and failure-injection tests for the MRTS runtime.

These hammer the control/out-of-core layers with randomized workloads and
adversarial conditions, checking the invariants that make the runtime
trustworthy:

* message conservation — every posted message runs exactly once;
* termination — quiescence is always reached;
* determinism — identical inputs give identical virtual timelines;
* memory safety — budgets respected (modulo documented pinned-growth
  overruns), locked objects never evicted;
* state durability — spill/reload cycles never lose mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CostModel,
    MobileObject,
    MRTS,
    MRTSConfig,
    handler,
)
from repro.core.spill import evict_now
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


class Tally(MobileObject):
    """Counts invocations; optionally relays to keep traffic flowing."""

    def __init__(self, pointer, payload_bytes=256):
        super().__init__(pointer)
        self.count = 0
        self.payload = bytes(payload_bytes)

    @handler
    def hit(self, ctx, relay_to=None, hops=0):
        self.count += 1
        if relay_to is not None and hops > 0:
            ctx.post(relay_to, "hit", relay_to=self.pointer, hops=hops - 1)


def build(n_nodes, n_objects, memory, cores=1, scheme="lru"):
    cluster = ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(cores=cores, memory_bytes=memory)
    )
    rt = MRTS(cluster, config=MRTSConfig(swap_scheme=scheme))
    ptrs = [
        rt.create_object(Tally, node=k % n_nodes) for k in range(n_objects)
    ]
    return rt, ptrs


@settings(max_examples=15, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),   # target object
            st.integers(min_value=0, max_value=3),   # relay hops
        ),
        min_size=1,
        max_size=40,
    ),
    n_nodes=st.integers(min_value=1, max_value=4),
    scheme=st.sampled_from(["lru", "lfu", "mru", "mu", "lu"]),
)
def test_message_conservation_under_random_storms(plan, n_nodes, scheme):
    """Every posted message (and every relay) executes exactly once."""
    rt, ptrs = build(n_nodes, 8, memory=1 << 22, scheme=scheme)
    expected = 0
    for target, hops in plan:
        rt.post(ptrs[target], "hit", relay_to=ptrs[(target + 1) % 8], hops=hops)
        expected += 1 + hops
    rt.run()
    total = sum(rt.get_object(p).count for p in ptrs)
    assert total == expected
    assert rt.termination.quiescent


@settings(max_examples=10, deadline=None)
@given(
    plan=st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=30
    )
)
def test_conservation_survives_heavy_spilling(plan):
    """Same invariant with memory so tight objects constantly spill."""
    cluster = ClusterSpec(
        n_nodes=2, node=NodeSpec(cores=1, memory_bytes=60_000)
    )
    rt = MRTS(cluster)
    ptrs = [
        rt.create_object(Tally, 15_000, node=k % 2) for k in range(6)
    ]
    for target in plan:
        rt.post(ptrs[target], "hit")
    rt.run()
    counts = [rt.get_object(p).count for p in ptrs]
    assert sum(counts) == len(plan)
    for k, p in enumerate(ptrs):
        assert counts[k] == plan.count(k)
    assert rt.stats.objects_stored > 0  # spilling really happened


def test_virtual_timeline_deterministic():
    """With modeled costs, the whole virtual timeline is a pure function
    of the input (the default cost model measures wall time, which isn't)."""

    class Fixed(CostModel):
        def handler_cost(self, obj, handler_name, msg):
            return 1e-3

    def one_run():
        cluster = ClusterSpec(
            n_nodes=3, node=NodeSpec(cores=1, memory_bytes=200_000)
        )
        rt = MRTS(cluster, cost_model=Fixed())
        ptrs = [rt.create_object(Tally, node=k % 3) for k in range(9)]
        for k, p in enumerate(ptrs):
            rt.post(p, "hit", relay_to=ptrs[(k + 4) % 9], hops=3)
        stats = rt.run()
        return (
            stats.total_time,
            stats.messages_sent,
            stats.objects_stored,
            rt.engine.events_processed,
        )

    assert one_run() == one_run()


def test_locked_objects_survive_arbitrary_pressure():
    rt, ptrs = build(1, 6, memory=120_000)
    # Objects are ~15 KB... make them heavier via posts after locking two.
    class FatModel(CostModel):
        def object_nbytes(self, obj):
            return 30_000

    rt.cost_model = FatModel()
    rt.nodes[0].ooc.lock(ptrs[0].oid)
    rt.nodes[0].ooc.lock(ptrs[1].oid)
    for _ in range(3):
        for p in ptrs:
            rt.post(p, "hit")
    rt.run()
    assert rt.nodes[0].ooc.is_resident(ptrs[0].oid)
    assert rt.nodes[0].ooc.is_resident(ptrs[1].oid)
    assert all(rt.get_object(p).count == 3 for p in ptrs)


def test_forced_eviction_midrun_preserves_state():
    """Failure injection: an adversary spills a hot object between phases;
    its state and pending work must survive."""
    rt, ptrs = build(1, 4, memory=1 << 22)
    for p in ptrs:
        rt.post(p, "hit")
    rt.run()
    victim = ptrs[0]
    nrt = rt.nodes[0]
    # Adversarial spill through the runtime's own machinery.
    evict_now(rt, nrt, victim.oid)
    assert not nrt.ooc.is_resident(victim.oid)
    rt.post(victim, "hit")
    rt.run()
    assert rt.get_object(victim).count == 2


def test_messages_to_destroyed_object_raise_cleanly():
    rt, ptrs = build(1, 2, memory=1 << 22)

    class Killer(MobileObject):
        @handler
        def kill(self, ctx, target):
            ctx.destroy(target)

    killer = rt.create_object(Killer)
    rt.post(killer, "kill", ptrs[0])
    rt.run()
    with pytest.raises(KeyError):
        rt.post(ptrs[0], "hit")


def test_run_twice_without_new_work_is_stable():
    rt, ptrs = build(2, 4, memory=1 << 22)
    rt.post(ptrs[0], "hit")
    first = rt.run().total_time
    second = rt.run().total_time
    assert second == first  # no phantom work appears


@settings(max_examples=8, deadline=None)
@given(cores=st.integers(min_value=1, max_value=4))
def test_more_cores_never_slow_down_compute_bound_work(cores):
    class Costly(CostModel):
        def handler_cost(self, obj, handler_name, msg):
            return 1.0

    def run_with(c):
        cluster = ClusterSpec(
            n_nodes=1, node=NodeSpec(cores=c, memory_bytes=1 << 22)
        )
        rt = MRTS(cluster, cost_model=Costly())
        ptrs = [rt.create_object(Tally) for _ in range(8)]
        for p in ptrs:
            rt.post(p, "hit")
        return rt.run().total_time

    assert run_with(cores) <= run_with(1) + 1e-9
