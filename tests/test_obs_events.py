"""Tests for the observability event bus and subscriptions."""

import pytest

from repro.core import MobileObject, MRTS, handler
from repro.obs import EventBus, HandlerSpan
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


class Blob(MobileObject):
    def __init__(self, pointer, size=40_000):
        super().__init__(pointer)
        self.data = bytes(size)
        self.hits = 0

    @handler
    def hit(self, ctx, peer=None):
        self.hits += 1
        if peer is not None:
            ctx.post(peer, "hit")


def build(memory=1 << 22, n_nodes=2):
    cluster = ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(cores=1, memory_bytes=memory)
    )
    return MRTS(cluster)


def test_bus_inactive_by_default():
    rt = build()
    assert rt.bus.active is False
    a = rt.create_object(Blob, node=0)
    rt.post(a, "hit")
    rt.run()  # no subscriber: nothing blows up, nothing is recorded
    assert rt.bus.active is False


def test_subscribe_activates_and_collects():
    rt = build()
    sub = rt.bus.subscribe()
    assert rt.bus.active is True
    a = rt.create_object(Blob, node=0)
    b = rt.create_object(Blob, node=1)
    rt.post(a, "hit", peer=b)
    rt.run()
    kinds = {e.kind for e in sub.events}
    assert "handler" in kinds
    assert "send" in kinds
    assert "queue" in kinds
    handlers = [e for e in sub.events if e.kind == "handler"]
    assert [e.handler for e in handlers] == ["hit", "hit"]


def test_disk_spans_record_stores_and_loads_when_spilling():
    rt = build(memory=100_000, n_nodes=1)
    sub = rt.bus.subscribe(kinds={"disk"})
    for _ in range(4):
        rt.post(rt.create_object(Blob, 40_000), "hit")
    rt.run()
    stores = sum(1 for e in sub.events if e.is_store)
    loads = sum(1 for e in sub.events if not e.is_store)
    assert stores > 0 and loads > 0
    assert stores == rt.stats.objects_stored
    assert loads == rt.stats.objects_loaded
    assert all(e.span_s >= 0 and e.nbytes > 0 for e in sub.events)


def test_unsubscribe_deactivates_and_is_idempotent():
    rt = build()
    sub = rt.bus.subscribe()
    sub.close()
    assert rt.bus.active is False
    assert sub.attached is False
    sub.close()  # second close is a no-op
    a = rt.create_object(Blob, node=0)
    rt.post(a, "hit")
    rt.run()
    assert len(sub.events) == 0


def test_ring_buffer_bounds_and_counts_drops():
    rt = build()
    everything = rt.bus.subscribe()
    sub = rt.bus.subscribe(capacity=5)
    a = rt.create_object(Blob, node=0)
    b = rt.create_object(Blob, node=1)
    for _ in range(4):
        rt.post(a, "hit", peer=b)
    rt.run()
    assert len(sub.events) == 5
    assert sub.dropped == len(everything.events) - 5
    assert sub.dropped > 0
    assert everything.dropped == 0  # unbounded unless a capacity is given
    # The ring sheds the oldest: what remains is the stream's tail.
    assert list(sub.events) == list(everything.events)[-5:]


def test_kind_filter():
    rt = build()
    sub = rt.bus.subscribe(kinds={"handler"})
    a = rt.create_object(Blob, node=0)
    b = rt.create_object(Blob, node=1)
    rt.post(a, "hit", peer=b)
    rt.run()
    assert sub.events
    assert all(e.kind == "handler" for e in sub.events)
    assert all(isinstance(e, HandlerSpan) for e in sub.events)


def test_callback_mode_bypasses_buffer():
    rt = build()
    seen = []
    sub = rt.bus.subscribe(callback=seen.append)
    a = rt.create_object(Blob, node=0)
    rt.post(a, "hit")
    rt.run()
    assert seen
    assert len(sub.events) == 0


def test_subscription_context_manager_detaches_on_exception():
    rt = build()
    with pytest.raises(RuntimeError):
        with rt.bus.subscribe() as sub:
            raise RuntimeError("boom")
    assert rt.bus.active is False
    assert sub.attached is False


def test_invalid_capacity_rejected():
    bus = EventBus()
    with pytest.raises(ValueError):
        bus.subscribe(capacity=0)


def test_shared_bus_across_runtimes():
    """One bus can observe several runtime incarnations (recovery case)."""
    bus = EventBus()
    sub = bus.subscribe()
    for _ in range(2):
        rt = MRTS(
            ClusterSpec(n_nodes=1, node=NodeSpec(cores=1,
                                                 memory_bytes=1 << 22)),
            bus=bus,
        )
        a = rt.create_object(Blob, node=0)
        rt.post(a, "hit")
        rt.run()
    handlers = [e for e in sub.events if e.kind == "handler"]
    assert len(handlers) == 2


def test_events_are_frozen():
    rt = build()
    sub = rt.bus.subscribe(kinds={"handler"})
    a = rt.create_object(Blob, node=0)
    rt.post(a, "hit")
    rt.run()
    event = sub.events[0]
    with pytest.raises(AttributeError):
        event.node = 99
