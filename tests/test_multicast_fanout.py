"""Tests for fanout multicast (the ghost-exchange push primitive).

Covers delivery semantics (every target, no gather migration), the
control-layer batching contract (one wire send per destination node
regardless of subscriber count), interaction with migration via
stale-hint forwarding, and speculation (a fanout buffered in a
speculative outbox dispatches exactly once, at commit).
"""

import pytest

from repro.core import MobileObject, MRTS, handler
from repro.core.config import MRTSConfig
from repro.core.control import post_message
from repro.core.messages import Message, MulticastMessage
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec


class Leaf(MobileObject):
    def __init__(self, ptr):
        super().__init__(ptr)
        self.hits = 0
        self.payloads = []

    @handler
    def poke(self, ctx, payload=None):
        self.hits += 1
        self.payloads.append(payload)


class Root(MobileObject):
    @handler
    def fan(self, ctx, leaves, payload=None):
        ctx.post_multicast(leaves, "poke", 1, payload, mode="fanout")

    @handler
    def fan_spec(self, ctx, leaves, payload=None):
        # Executed speculatively, the fanout lands in the record's
        # outbox and must only reach the leaves if the record commits.
        ctx.post_multicast(leaves, "poke", 1, payload, mode="fanout")


def small_cluster(n_nodes=2, cores=1, memory=1 << 22):
    return ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(cores=cores, memory_bytes=memory)
    )


def test_fanout_delivers_to_every_target():
    rt = MRTS(small_cluster(2))
    leaves = [rt.create_object(Leaf, node=k % 2) for k in range(5)]
    root = rt.create_object(Root, node=0)
    rt.post(root, "fan", leaves, "strip")
    rt.run()
    for p in leaves:
        obj = rt.get_object(p)
        assert obj.hits == 1
        assert obj.payloads == ["strip"]


def test_fanout_does_not_gather_targets():
    """Unlike collect mode, fanout must leave every target in place."""
    rt = MRTS(small_cluster(3))
    leaves = [rt.create_object(Leaf, node=k % 3) for k in range(6)]
    root = rt.create_object(Root, node=0)
    rt.post(root, "fan", leaves)
    rt.run()
    for k, p in enumerate(leaves):
        assert rt.object_location(p) == k % 3
        assert rt.get_object(p).hits == 1


def test_fanout_batches_one_send_per_remote_node():
    """Four subscribers on one remote node cost one control-layer send."""
    rt = MRTS(small_cluster(2))
    leaves = [rt.create_object(Leaf, node=1) for _ in range(4)]
    root = rt.create_object(Root, node=0)
    rt.post(root, "fan", leaves, "payload-once")
    stats = rt.run()
    assert stats.multicast_sends == 1
    assert all(rt.get_object(p).hits == 1 for p in leaves)


def test_fanout_send_count_scales_with_nodes_not_targets():
    rt = MRTS(small_cluster(3))
    # Two subscribers on each of nodes 1 and 2, plus two local ones.
    leaves = [rt.create_object(Leaf, node=n) for n in (0, 0, 1, 1, 2, 2)]
    root = rt.create_object(Root, node=0)
    rt.post(root, "fan", leaves)
    stats = rt.run()
    assert stats.multicast_sends == 2
    assert all(rt.get_object(p).hits == 1 for p in leaves)


def test_fanout_local_only_costs_no_wire_sends():
    rt = MRTS(small_cluster(2))
    leaves = [rt.create_object(Leaf, node=0) for _ in range(3)]
    root = rt.create_object(Root, node=0)
    rt.post(root, "fan", leaves)
    stats = rt.run()
    assert stats.multicast_sends == 0
    assert all(rt.get_object(p).hits == 1 for p in leaves)


def test_fanout_follows_migrated_subscriber():
    """A stale directory hint must not lose a fanout sub-message."""
    rt = MRTS(small_cluster(3))
    leaf = rt.create_object(Leaf, node=0)
    root = rt.create_object(Root, node=1)
    rt.post(leaf, "poke")  # teach node 1's tables where the leaf lives
    rt.run()
    rt.migrate(leaf, 2)
    rt.post(root, "fan", [leaf])
    rt.run()
    assert rt.get_object(leaf).hits == 2
    assert rt.object_location(leaf) == 2


def test_fanout_nbytes_charges_payload_once():
    """Wire size grows with header-per-target, not payload-per-target."""
    payload = ("x" * 100,)
    one = MulticastMessage(
        targets=["t0"], handler="poke", args=payload, mode="fanout",
    )
    four = MulticastMessage(
        targets=["t0", "t1", "t2", "t3"], handler="poke", args=payload,
        mode="fanout",
    )
    growth = four.nbytes() - one.nbytes()
    # Three extra subscribers cost three 16 B headers, not 3x payload.
    assert growth == 3 * 16


def test_fanout_forces_full_deliver_count():
    msg = MulticastMessage(
        targets=["a", "b", "c"], handler="poke", deliver_count=1,
        mode="fanout",
    )
    assert msg.deliver_count == 3


def test_unknown_multicast_mode_rejected():
    with pytest.raises(ValueError, match="unknown multicast mode"):
        MulticastMessage(targets=["a"], handler="poke", mode="scatter")


# --------------------------------------------------------------- speculation
def _spec_runtime(force_abort=False):
    rt = MRTS(small_cluster(2), config=MRTSConfig(speculation=True))
    rt.speculation.force_abort = force_abort
    return rt


def _post_speculative(rt, ptr, handler_name, *args):
    msg = Message(ptr, handler_name, args, {}, source_node=-1)
    msg.speculative = True
    post_message(rt, msg, rt.directory.location(ptr.oid))


def test_speculative_fanout_dispatches_on_commit():
    rt = _spec_runtime()
    root = rt.create_object(Root, node=0)
    leaves = [rt.create_object(Leaf, node=k % 2) for k in range(4)]
    _post_speculative(rt, root, "fan_spec", leaves, "ghost")
    rt.run()
    assert rt.stats.spec_committed == 1
    for p in leaves:
        obj = rt.get_object(p)
        assert obj.hits == 1
        assert obj.payloads == ["ghost"]


def test_speculative_fanout_not_duplicated_by_forced_abort():
    """Abort discards the buffered fanout; the re-run delivers it once."""
    rt = _spec_runtime(force_abort=True)
    root = rt.create_object(Root, node=0)
    leaves = [rt.create_object(Leaf, node=k % 2) for k in range(4)]
    _post_speculative(rt, root, "fan_spec", leaves)
    rt.run()
    assert rt.stats.spec_aborted >= 1
    assert all(rt.get_object(p).hits == 1 for p in leaves)
