"""Tests for checkpoint/restore fault tolerance (paper conclusion)."""

import pytest

from repro.core import (
    Checkpoint,
    CheckpointPolicy,
    MobileObject,
    MRTS,
    checkpoint,
    handler,
    restore,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.util.errors import CorruptObject, MRTSError


class Accumulator(MobileObject):
    def __init__(self, pointer, label=""):
        super().__init__(pointer)
        self.label = label
        self.total = 0

    @handler
    def add(self, ctx, amount):
        self.total += amount

    @handler
    def chain(self, ctx, amount, hops, peer):
        self.total += amount
        if hops > 0:
            ctx.post(peer, "chain", amount, hops - 1, self.pointer)


def cluster(n=2, memory=1 << 22):
    return ClusterSpec(n_nodes=n, node=NodeSpec(cores=1, memory_bytes=memory))


def make_app():
    rt = MRTS(cluster())
    ptrs = [rt.create_object(Accumulator, f"acc{k}", node=k % 2) for k in range(4)]
    return rt, ptrs


def test_checkpoint_captures_state_and_restores():
    rt, ptrs = make_app()
    for p in ptrs:
        rt.post(p, "add", 10)
    rt.run()
    snap = checkpoint(rt)
    assert snap.n_objects == 4
    assert snap.pending_messages == 0

    # "Crash": throw the runtime away; restore into a fresh one.
    rt2 = MRTS(cluster())
    restored = restore(snap, rt2)
    assert set(restored) == {p.oid for p in ptrs}
    for p in ptrs:
        assert rt2.get_object(restored[p.oid]).total == 10
        assert rt2.object_location(restored[p.oid]) == rt.object_location(p)


def test_checkpoint_preserves_pending_messages():
    rt, ptrs = make_app()
    # Post but do NOT run: the messages are pending in queues.
    for p in ptrs:
        rt.post(p, "add", 7)
    snap = checkpoint(rt)
    assert snap.pending_messages == 4

    rt2 = MRTS(cluster())
    restored = restore(snap, rt2)
    rt2.run()
    for p in ptrs:
        assert rt2.get_object(restored[p.oid]).total == 7


def test_restored_app_continues_computation():
    """The real fault-tolerance scenario: snapshot mid-computation (between
    phases), lose the runtime, resume from the snapshot, finish."""
    rt, ptrs = make_app()
    rt.post(ptrs[0], "chain", 1, 6, ptrs[1])
    rt.run()  # phase 1 completes: totals 4/3 over the two chain endpoints
    snap = checkpoint(rt)

    rt2 = MRTS(cluster())
    restored = restore(snap, rt2)
    a, b = restored[ptrs[0].oid], restored[ptrs[1].oid]
    rt2.post(a, "chain", 1, 2, b)
    rt2.run()
    total_old = rt.get_object(ptrs[0]).total + rt.get_object(ptrs[1]).total
    total_new = rt2.get_object(a).total + rt2.get_object(b).total
    assert total_new == total_old + 3  # 3 more chain hops landed


def test_checkpoint_roundtrips_through_bytes():
    rt, ptrs = make_app()
    rt.post(ptrs[0], "add", 5)
    rt.run()
    snap = checkpoint(rt)
    data = snap.to_bytes()
    clone = Checkpoint.from_bytes(data)
    assert clone.n_objects == snap.n_objects
    rt2 = MRTS(cluster())
    restored = restore(clone, rt2)
    assert rt2.get_object(restored[ptrs[0].oid]).total == 5


def test_checkpoint_includes_spilled_objects():
    rt = MRTS(cluster(memory=120_000))

    class Blob(MobileObject):
        def __init__(self, pointer, size):
            super().__init__(pointer)
            self.data = bytes(size)

        @handler
        def touch(self, ctx):
            pass

    ptrs = [rt.create_object(Blob, 50_000, node=0) for _ in range(4)]
    for p in ptrs:
        rt.post(p, "touch")
    rt.run()
    assert rt.stats.objects_stored > 0  # some really are on "disk"
    snap = checkpoint(rt)
    rt2 = MRTS(cluster(memory=120_000))
    restored = restore(snap, rt2, class_map={"Blob": Blob})
    # Restoration respects memory: not everything can be resident at once.
    assert len(restored) == 4
    for p in ptrs:
        assert len(rt2.get_object(restored[p.oid]).data) == 50_000


def test_restore_requires_fresh_runtime():
    rt, ptrs = make_app()
    snap = checkpoint(rt)
    with pytest.raises(MRTSError, match="fresh"):
        restore(snap, rt)


def test_restore_requires_enough_nodes():
    rt, _ = make_app()
    snap = checkpoint(rt)
    rt1 = MRTS(cluster(n=1))
    with pytest.raises(MRTSError, match="nodes"):
        restore(snap, rt1)


def test_from_bytes_rejects_garbage():
    import pickle

    with pytest.raises(MRTSError):
        Checkpoint.from_bytes(pickle.dumps({"not": "a checkpoint"}))


def test_from_bytes_rejects_torn_and_unframed_checkpoints():
    """A torn snapshot fails its frame check, and a bare pickle of a
    valid Checkpoint has no frame, so it is rejected too."""
    import pickle

    rt, _ = make_app()
    snap = checkpoint(rt)
    data = snap.to_bytes()
    for cut in (len(data) - 1, len(data) // 2, 3):
        with pytest.raises(CorruptObject):
            Checkpoint.from_bytes(data[:cut])
    with pytest.raises(CorruptObject):
        Checkpoint.from_bytes(pickle.dumps(snap))


def test_new_objects_after_restore_get_fresh_ids():
    rt, ptrs = make_app()
    snap = checkpoint(rt)
    rt2 = MRTS(cluster())
    restore(snap, rt2)
    fresh = rt2.create_object(Accumulator, "new")
    assert fresh.oid not in {p.oid for p in ptrs}


def test_checkpoint_policy_interval():
    rt, ptrs = make_app()
    policy = CheckpointPolicy(rt, interval=3)
    for round_no in range(3):
        for p in ptrs:
            rt.post(p, "add", 1)
        rt.run()
        policy.take_if_due()
    assert policy.snapshots  # 12 messages retired, interval 3
    assert policy.latest.n_objects == 4
    with pytest.raises(ValueError):
        CheckpointPolicy(rt, interval=0)
