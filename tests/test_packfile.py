"""Tests for the locality-aware pack-file backend (PR 7).

Covers the Morton curve, segment layout (bucketing, sealing, dead-byte
accounting), curve neighborhoods, batched loads, and — the part the chaos
matrix leans on — abort-safe compaction: a compactor killed mid-rewrite
must leave the old layout byte-for-byte intact.  The last section covers
the medium itself, a temporary file: when it is opened and closed, how a
failed write or compaction leaves the store, and that runs do not leak
file descriptors.
"""

import errno
import gc
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MRTS, MobileObject, handler
from repro.core.packfile import PackFileBackend, morton2
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel
from repro.util.errors import ObjectNotFound, StorageFull


# ---------------------------------------------------------------- morton2
def test_morton2_interleaves_bits():
    assert morton2(0, 0) == 0
    assert morton2(1, 0) == 1
    assert morton2(0, 1) == 2
    assert morton2(1, 1) == 3
    assert morton2(2, 0) == 4
    # i=0b11 fills even bit positions, j=0b101 odd ones -> 0b100111
    assert morton2(3, 5) == 0b100111


def test_morton2_clusters_grid_blocks():
    # A 2x2 grid block is contiguous on the curve when block-aligned.
    codes = sorted(morton2(i, j) for i in (4, 5) for j in (6, 7))
    assert codes == list(range(codes[0], codes[0] + 4))


# ----------------------------------------------------------- basic layout
def test_store_rewrite_tracks_dead_bytes():
    pf = PackFileBackend()
    pf.store(1, b"hello")
    assert (pf.live_bytes, pf.dead_bytes) == (5, 0)
    pf.store(1, b"world!")
    assert pf.load(1) == b"world!"
    assert (pf.live_bytes, pf.dead_bytes) == (6, 5)


def test_append_keeps_one_extent():
    pf = PackFileBackend()
    pf.append(7, b"abc")
    pf.append(7, b"def")
    assert pf.load(7) == b"abcdef"
    assert pf.load_segments(7) == [b"abcdef"]
    assert pf.dead_bytes == 3  # the first copy moved to the tail


def test_missing_oid_raises_and_delete_is_tolerant():
    pf = PackFileBackend()
    with pytest.raises(ObjectNotFound):
        pf.load(99)
    with pytest.raises(ObjectNotFound):
        pf.size(99)
    pf.delete(99)  # runtime deletes unconditionally on migrate/destroy


def test_same_bucket_objects_share_a_segment():
    pf = PackFileBackend(bucket_shift=4)
    pf.note_locality(1, 3)
    pf.note_locality(2, 5)      # same bucket: 3 >> 4 == 5 >> 4 == 0
    pf.note_locality(3, 1000)   # a far bucket
    for oid in (1, 2, 3):
        pf.store(oid, bytes(16))
    e1, e2, e3 = (pf._extents[oid] for oid in (1, 2, 3))
    assert e1.seg == e2.seg
    assert e3.seg != e1.seg


def test_full_segment_is_sealed():
    pf = PackFileBackend(segment_bytes=32)
    pf.store(1, bytes(32))  # fills and seals the open segment
    pf.store(2, bytes(8))   # must open a fresh one (same default bucket)
    assert pf._extents[1].seg != pf._extents[2].seg
    assert pf.segments_created == 2


# ------------------------------------------------------------ neighborhood
def test_neighborhood_walks_curve_nearest_first():
    pf = PackFileBackend()
    for oid, key in [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]:
        pf.note_locality(oid, key)
        pf.store(oid, b"x")
    assert pf.neighborhood(3, 2) == [2, 4]   # equidistant: lower side first
    assert pf.neighborhood(1, 2) == [2, 3]   # walks outward past the edge
    assert pf.neighborhood(3, 99) == [2, 4, 1, 5]  # self excluded
    assert pf.neighborhood(3, 0) == []


def test_neighborhood_anchors_unstored_oid_at_its_key():
    pf = PackFileBackend()
    for oid, key in [(1, 10), (2, 20), (3, 30)]:
        pf.note_locality(oid, key)
        pf.store(oid, b"x")
    pf.note_locality(9, 21)  # never stored
    assert pf.neighborhood(9, 2) == [2, 3]


def test_note_locality_reorders_stored_object():
    pf = PackFileBackend()
    for oid, key in [(1, 10), (2, 20), (3, 30)]:
        pf.note_locality(oid, key)
        pf.store(oid, b"x")
    pf.note_locality(1, 29)  # hop next to 3
    assert pf.neighborhood(3, 1) == [1]


# -------------------------------------------------------------- compaction
def _churn(pf, rounds=3, n=8, size=24):
    blobs = {oid: bytes([65 + oid]) * size for oid in range(n)}
    for _ in range(rounds):
        for oid, blob in blobs.items():
            pf.store(oid, blob)
    return blobs


def test_compaction_reclaims_dead_bytes_and_preserves_data():
    pf = PackFileBackend(segment_bytes=64, compact_ratio=0.3)
    blobs = _churn(pf)
    assert pf.compactions >= 1  # the rewrite churn must have triggered it
    for oid, blob in blobs.items():
        assert pf.load(oid) == blob
    assert pf.live_bytes == sum(len(b) for b in blobs.values())


def test_compaction_orders_extents_along_the_curve():
    pf = PackFileBackend(segment_bytes=1 << 20)
    # Store in curve-reverse order, then compact: physical order flips.
    for oid, key in [(1, 30), (2, 20), (3, 10)]:
        pf.note_locality(oid, key)
        pf.store(oid, bytes(8))
    pf.compact()
    offs = {oid: pf._extents[oid].off for oid in (1, 2, 3)}
    assert offs[3] < offs[2] < offs[1]
    assert pf.dead_bytes == 0


def test_killed_compaction_is_abort_safe():
    pf = PackFileBackend(
        segment_bytes=64, compact_ratio=0.3, fail_compaction_at=1
    )
    blobs = _churn(pf)
    assert pf.compaction_aborts == 1  # attempt 1 died mid-rewrite
    for oid, blob in blobs.items():  # ...and the old layout survived
        assert pf.load(oid) == blob
    pf.compact()  # attempts after the first run clean
    assert pf.dead_bytes == 0
    for oid, blob in blobs.items():
        assert pf.load(oid) == blob


def test_explicit_compact_kill_propagates():
    pf = PackFileBackend(fail_compaction_at=1)
    pf.store(1, b"abcd")
    with pytest.raises(RuntimeError):
        pf.compact()
    assert pf.load(1) == b"abcd"
    pf.compact()
    assert pf.load(1) == b"abcd"


# --------------------------------------------------------------- load_many
def test_load_many_groups_by_segment_and_skips_missing():
    pf = PackFileBackend()
    for oid in range(6):
        pf.store(oid, bytes([oid]) * 4)
    out = pf.load_many([1, 3, 99])
    assert out == {1: [b"\x01" * 4], 3: [b"\x03" * 4]}
    assert pf.batch_loads == 1
    assert pf.segments_touched == 1  # default keys cohabit one segment


def test_load_many_empty_batch():
    pf = PackFileBackend()
    assert pf.load_many([]) == {}
    assert pf.batch_loads == 0


# ----------------------------------------------------- model-based property
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["store", "append", "delete", "compact"]),
        st.integers(min_value=0, max_value=7),
        st.binary(max_size=32),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_packfile_matches_dict_model(ops):
    """Under any op interleaving the store behaves as a plain dict."""
    pf = PackFileBackend(segment_bytes=128, compact_ratio=0.4)
    model: dict[int, bytes] = {}
    for op, oid, blob in ops:
        if op == "store":
            pf.store(oid, blob)
            model[oid] = blob
        elif op == "append":
            pf.append(oid, blob)
            model[oid] = model.get(oid, b"") + blob
        elif op == "delete":
            pf.delete(oid)
            model.pop(oid, None)
        else:
            pf.compact()
    assert {oid: pf.load(oid) for oid in pf.stored_ids()} == model
    assert pf.live_bytes == sum(len(b) for b in model.values())
    assert pf.total_bytes() == pf.live_bytes
    assert pf.largest_object() == max(
        (len(b) for b in model.values()), default=0
    )


# ------------------------------------------------------------- the medium
def _layout(pf):
    return (
        {oid: (e.seg, e.off, e.length, e.pos) for oid, e in pf._extents.items()},
        pf.live_bytes, pf.dead_bytes, pf.segments_created, dict(pf._open),
    )


def test_no_file_before_the_first_store():
    pf = PackFileBackend()
    pf.delete(1)
    pf.note_locality(1, 5)
    assert pf.load_many([1]) == {}
    with pytest.raises(ObjectNotFound):
        pf.load(1)
    pf.compact()
    assert pf._file is None
    pf.store(1, b"abc")
    assert pf._file is not None and pf.load(1) == b"abc"


def test_compact_closes_the_file_it_replaces():
    pf = PackFileBackend()
    pf.store(1, b"abc")
    pf.store(1, b"abcd")
    old = pf._file
    pf.compact()
    assert old.closed and not pf._file.closed
    assert pf.load(1) == b"abcd"
    pf.delete(1)
    current = pf._file
    pf.compact()  # nothing live: no new file until the next write
    assert current.closed and pf._file is None


def test_os_error_in_compaction_aborts_and_closes_the_side_file(monkeypatch):
    pf = PackFileBackend(segment_bytes=64, compact_ratio=0.3)
    blobs = {oid: bytes([65 + oid]) * 24 for oid in range(8)}
    for oid, blob in blobs.items():
        pf.store(oid, blob)
    sides = []  # (file, fd) of every compaction side file
    real_temporary_file, real_pwrite = tempfile.TemporaryFile, os.pwrite

    def side_file():
        fh = real_temporary_file()
        sides.append((fh, fh.fileno()))
        return fh

    def pwrite(fd, data, pos):  # the first side file's first write fails
        if len(sides) == 1 and fd == sides[0][1] and not sides[0][0].closed:
            raise OSError(errno.EIO, "injected I/O error")
        return real_pwrite(fd, data, pos)

    monkeypatch.setattr(tempfile, "TemporaryFile", side_file)
    monkeypatch.setattr(os, "pwrite", pwrite)
    attempts = pf.compaction_attempts
    while pf.compaction_attempts == attempts:  # churn until one is tried
        for oid, blob in blobs.items():
            pf.store(oid, blob)
    assert pf.compaction_aborts == 1
    assert sides[0][0].closed and pf._file is not sides[0][0]
    for oid, blob in blobs.items():
        assert pf.load(oid) == blob


@pytest.mark.parametrize(
    "code", [errno.ENOSPC, errno.EDQUOT], ids=["ENOSPC", "EDQUOT"]
)
def test_full_medium_raises_storage_full_and_changes_nothing(
    monkeypatch, code
):
    pf = PackFileBackend()
    pf.store(1, b"one")
    pf.store(2, b"two")
    before = _layout(pf)

    def full(*args):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "pwrite", full)
    monkeypatch.setattr(os, "pwritev", full)
    for op, oid in (("store", 3), ("store", 1), ("append", 2)):
        with pytest.raises(StorageFull):
            getattr(pf, op)(oid, b"more")
        assert _layout(pf) == before
    monkeypatch.undo()
    pf.append(2, b"!")
    assert (pf.load(1), pf.load(2)) == (b"one", b"two!")


class _Blob(MobileObject):
    def __init__(self, ptr):
        super().__init__(ptr)
        self.blob = bytes(4000)

    @handler
    def touch(self, ctx):
        self.blob = bytes(4000)


def _spilling_run() -> MRTS:
    rt = MRTS(
        ClusterSpec(n_nodes=1, node=NodeSpec(cores=1, memory_bytes=12_000)),
        cost_model=FixedCostModel(1e-4),
    )
    ptrs = [rt.create_object(_Blob) for _ in range(6)]
    for ptr in ptrs:
        rt.post(ptr, "touch")
    rt.run()
    return rt


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_dropped_runs_leave_no_open_files():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    assert _spilling_run().nodes[0].packfile._file is not None  # it spills
    gc.collect()
    before = open_fds()
    for _ in range(200):
        _spilling_run()
    gc.collect()
    assert open_fds() == before
