"""Tests for the storage layer backends."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CountingBackend, FileBackend, MemoryBackend
from repro.util.errors import ObjectNotFound


@pytest.fixture(params=["memory", "file", "packfile"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    elif request.param == "packfile":
        from repro.core.packfile import PackFileBackend

        yield PackFileBackend()
    else:
        b = FileBackend(tmp_path / "spill")
        yield b
        b.cleanup()


def test_store_load_roundtrip(backend):
    backend.store(1, b"hello world")
    assert backend.load(1) == b"hello world"
    assert backend.contains(1)
    assert backend.size(1) == 11


def test_load_missing_raises(backend):
    with pytest.raises(ObjectNotFound):
        backend.load(99)
    with pytest.raises(ObjectNotFound):
        backend.size(99)


def test_overwrite_replaces(backend):
    backend.store(1, b"aaaa")
    backend.store(1, b"bb")
    assert backend.load(1) == b"bb"
    assert backend.size(1) == 2


def test_delete_is_idempotent(backend):
    backend.store(1, b"x")
    backend.delete(1)
    backend.delete(1)
    assert not backend.contains(1)


def test_stored_ids_and_totals(backend):
    backend.store(1, b"aa")
    backend.store(2, b"bbbb")
    assert sorted(backend.stored_ids()) == [1, 2]
    assert backend.total_bytes() == 6
    assert backend.largest_object() == 4


def test_largest_object_empty(backend):
    assert backend.largest_object() == 0


def test_file_backend_tempdir_selfcleans():
    b = FileBackend()  # own temp dir
    b.store(7, b"data")
    root = b.root
    assert root.exists()
    b.cleanup()
    assert not any(root.glob("obj-*.bin")) if root.exists() else True


def test_file_backend_survives_size_queries(tmp_path):
    b = FileBackend(tmp_path)
    b.store(3, b"12345")
    # Fresh instance over the same directory can still read the file.
    b2 = FileBackend(tmp_path)
    assert b2.load(3) == b"12345"
    assert b2.size(3) == 5


def test_counting_backend_accounts():
    counting = CountingBackend(MemoryBackend())
    counting.store(1, b"abcd")
    counting.store(2, b"xy")
    counting.load(1)
    counting.load(1)
    assert counting.bytes_written == 6
    assert counting.bytes_read == 8
    assert counting.stores == 2
    assert counting.loads == 2
    assert counting.contains(1)
    assert counting.size(2) == 2
    counting.delete(2)
    assert not counting.contains(2)
    assert sorted(counting.stored_ids()) == [1]


@given(
    blobs=st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.binary(min_size=0, max_size=200),
        min_size=1,
        max_size=20,
    )
)
def test_memory_backend_roundtrip_property(blobs):
    """Property: store-then-load returns the exact bytes for every key."""
    backend = MemoryBackend()
    for oid, data in blobs.items():
        backend.store(oid, data)
    for oid, data in blobs.items():
        assert backend.load(oid) == data
    assert backend.total_bytes() == sum(len(d) for d in blobs.values())


# -------------------------------------------------------- batched loads (PR 7)
def test_load_many_is_best_effort(backend):
    backend.store(1, b"aa")
    backend.store(2, b"bbb")
    out = backend.load_many([1, 2, 99])
    assert out == {1: [b"aa"], 2: [b"bbb"]}  # missing oids simply absent


def test_load_many_counting_accounts_found_only():
    counting = CountingBackend(MemoryBackend())
    counting.store(1, b"abcd")
    counting.store(2, b"xy")
    out = counting.load_many([1, 2, 42])
    assert set(out) == {1, 2}
    assert counting.loads == 2  # the missing oid is not charged
    assert counting.bytes_read == 6


def test_load_many_through_full_stack():
    from repro.core.storage import build_storage_stack

    stack = build_storage_stack(MemoryBackend())
    blobs = {oid: bytes([oid]) * 200 for oid in range(5)}
    for oid, blob in blobs.items():
        stack.store(oid, blob)
    stack.append(2, b"tail")  # a delta frame rides along
    out = stack.load_many([0, 2, 4, 77])
    assert b"".join(out[0]) == blobs[0]
    assert b"".join(out[2]) == blobs[2] + b"tail"
    assert b"".join(out[4]) == blobs[4]
    assert 77 not in out


def test_load_many_skips_corrupt_members():
    from repro.core.storage import ChecksummedBackend, encode_frame

    inner = MemoryBackend()
    stack = ChecksummedBackend(inner)
    stack.store(1, b"good payload")
    inner.store(2, encode_frame(b"torn")[:-3])  # torn write residue
    out = stack.load_many([1, 2])
    assert set(out) == {1}
    assert stack.corrupt_loads == 1
