"""Property tests for the pluggable codec registry (PR 4).

Every registered codec must satisfy the Serializer contract:

* ``unpack(pack(state)) == state`` for arbitrary states of its shape;
* for delta-capable codecs, an append-log of ``[full, delta, delta...]``
  segments reassembles through ``unpack_segments`` to exactly the state a
  single full pack would produce — including after compaction (a fresh
  full pack of the evolved state);
* ``size_estimate`` (when provided) is a positive int;
* packs survive the compression tier and the CRC32 frame layer, and a
  corrupted compressed frame is *rejected*, never silently inflated;
* a :class:`PointColumn` and the list it was built from are one value to
  the ``mesh-patch`` codec — same bytes, same points back, bit for bit —
  and both are what the per-point codec in ``oracles.py`` produced.
"""

import copy
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from oracles import mesh_patch_decode_per_point, mesh_patch_encode_per_point
from repro.core.codec import (
    AppendStateCodec,
    BytesAppendCodec,
    MeshPatchCodec,
    PointColumn,
    _REGISTRY,
    get_codec,
    register_codec,
)
from repro.core.storage import (
    ChecksummedBackend,
    CompressingBackend,
    CompressionPolicy,
    FLAG_COMPRESSED,
    MemoryBackend,
)
from repro.util.errors import CorruptObject, SerializationError

FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=32)
POINTS = st.lists(st.tuples(FLOATS, FLOATS), max_size=40)
RESIDUE = st.dictionaries(
    st.sampled_from(["region_id", "round", "name", "flag"]),
    st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
    max_size=4,
)
PLAIN_STATES = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(st.integers(), st.binary(max_size=64), st.text(max_size=16),
              st.lists(st.integers(), max_size=8)),
    max_size=5,
)


def mesh_state(points, residue):
    state = dict(residue)
    state["points"] = [(float(x), float(y)) for x, y in points]
    return state


def bytes_state(payload, residue):
    state = dict(residue)
    state["payload"] = payload
    return state


# ------------------------------------------------------------- round trips
@given(state=PLAIN_STATES)
def test_pickle_round_trip(state):
    codec = get_codec("pickle")
    assert codec.unpack(codec.pack(state)) == state


@given(points=POINTS, residue=RESIDUE)
def test_mesh_patch_round_trip(points, residue):
    codec = get_codec("mesh-patch")
    state = mesh_state(points, residue)
    assert codec.unpack(codec.pack(state)) == state


@given(payload=st.binary(max_size=512), residue=RESIDUE)
def test_bytes_append_round_trip(payload, residue):
    codec = get_codec("bytes-append")
    state = bytes_state(payload, residue)
    assert codec.unpack(codec.pack(state)) == state


@given(state=PLAIN_STATES)
def test_snapshot_delta_round_trip(state):
    codec = get_codec("snapshot-delta")
    assert codec.unpack(codec.pack(state)) == state


def test_every_registered_codec_round_trips():
    """Each registry entry round-trips a state of its expected shape."""
    shapes = {
        "pickle": {"region_id": 7, "data": b"abc"},
        "snapshot-delta": {"region_id": 7, "elements": 12.5},
        "mesh-patch": mesh_state([(0.5, 1.5), (2.0, -3.0)], {"region_id": 7}),
        "bytes-append": bytes_state(b"grow" * 4, {"hits": 2}),
    }
    assert set(shapes) == set(_REGISTRY)
    for name, codec in _REGISTRY.items():
        state = shapes[name]
        assert codec.unpack(codec.pack(state)) == state, name


# ---------------------------------------------------------- delta contract
@settings(max_examples=60)
@given(
    start=POINTS,
    appends=st.lists(POINTS, min_size=1, max_size=4),
    residue=RESIDUE,
)
def test_mesh_patch_delta_log_equals_full_pack(start, appends, residue):
    codec = get_codec("mesh-patch")
    state = mesh_state(start, residue)
    segments = [codec.pack(state)]
    for i, extra in enumerate(appends):
        token = codec.delta_token(state)
        state = dict(state, points=state["points"]
                     + [(float(x), float(y)) for x, y in extra])
        state["round"] = i  # residue churns between spills too
        delta = codec.pack_delta(state, token)
        assert delta is not None
        segments.append(delta)
    assert codec.unpack_segments(segments) == state
    # Compaction equivalence: a fresh full pack of the evolved state
    # must describe the identical state in one segment.
    assert codec.unpack(codec.pack(state)) == state


@settings(max_examples=60)
@given(
    start=st.binary(max_size=128),
    appends=st.lists(st.binary(min_size=1, max_size=64),
                     min_size=1, max_size=4),
)
def test_bytes_append_delta_log_equals_full_pack(start, appends):
    codec = get_codec("bytes-append")
    state = bytes_state(start, {"hits": 0})
    segments = [codec.pack(state)]
    for chunk in appends:
        token = codec.delta_token(state)
        state = bytes_state(state["payload"] + chunk,
                            {"hits": state["hits"] + 1})
        segments.append(codec.pack_delta(state, token))
    assert codec.unpack_segments(segments) == state


def test_snapshot_delta_last_writer_wins():
    codec = get_codec("snapshot-delta")
    segs = [codec.pack({"round": i}) for i in range(4)]
    assert codec.unpack_segments(segs) == {"round": 3}


def test_pack_delta_rejects_foreign_tokens_with_full_spill():
    codec = get_codec("mesh-patch")
    state = mesh_state([(1.0, 2.0)], {})
    assert codec.pack_delta(state, 5) is None     # token beyond the items
    assert codec.pack_delta(state, -1) is None
    assert codec.pack_delta(state, "base") is None


def test_size_estimates_are_positive_and_track_growth():
    mesh = get_codec("mesh-patch")
    small = mesh.size_estimate(mesh_state([(0.0, 0.0)], {}))
    big = mesh.size_estimate(mesh_state([(0.0, 0.0)] * 100, {}))
    assert 0 < small < big
    assert big - small == 99 * 16  # 16 B per appended point
    assert get_codec("pickle").size_estimate({"a": 1}) is None


def test_mesh_patch_rejects_malformed_states():
    codec = get_codec("mesh-patch")
    with pytest.raises(SerializationError):
        codec.pack({"no_points_field": 1})
    with pytest.raises(SerializationError):
        codec.pack(mesh_state([], {}) | {"points": [(1.0, 2.0, 3.0)]})
    with pytest.raises(SerializationError):
        codec.unpack_segments([])


def test_registry_lookup_and_collision():
    assert sorted(_REGISTRY) == [
        "bytes-append", "mesh-patch", "pickle", "snapshot-delta",
    ]
    with pytest.raises(KeyError, match="no codec registered"):
        get_codec("nope")
    with pytest.raises(ValueError, match="already registered"):
        register_codec("pickle", get_codec("pickle"))
    register_codec("pickle", get_codec("pickle"), replace=True)  # allowed


# ------------------------------------- codecs x compression x frame x CRC
def _stack():
    inner = MemoryBackend()
    frames = ChecksummedBackend(inner)
    comp = CompressingBackend(frames, CompressionPolicy(min_bytes=64))
    return inner, frames, comp


@settings(max_examples=40)
@given(
    start=st.binary(min_size=200, max_size=400),
    appends=st.lists(st.binary(min_size=80, max_size=200),
                     min_size=1, max_size=3),
)
def test_delta_log_through_compressed_checksummed_stack(start, appends):
    """Full store + delta appends, stored compressed, reassemble exactly."""
    codec = BytesAppendCodec()
    # Compressible payloads: repeat each drawn chunk.
    state = bytes_state(start * 8, {"hits": 0})
    _, _, comp = _stack()
    comp.store(1, codec.pack(state))
    for chunk in appends:
        token = codec.delta_token(state)
        state = bytes_state(state["payload"] + chunk * 8,
                            {"hits": state["hits"] + 1})
        comp.append(1, codec.pack_delta(state, token))
    assert codec.unpack_segments(comp.load_segments(1)) == state
    assert comp.compressed_frames > 0
    assert comp.bytes_out < comp.bytes_in  # the tier actually shrank bytes


@settings(max_examples=40)
@given(points=st.lists(st.tuples(FLOATS, FLOATS), min_size=30, max_size=80),
       data=st.data())
def test_corrupt_compressed_frame_is_rejected_not_inflated(points, data):
    codec = MeshPatchCodec()
    payload = codec.pack(mesh_state(points, {"region_id": 3}))
    inner, frames, comp = _stack()
    comp.store(1, payload)
    raw = bytearray(inner.load(1))
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1),
                    label="corrupt_at")
    raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255),
                          label="xor")
    inner.store(1, bytes(raw))
    with pytest.raises(CorruptObject):
        comp.load_segments(1)
    assert frames.corrupt_loads > 0


def test_tiny_and_incompressible_payloads_stay_raw():
    import random

    _, _, comp = _stack()
    comp.store(1, b"x" * 16)  # below min_bytes
    noise = random.Random(0).randbytes(4096)
    comp.store(2, noise)      # deflate cannot shrink it
    assert comp.raw_frames == 2 and comp.compressed_frames == 0
    assert comp.load(1) == b"x" * 16
    assert comp.load(2) == noise


def test_compressed_flag_is_set_on_the_frame():
    inner, frames, comp = _stack()
    comp.store(1, bytes(2048))
    from repro.core.storage import decode_frame_ex

    _, flags = decode_frame_ex(inner.load(1))
    assert flags & FLAG_COMPRESSED


def test_append_state_codec_base_defaults():
    codec = AppendStateCodec()
    state = {"items": [1, 2, 3], "tag": "x"}
    assert codec.unpack(codec.pack(state)) == state
    assert codec.size_estimate(state) is None  # no fixed per-item size
    token = codec.delta_token(state)
    grown = {"items": [1, 2, 3, 4], "tag": "y"}
    assert codec.unpack_segments(
        [codec.pack(state), codec.pack_delta(grown, token)]
    ) == grown


# ------------------------------------------- PointColumn == list == oracle
def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(points) -> list[tuple[bytes, bytes]]:
    """Points as raw float64 bit patterns: ``-0.0`` is not ``0.0`` and a
    NaN equals itself, payload included."""
    return [(struct.pack("<d", x), struct.pack("<d", y)) for x, y in points]


# Every float64 there is: signed zeros, infinities, subnormals, and NaNs
# with arbitrary payload bits (Hypothesis's own NaN is one bit pattern).
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 5e-324,
                     -5e-324, 2.2250738585072009e-308]),
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF).map(_from_bits),
    st.integers(0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF).map(_from_bits),
)
ANY_POINTS = st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), max_size=40)


@given(points=ANY_POINTS)
def test_column_list_and_oracle_encode_to_the_same_bytes(points):
    codec = get_codec("mesh-patch")
    want = mesh_patch_encode_per_point(points)
    assert codec.encode_items(points) == want
    assert codec.encode_items(PointColumn(points)) == want
    assert codec.encode_items(tuple(points)) == want


@given(points=ANY_POINTS)
def test_decode_equals_the_oracle_point_for_point(points):
    codec = get_codec("mesh-patch")
    data = mesh_patch_encode_per_point(points)
    want = _bits(mesh_patch_decode_per_point(data))
    assert want == _bits(points)
    for view in (data, bytearray(data), memoryview(data)):
        column = codec.decode_items(view)
        assert isinstance(column, PointColumn)
        assert len(column) == len(points)
        assert _bits(column) == want                       # iteration
        assert _bits(column[i] for i in range(len(column))) == want
        assert _bits(column[-i - 1] for i in range(len(column))) == want[::-1]


@settings(max_examples=60)
@given(start=ANY_POINTS, appends=st.lists(ANY_POINTS, max_size=4),
       residue=RESIDUE)
def test_base_plus_delta_segments_reassemble_to_the_full_pack(
        start, appends, residue):
    codec = get_codec("mesh-patch")
    column, as_list = PointColumn(start), list(start)
    state = dict(residue, points=column)
    segments = [codec.pack(state)]
    for extra in appends:
        token = codec.delta_token(state)
        column.extend(extra)
        as_list.extend(extra)
        segments.append(codec.pack_delta(state, token))
        # A list-holding caller produces the very same delta segment.
        assert segments[-1] == codec.pack_delta(
            dict(residue, points=as_list), token)
    full = codec.pack(state)
    assert full == codec.pack(dict(residue, points=as_list))
    rebuilt = codec.unpack_segments(segments)
    assert codec.pack(rebuilt) == full
    assert _bits(rebuilt["points"]) == _bits(as_list)
    assert codec.size_estimate(state) == codec.size_estimate(
        dict(residue, points=as_list))


@given(points=ANY_POINTS, cut=st.data())
def test_column_reads_like_the_list_it_replaces(points, cut):
    column = PointColumn(points)
    n = len(points)
    lo = cut.draw(st.integers(-n - 2, n + 2), label="lo")
    hi = cut.draw(st.integers(-n - 2, n + 2), label="hi")
    for piece, want in ((column[lo:hi], points[lo:hi]),
                        (column[lo:], points[lo:]), (column[:hi], points[:hi])):
        assert isinstance(piece, PointColumn)
        assert _bits(piece) == _bits(want)
    with pytest.raises(ValueError):
        column[::2]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            column[bad]
    # Copies and pickles are columns over the same bits.
    for twin in (copy.deepcopy(column), pickle.loads(pickle.dumps(column)),
                 PointColumn(column)):
        assert isinstance(twin, PointColumn) and twin is not column
        assert twin.flat is not column.flat
        assert _bits(twin) == _bits(points)


@given(points=POINTS, other=POINTS)
def test_column_equality_against_columns_and_lists(points, other):
    column = PointColumn(points)
    assert column == points and points == column
    assert column == PointColumn(points)
    assert (column == PointColumn(other)) == (points == other)
    assert (column == other) == (points == other)
    assert (column != other) == (points != other)
    assert column != tuple(points) or not points  # only lists and columns
    with pytest.raises(TypeError):
        hash(column)


@given(points=ANY_POINTS, at=st.data(),
       bad=st.sampled_from([(1.0,), (1.0, 2.0, 3.0), ()]))
def test_a_point_that_is_not_a_pair_is_refused_everywhere(points, at, bad):
    codec = get_codec("mesh-patch")
    pos = at.draw(st.integers(0, len(points)), label="pos")
    poisoned = points[:pos] + [bad] + points[pos:]
    column = PointColumn(points)
    with pytest.raises(SerializationError):
        column.append(bad)
    with pytest.raises(SerializationError):
        column.extend(poisoned)
    with pytest.raises(SerializationError):
        column.extend(iter(poisoned))
    with pytest.raises(SerializationError):
        PointColumn(poisoned)
    assert _bits(column) == _bits(points)  # a refused call appends nothing
    with pytest.raises(SerializationError):
        codec.encode_items(poisoned)
    with pytest.raises(SerializationError):
        mesh_patch_encode_per_point(poisoned)
    with pytest.raises(SerializationError):
        codec.pack({"points": poisoned})


def test_decode_rejects_torn_coordinate_arrays():
    codec = get_codec("mesh-patch")
    whole = mesh_patch_encode_per_point([(1.0, 2.0), (3.0, 4.0)])
    for torn in (whole[:-1], whole[:-8], whole[:8], b"\0"):
        with pytest.raises(SerializationError):
            codec.decode_items(torn)
        with pytest.raises(SerializationError):
            mesh_patch_decode_per_point(torn)
        with pytest.raises(SerializationError):
            codec.unpack(codec.pack({"points": []}) + torn)
    assert len(codec.decode_items(b"")) == 0


def test_decode_reads_its_buffer_once(monkeypatch):
    """The stored blob is neither sliced nor copied on the way to the
    column: the items arrive as a view over the caller's bytes."""
    codec = MeshPatchCodec()
    blob = codec.pack({"points": [(1.0, 2.0)] * 64, "region_id": 3})
    seen = []
    decode = MeshPatchCodec.decode_items
    monkeypatch.setattr(
        MeshPatchCodec, "decode_items",
        lambda self, data: seen.append(data) or decode(self, data))
    codec.unpack(blob)
    (view,) = seen
    assert isinstance(view, memoryview) and view.obj is blob
    assert view.nbytes == 64 * 16
