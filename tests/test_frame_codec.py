"""Property tests for the checksummed storage frame codec.

The self-healing storage layer wraps every stored object in a
``MRF2 | flags | length | CRC32`` frame (see :mod:`repro.core.storage`;
nothing else decodes).  The codec's
contract is binary-exact, so we state it as properties and let
hypothesis hunt for counterexamples:

* round-trip identity for arbitrary payloads (including empty and huge);
* every *strict prefix* of a frame — the on-disk residue of a torn
  write — is rejected with :class:`CorruptObject`, never silently
  decoded;
* any single-byte mutation anywhere in the frame is rejected.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.storage import (
    FRAME_OVERHEAD,
    _FRAME_HEADER,
    _FRAME_MAGIC,
    decode_frame,
    encode_frame,
)
from repro.util.errors import CorruptObject

PAYLOADS = st.binary(min_size=0, max_size=512)


# ------------------------------------------------------------- round trip
@given(payload=PAYLOADS)
def test_round_trip_identity(payload):
    assert decode_frame(encode_frame(payload)) == payload


@given(payload=PAYLOADS)
def test_frame_overhead_is_constant(payload):
    assert len(encode_frame(payload)) == len(payload) + FRAME_OVERHEAD


def test_round_trip_large_payload():
    payload = bytes(range(256)) * 4096  # 1 MiB
    assert decode_frame(encode_frame(payload)) == payload


def test_frame_layout_is_the_documented_one():
    payload = b"hello mesh"
    frame = encode_frame(payload)
    magic, flags, length, crc = _FRAME_HEADER.unpack(frame[:FRAME_OVERHEAD])
    assert magic == _FRAME_MAGIC
    assert flags == 0
    assert length == len(payload)
    # The CRC covers the flags byte and the payload, so a flipped flags
    # byte is caught like any other mutation.
    assert crc == zlib.crc32(payload, zlib.crc32(b"\x00"))
    assert frame[FRAME_OVERHEAD:] == payload


def test_flags_round_trip_and_range():
    from repro.core.storage import FLAG_COMPRESSED, FLAG_DELTA, decode_frame_ex

    for flags in (0, FLAG_COMPRESSED, FLAG_DELTA, FLAG_COMPRESSED | FLAG_DELTA):
        payload, got = decode_frame_ex(encode_frame(b"abc", flags))
        assert (payload, got) == (b"abc", flags)
    with pytest.raises(ValueError):
        encode_frame(b"abc", 0x100)
    with pytest.raises(ValueError):
        encode_frame(b"abc", -1)


def test_mrf1_frames_are_foreign_bytes():
    """A well-formed frame of the retired flag-less format is rejected
    like any other bytes that are not ``MRF2`` — never decoded."""
    import struct

    payload = b"old format"
    legacy = struct.Struct("<4sQI").pack(
        b"MRF1", len(payload), zlib.crc32(payload)
    ) + payload
    with pytest.raises(CorruptObject, match="bad frame magic"):
        decode_frame(legacy)


# ------------------------------------------------------------- torn writes
@given(payload=PAYLOADS, data=st.data())
def test_every_strict_prefix_is_rejected(payload, data):
    frame = encode_frame(payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1),
                    label="cut")
    with pytest.raises(CorruptObject):
        decode_frame(frame[:cut])


@settings(max_examples=25)
@given(payload=st.binary(min_size=0, max_size=48))
def test_all_strict_prefixes_exhaustively(payload):
    """Small frames: check *all* prefixes, not a sampled one."""
    frame = encode_frame(payload)
    for cut in range(len(frame)):
        with pytest.raises(CorruptObject):
            decode_frame(frame[:cut])


# --------------------------------------------------------------- bit rot
@given(payload=PAYLOADS, data=st.data())
def test_single_byte_mutation_is_rejected(payload, data):
    frame = bytearray(encode_frame(payload))
    pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1),
                    label="pos")
    delta = data.draw(st.integers(min_value=1, max_value=255), label="delta")
    frame[pos] = (frame[pos] + delta) % 256
    with pytest.raises(CorruptObject):
        decode_frame(bytes(frame))


@given(payload=PAYLOADS, tail=st.binary(min_size=1, max_size=16))
def test_trailing_garbage_is_rejected(payload, tail):
    """A frame followed by extra bytes means the stored length lies."""
    with pytest.raises(CorruptObject):
        decode_frame(encode_frame(payload) + tail)


def test_wrong_magic_is_rejected():
    frame = bytearray(encode_frame(b"payload"))
    frame[:4] = b"JUNK"
    with pytest.raises(CorruptObject, match="bad frame magic"):
        decode_frame(bytes(frame))


def test_context_appears_in_error_message():
    with pytest.raises(CorruptObject, match="checkpoint"):
        decode_frame(b"", context="checkpoint")
