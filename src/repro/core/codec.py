"""Pluggable codecs: the data-plane fast path for pack/unpack.

The paper makes serialization a first-class interface of mobile objects
(§II.B) because it sits on every out-of-core and migration path.  This
module turns the single hard-wired pickle serializer into a *registry* of
codecs so each object class can pick the cheapest representation of its
bytes:

* :class:`PickleCodec` — the existing default, registered as ``"pickle"``;
* :class:`Pickle5Codec` — pickle protocol 5 with out-of-band buffers, so
  large contiguous payloads (``bytes``, ``bytearray``, arrays) are framed
  raw instead of being copied through the pickle stream;
* :class:`AppendStateCodec` — base class for *append-mostly* states: one
  field accumulates items, the rest ("residue") is small bookkeeping.
  Packs as ``residue + items`` and can emit **delta segments** carrying
  only the items appended since a recorded token, which is what lets the
  runtime spill an append-log instead of the whole object;
* :class:`PointColumn` — an append-only sequence of ``(x, y)`` points
  held as one flat float64 array: the in-memory form of a patch's points
  *is* their spill layout, so packing is ``tobytes()`` and unpacking is
  one buffer read;
* :class:`MeshPatchCodec` — the PUMG mesh-patch codec: points pack as
  that flat float64 coordinate array (16 B/point) instead of generic
  pickle — the compact mesh representation that directly cuts I/O volume;
* :class:`BytesAppendCodec` — append-mostly raw byte payloads (grow-only
  buffers), deltas are byte suffixes;
* :class:`SnapshotDeltaCodec` — for modeled stand-in objects whose
  *modeled* bulk is append-only while the real Python state is a tiny
  control block: every "delta" carries a full snapshot of the control
  block (last writer wins at reassembly), and the runtime charges only
  the modeled growth to the virtual disk.

Writing a custom codec: subclass :class:`~repro.core.mobile.Serializer`
(or one of the classes here), implement ``pack``/``unpack``, optionally
``size_estimate`` (pack-free accounting) and the delta trio
(``supports_delta`` / ``delta_token`` / ``pack_delta`` /
``unpack_segments``), then ``register_codec("name", MyCodec())`` and set
``serializer = get_codec("name")`` on the object class.  See
``docs/data_plane.md``.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from itertools import chain
from typing import Any, Iterable, Iterator, Optional

from repro.core.mobile import PickleSerializer, Serializer
from repro.util.errors import SerializationError

__all__ = [
    "register_codec",
    "get_codec",
    "registered_codecs",
    "PickleCodec",
    "Pickle5Codec",
    "AppendStateCodec",
    "PointColumn",
    "MeshPatchCodec",
    "BytesAppendCodec",
    "SnapshotDeltaCodec",
]

_REGISTRY: dict[str, Serializer] = {}


def register_codec(name: str, codec: Serializer, replace: bool = False) -> None:
    """Register ``codec`` under ``name`` (error on collision unless replace)."""
    if not name:
        raise ValueError("codec name must be non-empty")
    if not replace and name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    _REGISTRY[name] = codec


def get_codec(name: str) -> Serializer:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no codec registered as {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def registered_codecs() -> dict[str, Serializer]:
    """Snapshot of the registry (name -> codec instance)."""
    return dict(_REGISTRY)


class PickleCodec(PickleSerializer):
    """The default serializer as a registry entry (``"pickle"``)."""

    name = "pickle"


class Pickle5Codec(Serializer):
    """Pickle protocol 5 with out-of-band buffers.

    Layout: ``<I n_buffers>`` then per buffer ``<Q length>`` + raw bytes,
    then the pickle body.  Buffer-providing objects (``bytes`` stay
    in-band, but ``bytearray``, ``memoryview``, arrays and anything
    implementing ``__reduce_ex__(5)`` with :class:`pickle.PickleBuffer`)
    travel as raw spans with no pickle-stream copy.
    """

    name = "pickle5"

    _COUNT = struct.Struct("<I")
    _LEN = struct.Struct("<Q")

    def pack(self, payload: Any) -> bytes:
        buffers: list[pickle.PickleBuffer] = []
        try:
            body = pickle.dumps(payload, protocol=5,
                                buffer_callback=buffers.append)
        except Exception as exc:
            raise SerializationError(f"pack failed: {exc}") from exc
        parts = [self._COUNT.pack(len(buffers))]
        for buf in buffers:
            raw = buf.raw()
            parts.append(self._LEN.pack(raw.nbytes))
            parts.append(bytes(raw))
        parts.append(body)
        return b"".join(parts)

    def unpack(self, data: bytes) -> Any:
        try:
            (count,) = self._COUNT.unpack_from(data, 0)
            offset = self._COUNT.size
            buffers = []
            for _ in range(count):
                (length,) = self._LEN.unpack_from(data, offset)
                offset += self._LEN.size
                buffers.append(data[offset:offset + length])
                offset += length
            return pickle.loads(data[offset:], buffers=buffers)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"unpack failed: {exc}") from exc


class AppendStateCodec(Serializer):
    """Base codec for dict states where one field only ever appends.

    ``append_field`` names the accumulating sequence; everything else in
    the state dict is the *residue*, pickled whole (it is assumed small).
    Layout of both full packs and delta segments:

        ``<Q residue_length>`` + residue pickle + encoded items

    A delta segment carries the residue *as of that spill* plus only the
    items past the recorded token (an item count), so reassembly is:
    items concatenate across segments, residue comes from the last one.
    """

    supports_delta = True
    append_field = "items"

    _RLEN = struct.Struct("<Q")

    # -- item encoding (overridden by subclasses) -------------------------
    def encode_items(self, items: Any) -> bytes:
        return pickle.dumps(list(items), protocol=pickle.HIGHEST_PROTOCOL)

    def decode_items(self, data: memoryview) -> Any:
        return pickle.loads(data)

    def join_items(self, chunks: list) -> Any:
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        return out

    def item_nbytes(self) -> Optional[int]:
        """Per-item encoded size when fixed; enables size_estimate."""
        return None

    def residue_estimate(self, residue: dict) -> int:
        """Rough residue footprint for size_estimate (bytes)."""
        return 512

    # -- core layout ------------------------------------------------------
    def _encode(self, residue: dict, items: Any) -> bytes:
        try:
            rblob = pickle.dumps(residue, protocol=pickle.HIGHEST_PROTOCOL)
            return self._RLEN.pack(len(rblob)) + rblob + self.encode_items(items)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"pack failed: {exc}") from exc

    def _decode(self, data: bytes) -> tuple[dict, Any]:
        try:
            (rlen,) = self._RLEN.unpack_from(data, 0)
            start = self._RLEN.size
            residue = pickle.loads(data[start:start + rlen])
            # A view, not a slice: the items are read out of ``data`` once.
            items = self.decode_items(memoryview(data)[start + rlen:])
            return residue, items
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(f"unpack failed: {exc}") from exc

    def _split(self, payload: Any) -> tuple[dict, Any]:
        if not isinstance(payload, dict) or self.append_field not in payload:
            raise SerializationError(
                f"{type(self).__name__} needs a dict state with an "
                f"{self.append_field!r} field"
            )
        residue = {k: v for k, v in payload.items() if k != self.append_field}
        return residue, payload[self.append_field]

    # -- Serializer interface ---------------------------------------------
    def pack(self, payload: Any) -> bytes:
        residue, items = self._split(payload)
        return self._encode(residue, items)

    def unpack(self, data: bytes) -> Any:
        residue, items = self._decode(data)
        state = dict(residue)
        state[self.append_field] = self.join_items([items])
        return state

    def size_estimate(self, payload: Any) -> Optional[int]:
        per_item = self.item_nbytes()
        if per_item is None:
            return None
        residue, items = self._split(payload)
        return (self._RLEN.size + self.residue_estimate(residue)
                + per_item * len(items))

    # -- delta interface ---------------------------------------------------
    def delta_token(self, payload: Any) -> Any:
        _, items = self._split(payload)
        return len(items)

    def pack_delta(self, payload: Any, token: Any) -> Optional[bytes]:
        residue, items = self._split(payload)
        if not isinstance(token, int) or not 0 <= token <= len(items):
            return None  # not an append against the stored base: full spill
        return self._encode(residue, items[token:])

    def unpack_segments(self, segments: list[bytes]) -> Any:
        if not segments:
            raise SerializationError("cannot reassemble zero segments")
        residue: dict = {}
        chunks = []
        for seg in segments:
            residue, items = self._decode(seg)
            chunks.append(items)
        state = dict(residue)  # residue of the LAST segment wins
        state[self.append_field] = self.join_items(chunks)
        return state


def _flat_coordinates(points: Iterable) -> array:
    """``[(x, y), ...]`` as ``array('d', [x0, y0, x1, y1, ...])``.

    Every point must be a pair — a 1- or 3-tuple anywhere would shift
    every coordinate after it — and every coordinate a real number.
    """
    if not isinstance(points, (list, tuple)):
        points = list(points)
    if points and set(map(len, points)) != {2}:
        bad = next(p for p in points if len(p) != 2)
        raise SerializationError(f"mesh-patch points must be 2-D, got {bad!r}")
    return array("d", chain.from_iterable(points))


class PointColumn:
    """Append-only sequence of 2-D points over one flat float64 array.

    Reads like the ``list[(x, y)]`` it replaces — ``len``, indexing,
    contiguous slices (a new column), iteration, ``==`` against a column
    or a list — but holds 16 bytes per point instead of a tuple and two
    float objects, and nothing the cyclic collector has to walk.
    ``flat`` (``[x0, y0, x1, y1, ...]``) is the ``mesh-patch`` wire
    format, so a patch is packed by ``flat.tobytes()`` and unpacked by
    one ``frombytes``.  There is no way to remove or overwrite a point:
    delta spills rely on the column only ever growing.
    """

    __slots__ = ("flat",)

    def __init__(self, points: Iterable = ()) -> None:
        self.flat = array("d")
        self.extend(points)

    @classmethod
    def from_flat(cls, flat: array) -> "PointColumn":
        """Adopt ``flat`` (an ``array('d')`` of even length) without a copy."""
        if len(flat) % 2:
            raise SerializationError("odd coordinate count in mesh patch")
        column = cls.__new__(cls)
        column.flat = flat
        return column

    @classmethod
    def from_bytes(cls, data) -> "PointColumn":
        """The column a float64 stream encodes (bytes-like, read once)."""
        flat = array("d")
        if len(data) % flat.itemsize:
            raise SerializationError(
                f"coordinate array of {len(data)} B is not a whole "
                "number of float64s"
            )
        flat.frombytes(data)
        return cls.from_flat(flat)

    def __len__(self) -> int:
        return len(self.flat) >> 1

    def __getitem__(self, index):
        flat = self.flat
        n = len(flat) >> 1
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                raise ValueError("a PointColumn slice must be contiguous")
            return PointColumn.from_flat(flat[2 * start:2 * max(stop, start)])
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("PointColumn index out of range")
        return (flat[2 * index], flat[2 * index + 1])

    def __iter__(self) -> Iterator[tuple[float, float]]:
        flat = self.flat
        return zip(flat[0::2], flat[1::2])

    def append(self, point) -> None:
        self.flat.extend(_flat_coordinates((point,)))

    def extend(self, points: Iterable) -> None:
        if isinstance(points, PointColumn):
            self.flat.extend(points.flat)
        else:
            self.flat.extend(_flat_coordinates(points))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointColumn):
            return self.flat == other.flat
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    __hash__ = None  # mutable

    def __reduce__(self):
        return (PointColumn.from_bytes, (self.flat.tobytes(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointColumn({list(self)!r})"


class MeshPatchCodec(AppendStateCodec):
    """PUMG mesh patches: points as a flat float64 coordinate array.

    A region's ``points`` is a :class:`PointColumn`, whose flat array
    ``[x0, y0, x1, y1, ...]`` is the packed form — 16 bytes per point
    instead of ~70 B of generic pickle per tuple — and refinement only
    appends points, so delta spills carry just the new coordinates.
    Unpacking returns a column; a plain ``list[(x, y)]`` still packs (to
    the same bytes), so a caller that builds its state from a list works.
    """

    name = "mesh-patch"
    append_field = "points"

    def encode_items(self, items: Any) -> bytes:
        if isinstance(items, PointColumn):
            return items.flat.tobytes()
        return _flat_coordinates(items).tobytes()

    def decode_items(self, data: memoryview) -> PointColumn:
        return PointColumn.from_bytes(data)

    def join_items(self, chunks: list) -> PointColumn:
        column = chunks[0]
        for chunk in chunks[1:]:
            column.extend(chunk)
        return column

    def item_nbytes(self) -> Optional[int]:
        return 16  # two float64 coordinates


class BytesAppendCodec(AppendStateCodec):
    """Append-mostly raw byte payloads (grow-only buffers).

    The accumulating field is a ``bytes`` object that only ever grows by
    concatenation; a delta segment carries the appended suffix verbatim.
    """

    name = "bytes-append"
    append_field = "payload"

    def encode_items(self, items: Any) -> bytes:
        return bytes(items)

    def decode_items(self, data: memoryview) -> bytes:
        return bytes(data)

    def join_items(self, chunks: list) -> bytes:
        return b"".join(chunks)

    def item_nbytes(self) -> Optional[int]:
        return 1


class SnapshotDeltaCodec(Serializer):
    """Delta spilling for modeled stand-ins with append-only *modeled* bulk.

    Model applications describe multi-GB subdomains with tiny Python
    control blocks; the cost model supplies the modeled size.  Declaring
    the modeled payload append-mostly lets the runtime charge only the
    modeled *growth* per spill — while on the real medium every delta
    segment simply carries a full pickle of the (tiny) control block, and
    reassembly keeps the last one.
    """

    name = "snapshot-delta"
    supports_delta = True

    def __init__(self) -> None:
        self._pickle = PickleSerializer()

    def pack(self, payload: Any) -> bytes:
        return self._pickle.pack(payload)

    def unpack(self, data: bytes) -> Any:
        return self._pickle.unpack(data)

    def delta_token(self, payload: Any) -> Any:
        return True  # any non-None token: a stored base exists

    def pack_delta(self, payload: Any, token: Any) -> Optional[bytes]:
        return self.pack(payload)  # full (tiny) snapshot; last writer wins

    def unpack_segments(self, segments: list[bytes]) -> Any:
        if not segments:
            raise SerializationError("cannot reassemble zero segments")
        return self.unpack(segments[-1])


register_codec("pickle", PickleCodec())
register_codec("pickle5", Pickle5Codec())
register_codec("mesh-patch", MeshPatchCodec())
register_codec("bytes-append", BytesAppendCodec())
register_codec("snapshot-delta", SnapshotDeltaCodec())
