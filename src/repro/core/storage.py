"""The storage layer: persisting mobile objects out of core.

Paper §II.D: "The storage layer is used for managing mobile objects stored
out-of-core.  The underlying storage facility is hidden from the
application and can utilize regular files, block devices and databases.
Blocking and non-blocking operations for loading and storing a mobile
object are provided."

Backends:

* :class:`MemoryBackend` — dict-of-bytes; for tests and for modeling
  remote-memory "disk" ([33] in the paper: using remote nodes' memory as
  the out-of-core medium);
* :class:`FileBackend` — one file per object under a spill directory; the
  real thing, used by the threaded driver;
* :class:`CountingBackend` — wrapper adding byte/op accounting used by the
  stats layer and the simulated driver (which charges virtual disk time
  for the byte counts it reports).

Self-healing wrappers (composed by the runtime around any of the above):

* :class:`ChecksummedBackend` — wraps every packed object in a
  length + CRC32 *frame* at the storage boundary, so a torn write or bit
  rot is *detected* at load (:class:`~repro.util.errors.CorruptObject`)
  instead of silently returning garbage bytes;
* :class:`RetryingBackend` — capped exponential backoff with seeded
  jitter and a per-operation backoff budget, absorbing intermittent
  faults (:class:`~repro.util.errors.TransientStorageError`, e.g. a
  flaky NFS mount) transparently;
* :class:`CompressingBackend` — a size-adaptive compression tier above
  the frame layer: tiny payloads pass through untouched, larger ones are
  deflated (zlib level by size class) and the frame's flags byte records
  it, so checksums, repair and recovery operate on compressed frames
  exactly as on raw ones.

Delta spills extend the byte-level contract with :meth:`~StorageBackend.
append` / :meth:`~StorageBackend.load_segments`: an object's stored copy
may be an *append-log* of frames (one full base + delta segments), which
the frame layer parses back into validated payload segments.
"""

from __future__ import annotations

import os
import random
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.util.errors import (
    CorruptObject,
    MRTSError,
    ObjectNotFound,
    TransientStorageError,
)

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "FileBackend",
    "CountingBackend",
    "ChecksummedBackend",
    "CompressionPolicy",
    "CompressingBackend",
    "RetryPolicy",
    "RetryingBackend",
    "build_storage_stack",
    "FRAME_OVERHEAD",
    "FLAG_COMPRESSED",
    "FLAG_DELTA",
    "encode_frame",
    "decode_frame",
    "decode_frame_ex",
    "iter_frames",
]


class StorageBackend:
    """Key-value store of packed mobile objects, keyed by object id."""

    def store(self, oid: int, data: bytes) -> None:
        raise NotImplementedError

    def load(self, oid: int) -> bytes:
        raise NotImplementedError

    def append(self, oid: int, data: bytes) -> None:
        """Append raw bytes to the object's stored copy (delta spills).

        Default is read-modify-write; byte-addressable backends override
        with a true append.  An absent object starts empty.
        """
        try:
            existing = self.load(oid)
        except ObjectNotFound:
            existing = b""
        self.store(oid, existing + bytes(data))

    def load_segments(self, oid: int) -> list[bytes]:
        """The object's stored payload segments, oldest first.

        Raw backends hold one blob; the frame layer overrides this to
        parse an append-log back into validated per-frame payloads.
        """
        return [self.load(oid)]

    def load_many(self, oids: "list[int]") -> dict[int, list[bytes]]:
        """Batched best-effort read: ``{oid: payload segments}``.

        One backend call covers a whole neighborhood warm.  Missing or
        corrupt objects are simply absent from the result — batch reads
        back advisory prefetches, not demand loads, so the caller's
        demand path keeps the repair/escalation responsibility.
        Backends with a physical layout (:class:`~repro.core.packfile.
        PackFileBackend`) override this with a segment-grouped
        sequential read.
        """
        out: dict[int, list[bytes]] = {}
        for oid in oids:
            try:
                out[oid] = self.load_segments(oid)
            except (ObjectNotFound, CorruptObject):
                continue
        return out

    def delete(self, oid: int) -> None:
        raise NotImplementedError

    def contains(self, oid: int) -> bool:
        raise NotImplementedError

    def size(self, oid: int) -> int:
        """Stored size in bytes; raises ObjectNotFound if absent."""
        raise NotImplementedError

    def stored_ids(self) -> list[int]:
        raise NotImplementedError

    def total_bytes(self) -> int:
        return sum(self.size(oid) for oid in self.stored_ids())

    def largest_object(self) -> int:
        """Size of the largest stored object (0 when empty).

        The paper's *hard swapping threshold* is defined as a multiple of
        this quantity.
        """
        sizes = [self.size(oid) for oid in self.stored_ids()]
        return max(sizes, default=0)


class MemoryBackend(StorageBackend):
    """In-memory store (tests, and the remote-memory out-of-core medium)."""

    def __init__(self) -> None:
        self._data: dict[int, bytes] = {}

    def store(self, oid: int, data: bytes) -> None:
        self._data[oid] = bytes(data)

    def append(self, oid: int, data: bytes) -> None:
        self._data[oid] = self._data.get(oid, b"") + bytes(data)

    def load(self, oid: int) -> bytes:
        try:
            return self._data[oid]
        except KeyError:
            raise ObjectNotFound(f"object {oid} not in storage") from None

    def delete(self, oid: int) -> None:
        self._data.pop(oid, None)

    def contains(self, oid: int) -> bool:
        return oid in self._data

    def size(self, oid: int) -> int:
        try:
            return len(self._data[oid])
        except KeyError:
            raise ObjectNotFound(f"object {oid} not in storage") from None

    def stored_ids(self) -> list[int]:
        return list(self._data)


class FileBackend(StorageBackend):
    """One spill file per object under ``root`` (created if needed).

    This is what the threaded driver uses: objects really leave RAM and
    round-trip through the filesystem, so out-of-core runs exercise true
    serialization and I/O paths.
    """

    def __init__(self, root: Optional[str | os.PathLike] = None) -> None:
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="mrts-spill-")
            self.root = Path(self._tmp.name)
        else:
            self._tmp = None
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
        self._sizes: dict[int, int] = {}

    def _path(self, oid: int) -> Path:
        return self.root / f"obj-{oid}.bin"

    def store(self, oid: int, data: bytes) -> None:
        self._path(oid).write_bytes(data)
        self._sizes[oid] = len(data)

    def append(self, oid: int, data: bytes) -> None:
        path = self._path(oid)
        before = self._sizes.get(oid)
        if before is None:
            before = path.stat().st_size if path.exists() else 0
        with open(path, "ab") as fh:
            fh.write(data)
        self._sizes[oid] = before + len(data)

    def load(self, oid: int) -> bytes:
        path = self._path(oid)
        if not path.exists():
            raise ObjectNotFound(f"object {oid} not in storage")
        return path.read_bytes()

    def delete(self, oid: int) -> None:
        self._path(oid).unlink(missing_ok=True)
        self._sizes.pop(oid, None)

    def contains(self, oid: int) -> bool:
        return oid in self._sizes or self._path(oid).exists()

    def size(self, oid: int) -> int:
        if oid in self._sizes:
            return self._sizes[oid]
        path = self._path(oid)
        if not path.exists():
            raise ObjectNotFound(f"object {oid} not in storage")
        return path.stat().st_size

    def stored_ids(self) -> list[int]:
        return list(self._sizes)

    def cleanup(self) -> None:
        """Remove all spill files (and the temp dir when we own it)."""
        for oid in self.stored_ids():
            self.delete(oid)
        if self._tmp is not None:
            self._tmp.cleanup()


class CountingBackend(StorageBackend):
    """Wrap another backend, counting operations and bytes moved.

    The simulated driver reads these counters to charge virtual disk time;
    the stats layer reports them for the Tables IV–VI breakdowns.
    """

    def __init__(self, inner: StorageBackend) -> None:
        self.inner = inner
        self.bytes_written = 0
        self.bytes_read = 0
        self.stores = 0
        self.loads = 0
        self.appends = 0

    def store(self, oid: int, data: bytes) -> None:
        self.inner.store(oid, data)
        self.bytes_written += len(data)
        self.stores += 1

    def append(self, oid: int, data: bytes) -> None:
        self.inner.append(oid, data)
        self.bytes_written += len(data)
        self.stores += 1
        self.appends += 1

    def load(self, oid: int) -> bytes:
        data = self.inner.load(oid)
        self.bytes_read += len(data)
        self.loads += 1
        return data

    def load_segments(self, oid: int) -> list[bytes]:
        segments = self.inner.load_segments(oid)
        self.bytes_read += sum(len(s) for s in segments)
        self.loads += 1
        return segments

    def load_many(self, oids: list[int]) -> dict[int, list[bytes]]:
        found = self.inner.load_many(oids)
        self.bytes_read += sum(
            len(s) for segments in found.values() for s in segments
        )
        self.loads += len(found)
        return found

    def delete(self, oid: int) -> None:
        self.inner.delete(oid)

    def contains(self, oid: int) -> bool:
        return self.inner.contains(oid)

    def size(self, oid: int) -> int:
        return self.inner.size(oid)

    def stored_ids(self) -> list[int]:
        return self.inner.stored_ids()


# ======================================================= checksummed frames
#
# Frame layout (little-endian), format MRF2:
#
#   +--------+-------+----------------+---------------+------------------+
#   | magic  | flags | payload length | CRC32(payload)| payload bytes ...|
#   | 4 B    | 1 B   | 8 B  (<Q)      | 4 B  (<I)     | length B         |
#   +--------+-------+----------------+---------------+------------------+
#
# The flags byte records how the payload was transformed on the way in
# (``FLAG_COMPRESSED``: deflated by the compression tier) and what role
# the frame plays in the object's stored copy (``FLAG_DELTA``: an
# append-log segment rather than a full base).  The CRC covers the flags
# byte plus the payload *as stored* (post-compression): a flipped flags
# bit would silently inflate/skip-inflate the wrong way, so it must fail
# validation like any payload bit — and frame validation and repair
# still never need to understand the payload.
#
# Every strict prefix of a frame fails validation: a prefix shorter than
# the header is rejected outright, and any longer prefix carries a length
# field larger than the bytes that follow.  A flipped payload bit fails
# the CRC.  That is exactly the property torn-write recovery needs: a
# partially persisted store can never be loaded as a valid object.
#
# MRF2 is the only format read.  Bytes under any other magic — the
# flag-less MRF1 frames of PRs 3-4 included — are foreign and rejected
# as corrupt; spill media and checkpoints are per-run, so nothing in
# that format can reach a reader.

_FRAME_MAGIC = b"MRF2"
_FRAME_HEADER = struct.Struct("<4sBQI")
FRAME_OVERHEAD = _FRAME_HEADER.size

FLAG_COMPRESSED = 0x01  # payload is zlib-deflated
FLAG_DELTA = 0x02       # frame is an append-log delta segment


def _frame_crc(payload: bytes, flags: int) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes((flags,))))


def encode_frame(payload: bytes, flags: int = 0) -> bytes:
    """Wrap ``payload`` in a magic + flags + length + CRC32 frame."""
    if not 0 <= flags <= 0xFF:
        raise ValueError(f"frame flags must fit one byte, got {flags:#x}")
    return (
        _FRAME_HEADER.pack(
            _FRAME_MAGIC, flags, len(payload), _frame_crc(payload, flags)
        )
        + payload
    )


def _decode_one(
    data: bytes, offset: int, context: str
) -> tuple[bytes, int, int]:
    """Validate the frame starting at ``offset``; -> (payload, flags, end)."""
    if len(data) - offset < FRAME_OVERHEAD:
        raise CorruptObject(
            f"{context}: {len(data) - offset} B is shorter than the "
            f"{FRAME_OVERHEAD} B frame header (torn write?)"
        )
    magic, flags, length, crc = _FRAME_HEADER.unpack_from(data, offset)
    if magic != _FRAME_MAGIC:
        raise CorruptObject(f"{context}: bad frame magic {magic!r}")
    end = offset + FRAME_OVERHEAD + length
    payload = bytes(data[offset + FRAME_OVERHEAD:end])
    if len(payload) != length:
        raise CorruptObject(
            f"{context}: frame promises {length} B but carries "
            f"{len(payload)} B (torn write?)"
        )
    if _frame_crc(payload, flags) != crc:
        raise CorruptObject(f"{context}: payload CRC mismatch (bit rot?)")
    return payload, flags, end


def decode_frame_ex(data: bytes, context: str = "object") -> tuple[bytes, int]:
    """Validate and strip a single frame; returns ``(payload, flags)``.

    Raises :class:`CorruptObject` on any damage, including trailing bytes
    past the frame (a single-frame blob must be exactly one frame).
    """
    payload, flags, end = _decode_one(data, 0, context)
    if end != len(data):
        raise CorruptObject(
            f"{context}: {len(data) - end} B of trailing garbage after "
            "the frame"
        )
    return payload, flags


def decode_frame(data: bytes, context: str = "object") -> bytes:
    """Validate and strip a frame; raises :class:`CorruptObject` on damage."""
    return decode_frame_ex(data, context)[0]


def iter_frames(
    data: bytes, context: str = "object"
) -> list[tuple[bytes, int]]:
    """Parse a concatenation of frames (an append-log) into
    ``[(payload, flags), ...]``; any damaged or partial frame raises
    :class:`CorruptObject`."""
    frames: list[tuple[bytes, int]] = []
    offset = 0
    while offset < len(data):
        payload, flags, offset = _decode_one(data, offset, context)
        frames.append((payload, flags))
    if not frames:
        raise CorruptObject(f"{context}: empty frame log")
    return frames


class ChecksummedBackend(StorageBackend):
    """Wrap ``inner``, framing every object with a length + CRC32 check.

    Detection only: a corrupt frame raises :class:`CorruptObject` at load;
    the out-of-core layer treats that like a miss and falls back to the
    last checkpoint copy (see :mod:`repro.core.recovery`).  ``size``
    reports *payload* size so callers see the same bytes they stored.

    This layer is also where append-logs become frames: ``append`` writes
    one ``FLAG_DELTA`` frame per segment onto the inner blob, and
    ``load_segments`` parses the concatenation back into validated
    payloads.
    """

    def __init__(self, inner: StorageBackend) -> None:
        self.inner = inner
        self.corrupt_loads = 0

    # -- frame-aware surface (used by CompressingBackend) ------------------
    def store_frame(self, oid: int, data: bytes, flags: int = 0) -> None:
        self.inner.store(oid, encode_frame(data, flags))

    def append_frame(self, oid: int, data: bytes, flags: int = 0) -> None:
        self.inner.append(oid, encode_frame(data, flags | FLAG_DELTA))

    def load_segments_ex(self, oid: int) -> list[tuple[bytes, int]]:
        try:
            return iter_frames(self.inner.load(oid), context=f"object {oid}")
        except CorruptObject:
            self.corrupt_loads += 1
            raise

    def load_many_ex(self, oids: list[int]) -> dict[int, list[tuple[bytes, int]]]:
        """Batched frame parse; corrupt objects are counted and skipped."""
        out: dict[int, list[tuple[bytes, int]]] = {}
        for oid, segments in self.inner.load_many(oids).items():
            try:
                out[oid] = iter_frames(
                    b"".join(segments), context=f"object {oid}"
                )
            except CorruptObject:
                self.corrupt_loads += 1
        return out

    # -- StorageBackend interface ------------------------------------------
    def store(self, oid: int, data: bytes) -> None:
        self.store_frame(oid, data, 0)

    def append(self, oid: int, data: bytes) -> None:
        self.append_frame(oid, data, FLAG_DELTA)

    def load(self, oid: int) -> bytes:
        frames = self.load_segments_ex(oid)
        if len(frames) != 1:
            raise MRTSError(
                f"object {oid} is a {len(frames)}-segment append-log; "
                "use load_segments()"
            )
        return frames[0][0]

    def load_segments(self, oid: int) -> list[bytes]:
        return [payload for payload, _flags in self.load_segments_ex(oid)]

    def load_many(self, oids: list[int]) -> dict[int, list[bytes]]:
        return {
            oid: [payload for payload, _flags in frames]
            for oid, frames in self.load_many_ex(oids).items()
        }

    def delete(self, oid: int) -> None:
        self.inner.delete(oid)

    def contains(self, oid: int) -> bool:
        return self.inner.contains(oid)

    def size(self, oid: int) -> int:
        # Payload bytes of a single-frame object; for append-logs this
        # under-counts by the extra headers, which is fine for the
        # hard-threshold heuristic it feeds.
        return max(self.inner.size(oid) - FRAME_OVERHEAD, 0)

    def stored_ids(self) -> list[int]:
        return self.inner.stored_ids()


# ============================================================= compression
@dataclass(frozen=True)
class CompressionPolicy:
    """Size-adaptive compression decisions for the storage boundary.

    Payloads below ``min_bytes`` are stored raw (the header tax and CPU
    cost outweigh any win); mid-sized payloads deflate at
    ``level_small``; payloads at or above ``large_bytes`` use the faster
    ``level_large`` so huge spills do not stall the node.  Incompressible
    payloads (deflate produced no saving) are stored raw too.
    """

    min_bytes: int = 1024
    level_small: int = 3
    large_bytes: int = 256 * 1024
    level_large: int = 1

    def __post_init__(self) -> None:
        if self.min_bytes < 0:
            raise ValueError("min_bytes must be >= 0")
        if self.large_bytes < self.min_bytes:
            raise ValueError("large_bytes must be >= min_bytes")
        for name in ("level_small", "level_large"):
            if not 0 <= getattr(self, name) <= 9:
                raise ValueError(f"{name} must be a zlib level in [0, 9]")

    def transform(self, data: bytes) -> tuple[bytes, int]:
        """-> (stored payload, frame flags) for one outgoing payload."""
        if len(data) < self.min_bytes:
            return data, 0
        level = (
            self.level_small
            if len(data) < self.large_bytes
            else self.level_large
        )
        out = zlib.compress(bytes(data), level)
        if len(out) >= len(data):
            return data, 0
        return out, FLAG_COMPRESSED


class CompressingBackend(StorageBackend):
    """Compression tier above the frame layer.

    Requires a frame-aware ``inner`` (:class:`ChecksummedBackend`): the
    compressed payload is what gets framed, so the CRC validates the
    bytes actually on the medium and torn-write repair works unchanged.
    ``load_segments`` re-inflates per the frame flags, making the tier
    invisible to everything above it.
    """

    def __init__(
        self,
        inner: ChecksummedBackend,
        policy: Optional[CompressionPolicy] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy or CompressionPolicy()
        self.bytes_in = 0          # raw payload bytes offered
        self.bytes_out = 0         # payload bytes actually framed
        self.compressed_frames = 0
        self.raw_frames = 0
        # Framed payload size of the last write: how the runtime charges
        # true post-compression bytes per spill.
        self.last_stored_len = 0

    def _transform(self, data: bytes) -> tuple[bytes, int]:
        out, flags = self.policy.transform(data)
        self.bytes_in += len(data)
        self.bytes_out += len(out)
        if flags & FLAG_COMPRESSED:
            self.compressed_frames += 1
        else:
            self.raw_frames += 1
        self.last_stored_len = len(out)
        return out, flags

    def store(self, oid: int, data: bytes) -> None:
        out, flags = self._transform(data)
        self.inner.store_frame(oid, out, flags)

    def append(self, oid: int, data: bytes) -> None:
        out, flags = self._transform(data)
        self.inner.append_frame(oid, out, flags | FLAG_DELTA)

    def load_segments(self, oid: int) -> list[bytes]:
        segments = []
        for payload, flags in self.inner.load_segments_ex(oid):
            if flags & FLAG_COMPRESSED:
                try:
                    payload = zlib.decompress(payload)
                except zlib.error as exc:
                    raise CorruptObject(
                        f"object {oid}: compressed payload does not "
                        f"inflate ({exc})"
                    ) from exc
            segments.append(payload)
        return segments

    def load_many(self, oids: list[int]) -> dict[int, list[bytes]]:
        out: dict[int, list[bytes]] = {}
        for oid, frames in self.inner.load_many_ex(oids).items():
            try:
                segments = []
                for payload, flags in frames:
                    if flags & FLAG_COMPRESSED:
                        payload = zlib.decompress(payload)
                    segments.append(payload)
            except zlib.error:
                # best-effort batch: count like a corrupt frame and skip;
                # the demand path re-detects and repairs properly
                self.inner.corrupt_loads += 1
                continue
            out[oid] = segments
        return out

    def load(self, oid: int) -> bytes:
        segments = self.load_segments(oid)
        if len(segments) != 1:
            raise MRTSError(
                f"object {oid} is a {len(segments)}-segment append-log; "
                "use load_segments()"
            )
        return segments[0]

    def delete(self, oid: int) -> None:
        self.inner.delete(oid)

    def contains(self, oid: int) -> bool:
        return self.inner.contains(oid)

    def size(self, oid: int) -> int:
        return self.inner.size(oid)

    def stored_ids(self) -> list[int]:
        return self.inner.stored_ids()


# ========================================================== stack composition
def build_storage_stack(
    backend: StorageBackend,
    *,
    seed: int = 0,
    on_retry: Optional[Callable[[str, int, int, float], None]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> "CountingBackend":
    """Compose the self-healing storage stack around a raw backend.

    ``Counting(Compressing(Checksummed(Retrying(backend))))``: retries
    innermost so transient faults are absorbed before the frame layer ever
    sees them; frames outside retry so a :class:`CorruptObject` (permanent
    by definition) is never retried; the compression tier rides on the
    frame layer (the flags byte records what was deflated); counting
    outermost so byte accounting sees raw unframed payload sizes.

    ``seed`` keys the retry jitter PRNG (callers pass a node rank so
    nodes never back off in lockstep) and ``sleep`` is how a retry
    waits — ``None`` for virtual-time runtimes that charge the delay
    themselves, ``time.sleep`` for real processes.  Shared by the
    single-process MRTS and the ``repro.dist`` workers, so both worlds
    spill through literally the same code.
    """
    backend = RetryingBackend(
        backend, RetryPolicy(seed=seed), on_retry=on_retry, sleep=sleep)
    return CountingBackend(CompressingBackend(ChecksummedBackend(backend)))


# ================================================================= retrying
@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter and a per-op budget.

    ``max_attempts`` counts the first try: 4 means one attempt plus up to
    three retries.  The k-th retry waits ``base_delay_s * 2**(k-1)``
    capped at ``max_delay_s``, shrunk by up to ``jitter`` (a fraction in
    [0, 1]) drawn from a PRNG seeded with ``seed`` — so a retry schedule
    is a pure function of the policy, replayable bit-for-bit.  When the
    cumulative backoff a further retry would need exceeds
    ``op_timeout_s``, the operation gives up early and re-raises — the
    per-op timeout that keeps one wedged store from stalling a node.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    max_delay_s: float = 0.100
    op_timeout_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.op_timeout_s < 0:
            raise ValueError("op_timeout_s must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, retry_no: int, rng: random.Random) -> float:
        """Backoff before the ``retry_no``-th retry (1-based)."""
        raw = min(self.base_delay_s * 2 ** (retry_no - 1), self.max_delay_s)
        return raw * (1.0 - self.jitter * rng.random())


class RetryingBackend(StorageBackend):
    """Wrap ``inner``, absorbing transient faults with seeded backoff.

    Only :class:`~repro.util.errors.TransientStorageError` is retried —
    permanent conditions (:class:`CorruptObject`, :class:`StorageFull`,
    :class:`ObjectNotFound`) propagate immediately.  ``on_retry(op, oid,
    attempt, delay)`` fires before each retry, which is how the runtime
    counts retries into :class:`~repro.core.stats.RunStats` and emits
    tracer events.  ``sleep`` defaults to a no-op because the MRTS charges
    time virtually; pass ``time.sleep`` for a wall-clock deployment.
    """

    def __init__(
        self,
        inner: StorageBackend,
        policy: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[str, int, int, float], None]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.on_retry = on_retry
        self.sleep = sleep
        self.retries = 0
        self.gave_up = 0
        self.backoff_s = 0.0
        self._rng = random.Random(self.policy.seed)

    # ------------------------------------------------------------- core loop
    def _attempt(self, op: str, oid: int, fn: Callable[[], object]) -> object:
        policy = self.policy
        attempt = 1
        budget = policy.op_timeout_s
        while True:
            try:
                return fn()
            except TransientStorageError:
                if attempt >= policy.max_attempts:
                    self.gave_up += 1
                    raise
                delay = policy.delay(attempt, self._rng)
                if delay > budget:
                    # Per-op timeout: the backoff budget is spent.
                    self.gave_up += 1
                    raise
                budget -= delay
                self.retries += 1
                self.backoff_s += delay
                if self.on_retry is not None:
                    self.on_retry(op, oid, attempt, delay)
                if self.sleep is not None:
                    self.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------ operations
    def store(self, oid: int, data: bytes) -> None:
        self._attempt("store", oid, lambda: self.inner.store(oid, data))

    def append(self, oid: int, data: bytes) -> None:
        self._attempt("append", oid, lambda: self.inner.append(oid, data))

    def load(self, oid: int) -> bytes:
        return self._attempt("load", oid, lambda: self.inner.load(oid))

    def load_segments(self, oid: int) -> list[bytes]:
        return self._attempt(
            "load", oid, lambda: self.inner.load_segments(oid)
        )

    def load_many(self, oids: list[int]) -> dict[int, list[bytes]]:
        # One retry loop covers the whole batch; oid -1 marks per-batch
        # (not per-object) RetryEvent attribution.
        batch = list(oids)
        return self._attempt(
            "load_many", -1, lambda: self.inner.load_many(batch)
        )

    def delete(self, oid: int) -> None:
        self._attempt("delete", oid, lambda: self.inner.delete(oid))

    def contains(self, oid: int) -> bool:
        return self.inner.contains(oid)

    def size(self, oid: int) -> int:
        return self.inner.size(oid)

    def stored_ids(self) -> list[int]:
        return self.inner.stored_ids()
