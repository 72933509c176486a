"""Locality-aware pack-file storage: sequential segments ordered by a
space-filling curve.

Bender et al.'s *Optimal Cache-Oblivious Mesh Layouts* (PAPERS.md) frames
out-of-core mesh access cost as a **layout** problem: the dominant cost of
a load is not the bytes but the seek, and neighboring patches that are
touched together should be physically adjacent on disk.  The per-object
backends in :mod:`repro.core.storage` scatter every spill to an
independent location, so a refinement wave that touches a ring of patches
pays one random read per patch.

:class:`PackFileBackend` replaces that layout with large append-only
*segments*.  Every object carries a **locality key** — a position on a
space-filling curve (Morton/Z-order over the decomposition grid, see
:func:`morton2`), pushed down by the runtime from
:meth:`MobileObject.locality_key`.  Spills append into the open segment of
the key's *bucket* (a contiguous curve range), so curve-adjacent patches
cohabit a segment and a single sequential segment read covers a whole
neighborhood.  Rewrites and deletes leave dead bytes behind; a background
**compactor** rewrites all live extents in curve order once the dead
fraction crosses a threshold, re-clustering ring-adjacent patches that
were first stored far apart.

Compaction is *abort-safe*: the new segment set is built completely on the
side and installed with a single atomic swap, so a compactor killed
mid-rewrite (chaos cell ``packfile-compact-kill``) leaves the old layout
fully intact.

Segments are layout *metadata*; the bytes live in one anonymous temporary
file per backend (``tempfile.TemporaryFile``: unlinked at creation, so a
crashed run leaves nothing behind), opened on the first write.  Every
write lands at the file end at an explicit offset (``os.pwrite`` /
``os.pwritev``) and every read is one ``os.pread`` into a fresh ``bytes``,
so no file position is shared and the spilled bytes stay off the heap.
The file is deliberately not ``mmap``-ed: mapped pages count as resident
memory once touched, which would put the medium back into the very number
an out-of-core runtime exists to bound.  The virtual disk model in the
runtime charges time for the *modeled* bytes it transfers, exactly as it
does over :class:`MemoryBackend`; what this class adds is the layout
(who is adjacent to whom) that the prefetcher exploits via
:meth:`neighborhood` and :meth:`load_many`.
"""

from __future__ import annotations

import errno
import os
import tempfile
import weakref
from bisect import bisect_left, insort
from typing import Iterable, Optional

from repro.util.errors import ObjectNotFound, StorageFull

from repro.core.storage import StorageBackend

__all__ = ["PackFileBackend", "morton2", "morton3"]


def morton2(i: int, j: int, bits: int = 16) -> int:
    """Interleave the bits of grid coordinates ``(i, j)`` (Z-order curve).

    Two patches close on the decomposition grid get numerically close
    Morton codes, so sorting by the code clusters spatial neighborhoods.
    """
    code = 0
    for b in range(bits):
        code |= ((i >> b) & 1) << (2 * b)
        code |= ((j >> b) & 1) << (2 * b + 1)
    return code


def morton3(i: int, j: int, k: int, bits: int = 10) -> int:
    """Interleave the bits of 3-D grid coordinates (Z-order curve).

    The 3-D analogue of :func:`morton2` for layered/extruded
    decompositions: a patch's ``(i, j, layer)`` cell maps to one curve
    position, so face-adjacent 3-D patches — including vertical neighbors
    in adjacent layers, which a degenerate 2-D key would scatter — land in
    the same pack-file bucket.  ``bits`` defaults lower than morton2's
    because three interleaved axes consume the key space 1.5x faster.
    """
    code = 0
    for b in range(bits):
        code |= ((i >> b) & 1) << (3 * b)
        code |= ((j >> b) & 1) << (3 * b + 1)
        code |= ((k >> b) & 1) << (3 * b + 2)
    return code


class _Extent:
    """Where an object's current stored copy lives: segment-relative
    ``off`` (the layout) and absolute file position ``pos`` (the bytes)."""

    __slots__ = ("seg", "off", "length", "pos")

    def __init__(self, seg: int, off: int, length: int, pos: int) -> None:
        self.seg = seg
        self.off = off
        self.length = length
        self.pos = pos


def _pwrite_all(fd: int, pos: int, bufs: list) -> None:
    """Write ``bufs`` back to back at file offset ``pos``.

    One ``pwrite`` (one buffer) or ``pwritev`` (several) per call, looping
    only over short writes; a write that makes no progress is out of room.
    """
    views = [memoryview(b) for b in bufs if len(b)]
    while views:
        if len(views) == 1:
            n = os.pwrite(fd, views[0], pos)
        else:
            n = os.pwritev(fd, views, pos)
        if n == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        pos += n
        while views and n >= len(views[0]):
            n -= len(views.pop(0))
        if n:
            views[0] = views[0][n:]


class PackFileBackend(StorageBackend):
    """Raw object store laid out as locality-ordered pack segments.

    The bytes live in an anonymous temporary file (see the module
    docstring: ``pread``/``pwrite`` at explicit offsets, no ``mmap``);
    segments, offsets and the curve are in-memory metadata.  No file is
    opened before the first store or append.

    Parameters
    ----------
    segment_bytes:
        Target size of one pack segment; the open segment of a bucket is
        sealed once it grows past this.
    compact_ratio:
        Dead-byte fraction (dead / (live + dead)) above which a store or
        delete triggers compaction.
    bucket_shift:
        Locality keys are grouped into buckets of ``2**bucket_shift``
        curve positions; each bucket appends into its own open segment.
    fail_compaction_at:
        Test/chaos hook — the N-th compaction *attempt* (1-based) raises
        ``RuntimeError`` mid-rewrite, *after* partial new segments exist
        but *before* the atomic swap.  Exercises abort safety; the next
        attempt runs clean.
    """

    def __init__(
        self,
        segment_bytes: int = 1 << 20,
        compact_ratio: float = 0.5,
        bucket_shift: int = 4,
        fail_compaction_at: Optional[int] = None,
    ) -> None:
        self.segment_bytes = int(segment_bytes)
        self.compact_ratio = float(compact_ratio)
        self.bucket_shift = int(bucket_shift)
        self.fail_compaction_at = fail_compaction_at
        self._file = None  # the medium; opened by the first write
        self._close_file: Optional[weakref.finalize] = None
        self._end = 0  # file offset the next write lands at
        self._seg_len: dict[int, int] = {}  # segment id -> bytes appended
        self._extents: dict[int, _Extent] = {}
        self._keys: dict[int, int] = {}
        self._open: dict[int, int] = {}  # bucket -> open segment id
        self._next_seg = 0
        self._curve: list[tuple[int, int]] = []  # sorted (key, oid), live
        self._curve_dirty = False
        # counters (read by stats surfacing and tests)
        self.dead_bytes = 0
        self.live_bytes = 0
        self.segments_created = 0
        self.compactions = 0
        self.compaction_attempts = 0
        self.compaction_aborts = 0
        self.batch_loads = 0
        self.segments_touched = 0

    # ------------------------------------------------------------------
    # locality metadata

    def locality_key(self, oid: int) -> int:
        """Curve position of ``oid`` (defaults to the oid itself)."""
        return self._keys.get(oid, oid)

    def note_locality(self, oid: int, key: Optional[int]) -> None:
        """Record the curve position for ``oid`` (runtime hook).

        ``None`` keys are ignored — the object keeps the creation-order
        default, which still clusters ids allocated together.
        """
        if key is None:
            return
        key = int(key)
        if self._keys.get(oid, oid) == key:
            return
        if oid in self._extents:
            self._discard_curve(oid)
            self._keys[oid] = key
            self._insert_curve(oid)
        else:
            self._keys[oid] = key

    def neighborhood(self, oid: int, limit: int) -> list[int]:
        """Up to ``limit`` stored objects nearest ``oid`` on the curve.

        Walks outward from the object's curve position, alternating the
        nearer side first, so the result is the ring of patches a
        sequential segment read would warm.  ``oid`` itself is excluded;
        an unstored oid anchors at its key but yields only stored peers.
        """
        if limit <= 0:
            return []
        curve = self._sorted_curve()
        if not curve:
            return []
        entry = (self._keys.get(oid, oid), oid)
        pos = bisect_left(curve, entry)
        lo, hi = pos - 1, pos
        if hi < len(curve) and curve[hi][1] == oid:
            hi += 1
        key0 = entry[0]
        out: list[int] = []
        while len(out) < limit and (lo >= 0 or hi < len(curve)):
            dlo = key0 - curve[lo][0] if lo >= 0 else None
            dhi = curve[hi][0] - key0 if hi < len(curve) else None
            if dhi is None or (dlo is not None and dlo <= dhi):
                out.append(curve[lo][1])
                lo -= 1
            else:
                out.append(curve[hi][1])
                hi += 1
        return out

    def _sorted_curve(self) -> list[tuple[int, int]]:
        if self._curve_dirty:
            self._curve = sorted(
                (self._keys.get(oid, oid), oid) for oid in self._extents
            )
            self._curve_dirty = False
        return self._curve

    def _insert_curve(self, oid: int) -> None:
        if not self._curve_dirty:
            insort(self._curve, (self._keys.get(oid, oid), oid))

    def _discard_curve(self, oid: int) -> None:
        if self._curve_dirty:
            return
        entry = (self._keys.get(oid, oid), oid)
        pos = bisect_left(self._curve, entry)
        if pos < len(self._curve) and self._curve[pos] == entry:
            del self._curve[pos]
        else:  # key drifted out from under us; fall back to a rebuild
            self._curve_dirty = True

    # ------------------------------------------------------------------
    # StorageBackend interface

    def store(self, oid: int, data: bytes) -> None:
        self._append_extent(oid, [data])
        self._maybe_compact()

    def append(self, oid: int, data: bytes) -> None:
        """Append via rewrite-at-tail: the object's log stays one extent.

        A pack segment interleaves many objects, so a per-object byte
        append would scatter the log; instead the whole log moves to the
        bucket tail (old extent becomes dead bytes, reclaimed by the
        compactor).  Upper layers see exact append semantics.  The old
        extent and the new bytes go out in one ``pwritev``.
        """
        ext = self._extents.get(oid)
        if ext is None:
            self._append_extent(oid, [data])
        else:
            old = os.pread(self._file.fileno(), ext.length, ext.pos)
            self._append_extent(oid, [old, data])
        self._maybe_compact()

    def load(self, oid: int) -> bytes:
        ext = self._extents.get(oid)
        if ext is None:
            raise ObjectNotFound(f"object {oid} not in pack store")
        return os.pread(self._file.fileno(), ext.length, ext.pos)

    def load_many(self, oids: Iterable[int]) -> dict[int, list[bytes]]:
        """Batched read grouped by segment (one sequential pass each).

        Missing oids are silently absent from the result — batch reads
        back best-effort neighborhood warms, not demand loads.
        """
        by_seg: dict[int, list[tuple[int, int]]] = {}
        for oid in oids:
            ext = self._extents.get(oid)
            if ext is not None:
                by_seg.setdefault(ext.seg, []).append((ext.off, oid))
        out: dict[int, list[bytes]] = {}
        for entries in by_seg.values():
            self.segments_touched += 1
            for _off, oid in sorted(entries):
                ext = self._extents[oid]
                out[oid] = [os.pread(self._file.fileno(), ext.length, ext.pos)]
        if by_seg:
            self.batch_loads += 1
        return out

    def delete(self, oid: int) -> None:
        # Tolerant of absent oids, matching MemoryBackend (the runtime
        # deletes unconditionally on migration and destroy).
        self._kill_extent(oid)
        self._keys.pop(oid, None)
        self._maybe_compact()

    def contains(self, oid: int) -> bool:
        return oid in self._extents

    def size(self, oid: int) -> int:
        ext = self._extents.get(oid)
        if ext is None:
            raise ObjectNotFound(f"object {oid} not in pack store")
        return ext.length

    def stored_ids(self) -> list[int]:
        return list(self._extents)

    def total_bytes(self) -> int:
        return self.live_bytes

    def largest_object(self) -> int:
        return max((e.length for e in self._extents.values()), default=0)

    # ------------------------------------------------------------------
    # layout internals

    def _bucket(self, oid: int) -> int:
        return self._keys.get(oid, oid) >> self.bucket_shift

    def _append_extent(self, oid: int, bufs: list) -> None:
        """Write ``bufs`` as ``oid``'s extent at the tail of its bucket's
        open segment; its old extent becomes dead bytes.

        The write comes first: if it fails nothing else changes, and a
        full medium (``ENOSPC``/``EDQUOT``) raises :class:`StorageFull`.
        """
        if self._file is None:
            self._swap_file(tempfile.TemporaryFile())
        try:
            _pwrite_all(self._file.fileno(), self._end, bufs)
        except OSError as exc:
            if exc.errno in (errno.ENOSPC, errno.EDQUOT):
                raise StorageFull(f"pack file: {exc.strerror}") from exc
            raise
        length = sum(len(b) for b in bufs)
        bucket = self._bucket(oid)
        seg_id = self._open.get(bucket)
        if seg_id is None:
            seg_id = self._next_seg
            self._next_seg += 1
            self._seg_len[seg_id] = 0
            self._open[bucket] = seg_id
            self.segments_created += 1
        self._kill_extent(oid)
        off = self._seg_len[seg_id]
        ext = _Extent(seg_id, off, length, self._end)
        self._end += length
        self._seg_len[seg_id] = off + length
        self._extents[oid] = ext
        self.live_bytes += length
        self._insert_curve(oid)
        if off + length >= self.segment_bytes:
            del self._open[bucket]  # sealed; next store opens a fresh one

    def _swap_file(self, new) -> None:
        """Install ``new`` (or ``None``) as the medium and close the file
        it replaces; an installed file closes when the backend dies."""
        old = self._file
        if self._close_file is not None:
            self._close_file.detach()
        self._file = new
        self._close_file = (
            None if new is None else weakref.finalize(self, new.close)
        )
        if old is not None:
            old.close()

    def _kill_extent(self, oid: int) -> None:
        ext = self._extents.pop(oid, None)
        if ext is None:
            return
        self.dead_bytes += ext.length
        self.live_bytes -= ext.length
        self._discard_curve(oid)

    def _maybe_compact(self) -> None:
        physical = self.live_bytes + self.dead_bytes
        if physical <= self.segment_bytes:
            return
        if self.dead_bytes <= self.compact_ratio * physical:
            return
        try:
            self.compact()
        except (RuntimeError, OSError):
            self.compaction_aborts += 1  # abort-safe: old layout intact

    def compact(self) -> None:
        """Rewrite all live extents in curve order into fresh segments.

        Extents stream one at a time into a new temporary file, so the
        rewrite holds at most one extent in memory.  The new file and
        segment set are built completely on the side and installed with
        one atomic swap that closes the old file; any exception before
        the swap (including the injected ``fail_compaction_at`` kill and
        any ``OSError``) closes the side file and leaves the store
        untouched.
        """
        self.compaction_attempts += 1
        ordinal = self.compaction_attempts
        new_seg_len: dict[int, int] = {}
        new_extents: dict[int, _Extent] = {}
        next_seg = self._next_seg
        cur_id = -1
        pos = 0
        count = 0
        total = len(self._extents)
        side = tempfile.TemporaryFile() if total else None
        try:
            for _key, oid in self._sorted_curve():
                old = self._extents[oid]
                blob = os.pread(self._file.fileno(), old.length, old.pos)
                if cur_id < 0 or new_seg_len[cur_id] >= self.segment_bytes:
                    cur_id = next_seg
                    next_seg += 1
                    new_seg_len[cur_id] = 0
                _pwrite_all(side.fileno(), pos, [blob])
                off = new_seg_len[cur_id]
                new_extents[oid] = _Extent(cur_id, off, old.length, pos)
                new_seg_len[cur_id] = off + old.length
                pos += old.length
                count += 1
                if (
                    self.fail_compaction_at is not None
                    and ordinal == self.fail_compaction_at
                    and count >= max(1, total // 2)
                ):
                    raise RuntimeError(
                        f"injected compaction kill (ordinal {ordinal})"
                    )
        except BaseException:
            if side is not None:
                side.close()
            raise
        # ---- atomic swap: nothing above mutated self ----
        self._swap_file(side)
        self._end = pos
        self._seg_len = new_seg_len
        self._extents = new_extents
        self._open = {}
        self._next_seg = next_seg
        self.segments_created += len(new_seg_len)
        self.dead_bytes = 0
        self._curve_dirty = True
        self.compactions += 1

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Layout counters for surfacing in reports and tests."""
        return {
            "segments": len(self._seg_len),
            "segments_created": self.segments_created,
            "live_bytes": self.live_bytes,
            "dead_bytes": self.dead_bytes,
            "compactions": self.compactions,
            "compaction_attempts": self.compaction_attempts,
            "compaction_aborts": self.compaction_aborts,
            "batch_loads": self.batch_loads,
            "segments_touched": self.segments_touched,
        }
