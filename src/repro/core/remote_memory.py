"""Remote memory as the out-of-core medium.

The paper's conclusion cites [33]: "The MRTS can be modified to use the
memory of remote nodes as out-of-core media.  This would allow such
applications to utilize large memory without major changes to the
algorithm."  This module is that modification: a storage backend whose
load/store ship bytes over the cluster interconnect to *memory servers* —
nodes (or node-memory pools) that hold spilled objects in RAM.

The swap decision logic is untouched — the out-of-core layer neither knows
nor cares whether a spilled object sleeps on a spindle or in a neighbor's
DRAM.  What changes is the *cost*: network latency/bandwidth instead of
disk latency/bandwidth, charged through the same stats channels (so Tables
IV–VI-style breakdowns directly compare the two media).

Use :func:`attach_remote_memory` to replace a runtime's per-node storage
with remote-memory backends, before creating any objects.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.runtime import MRTS
from repro.core.storage import MemoryBackend, StorageBackend
from repro.util.errors import ConfigError, ObjectNotFound, StorageFull

__all__ = ["RemoteMemoryBackend", "MemoryPool", "attach_remote_memory"]


class MemoryPool:
    """Capacity + eviction accounting for one memory server.

    A bounded slab of a neighbor's RAM that clients spill into.  When a
    put would overflow the capacity, the pool demotes its least-recently-
    used entries into an ``overflow`` backend (the host's disk) instead
    of refusing the store; without one it raises
    :class:`~repro.util.errors.StorageFull`.  The LRU is its own, not an
    :class:`~repro.core.ooc.OOCLayer`: a slab holds opaque bytes, with no
    in-core instance to pin, no dirty epoch and no thresholds, so the
    layer would have to branch on its caller.  Counters: ``evictions`` /
    ``demoted_bytes``, ``peak_used``, ``overflow_loads`` (demoted reads).
    """

    def __init__(
        self, capacity_bytes: int, overflow: Optional[StorageBackend] = None
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("memory pool capacity must be positive")
        self.capacity = capacity_bytes
        self.used = 0
        self.store = MemoryBackend()
        self.overflow = overflow
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.evictions = 0
        self.demoted_bytes = 0
        self.peak_used = 0
        self.overflow_loads = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # ------------------------------------------------------------ accounting
    def touch(self, oid: int) -> None:
        """Mark ``oid`` most-recently-used (a load or a refreshing store)."""
        if oid in self._lru:
            self._lru.move_to_end(oid)

    def _charge(self, delta: int) -> None:
        self.used += delta
        if self.used > self.peak_used:
            self.peak_used = self.used

    def evict_candidates(self, need_bytes: int) -> list[int]:
        """Least-recently-used entries whose sizes cover ``need_bytes``."""
        victims: list[int] = []
        covered = 0
        for oid in self._lru:
            if covered >= need_bytes:
                break
            victims.append(oid)
            covered += self.store.size(oid)
        return victims

    def make_room(self, need_bytes: int) -> list[int]:
        """Evict LRU entries until ``need_bytes`` fit; returns demoted oids.

        The eviction-on-peer-pressure path: each victim's bytes move to the
        ``overflow`` backend and leave the RAM slab.  Raises
        :class:`StorageFull` when there is no overflow backend to demote
        into, or when ``need_bytes`` exceeds the whole capacity.
        """
        if need_bytes <= self.free:
            return []
        if self.overflow is None or need_bytes > self.capacity:
            raise StorageFull(
                f"memory pool exhausted ({self.used} B used, "
                f"{need_bytes} B needed, {self.capacity} B capacity)"
            )
        demoted: list[int] = []
        while self.free < need_bytes and self._lru:
            victim, _ = self._lru.popitem(last=False)
            data = self.store.load(victim)
            self.overflow.store(victim, data)
            self.store.delete(victim)
            self._charge(-len(data))
            self.evictions += 1
            self.demoted_bytes += len(data)
            demoted.append(victim)
        if self.free < need_bytes:
            raise StorageFull(
                f"memory pool cannot make room for {need_bytes} B "
                f"(capacity {self.capacity} B, {self.used} B pinned)"
            )
        return demoted

    # ------------------------------------------------------------- data plane
    def put(self, oid: int, data: bytes) -> list[int]:
        """Store (or replace) an entry, evicting under pressure if needed.

        Returns the oids demoted to overflow to make room (empty when the
        store fit).  A replaced entry's old bytes are released first, and
        an overflow copy left by an earlier demotion is superseded.
        """
        old = self.store.size(oid) if self.store.contains(oid) else 0
        demoted = self.make_room(len(data) - old)
        self.store.store(oid, data)
        self._charge(len(data) - old)
        self._lru[oid] = None
        self._lru.move_to_end(oid)
        if self.overflow is not None and oid not in demoted \
                and self.overflow.contains(oid):
            self.overflow.delete(oid)  # RAM copy is now the truth
        return demoted

    def append(self, oid: int, data: bytes) -> list[int]:
        """Append to an entry's log, evicting under pressure if needed."""
        demoted = self.make_room(len(data))
        self.store.append(oid, data)
        self._charge(len(data))
        if oid in self._lru:
            self._lru.move_to_end(oid)
        else:
            self._lru[oid] = None
        return demoted

    def get(self, oid: int) -> bytes:
        """Read an entry from RAM, falling back to the overflow tier."""
        if self.store.contains(oid):
            self.touch(oid)
            return self.store.load(oid)
        if self.overflow is not None and self.overflow.contains(oid):
            self.overflow_loads += 1
            return self.overflow.load(oid)
        raise ObjectNotFound(f"object {oid} not in memory pool")

    def holds(self, oid: int) -> bool:
        """Is the entry present (in RAM or demoted to overflow)?"""
        return self.store.contains(oid) or (
            self.overflow is not None and self.overflow.contains(oid)
        )

    def drop(self, oid: int) -> None:
        """Delete an entry from whichever tier holds it (idempotent)."""
        if self.store.contains(oid):
            self._charge(-self.store.size(oid))
            self.store.delete(oid)
            self._lru.pop(oid, None)
        if self.overflow is not None and self.overflow.contains(oid):
            self.overflow.delete(oid)


class RemoteMemoryBackend(StorageBackend):
    """Spill to a remote node's RAM over the interconnect.

    Each operation charges virtual network time on the owning node's NIC
    (one-sided put/get, like the ARMCI transfers the MRTS already uses) and
    books it as *disk* time in the stats — it plays the disk's role, and
    keeping the accounting channel stable lets every existing breakdown
    table compare media directly.
    """

    def __init__(
        self,
        runtime: MRTS,
        rank: int,
        pool: MemoryPool,
        server_rank: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.rank = rank
        self.pool = pool
        # By default the "server" is the next node over (ring), matching
        # the common deployment of dedicating neighbors' spare memory.
        self.server_rank = (
            server_rank
            if server_rank is not None
            else (rank + 1) % len(runtime.nodes)
        )

    # -- StorageBackend interface ----------------------------------------------
    # Timing note: the runtime charges transfer time itself (its
    # spill.disk_xfer routes through the interconnect when a node has a spill
    # server attached), so this backend only manages bytes and capacity —
    # all through the pool's accounting, so LRU order, pressure evictions
    # and watermarks are maintained for every client of the server.
    def store(self, oid: int, data: bytes) -> None:
        self.pool.put(oid, data)

    def append(self, oid: int, data: bytes) -> None:
        self.pool.append(oid, data)

    def load(self, oid: int) -> bytes:
        return self.pool.get(oid)

    def delete(self, oid: int) -> None:
        self.pool.drop(oid)

    def contains(self, oid: int) -> bool:
        return self.pool.holds(oid)

    def size(self, oid: int) -> int:
        if self.pool.store.contains(oid):
            return self.pool.store.size(oid)
        if self.pool.overflow is not None and self.pool.overflow.contains(oid):
            return self.pool.overflow.size(oid)
        return self.pool.store.size(oid)  # raises ObjectNotFound

    def stored_ids(self) -> list[int]:
        ids = set(self.pool.store.stored_ids())
        if self.pool.overflow is not None:
            ids.update(self.pool.overflow.stored_ids())
        return sorted(ids)


def attach_remote_memory(
    runtime: MRTS, pool_bytes_per_node: int, fault_plan=None
) -> list[MemoryPool]:
    """Replace every node's spill storage with remote-memory backends.

    Must be called on a fresh runtime (before objects exist).  Each node
    gets a dedicated pool of ``pool_bytes_per_node`` hosted by its ring
    neighbor.  The backend is composed through the runtime's self-healing
    stack (retry + checksummed frames + counting), exactly like a disk
    backend; pass a :class:`~repro.testing.faults.FaultPlan` to exercise
    it under injected faults (each node's plan reseeded by rank).
    Returns the pools for inspection.
    """
    if runtime.pointers:
        raise ConfigError("attach_remote_memory requires a fresh runtime")
    pools = []
    for nrt in runtime.nodes:
        pool = MemoryPool(pool_bytes_per_node)
        remote = RemoteMemoryBackend(runtime, nrt.rank, pool)
        backend: StorageBackend = remote
        if fault_plan is not None:
            from dataclasses import replace

            from repro.testing.faults import FaultyBackend

            backend = FaultyBackend(
                backend, replace(fault_plan, seed=fault_plan.seed + nrt.rank)
            )
        nrt.storage = runtime.compose_storage(nrt.rank, backend)
        nrt.spill_server = remote.server_rank
        pools.append(pool)
    return pools
