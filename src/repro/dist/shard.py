"""Consistent-hash sharding of the mobile-object directory.

Weaver's multicomputer object store (PAPERS.md) partitions the object
directory across nodes so that no single node owns routing truth; we use
the classic consistent-hashing construction (Karger et al.) so that the
partition is *stable under membership change*: when a worker joins or
leaves, only the keys on the affected arc move, never the whole keyspace.
That property is what turns a worker crash into a shard re-home instead
of a full redistribution — and it is pinned by a Hypothesis property test
(``tests/test_dist_shard_property.py``).

Hashing uses :func:`hashlib.blake2b` with a fixed digest size: Python's
builtin ``hash`` is salted per process (PYTHONHASHSEED), which would make
the shard map differ between the coordinator and its workers — the exact
bug class this module must rule out.  Every process that builds a
:class:`HashRing` from the same member set computes the same assignment.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

__all__ = ["shard_hash", "HashRing"]

# Virtual nodes per member.  More vnodes = smoother load at the cost of a
# bigger sorted table; 192 keeps max/ideal load under 2x for the member
# counts we run (<= 16 workers) across contiguous oid ranges.
DEFAULT_VNODES = 192


def shard_hash(key: object) -> int:
    """Position of ``key`` on the ring: a process-stable 64-bit hash."""
    data = repr(key).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring mapping keys (oids) to member ids (ranks).

    ``assign`` walks clockwise from the key's hash to the first virtual
    node.  Membership changes are O(vnodes log n) and move only the keys
    whose owning arc changed.
    """

    def __init__(self, members: Iterable[int] = ()) -> None:
        self._points: list[int] = []        # sorted vnode positions
        self._owner: dict[int, int] = {}    # vnode position -> member
        self.members: set[int] = set()
        for member in members:
            self.add(member)

    # ------------------------------------------------------------ membership
    def _positions(self, member: int) -> list[int]:
        return [
            shard_hash((member, i)) for i in range(DEFAULT_VNODES)
        ]

    def add(self, member: int) -> None:
        if member in self.members:
            return
        self.members.add(member)
        for pos in self._positions(member):
            # Collisions across 64-bit blake2b are effectively impossible;
            # keep the first owner deterministic anyway (lowest member id)
            # so coordinator and workers can never disagree.
            if pos in self._owner:
                self._owner[pos] = min(self._owner[pos], member)
                continue
            self._owner[pos] = member
            bisect.insort(self._points, pos)

    def remove(self, member: int) -> None:
        if member not in self.members:
            return
        self.members.discard(member)
        for pos in self._positions(member):
            if self._owner.get(pos) == member:
                del self._owner[pos]
                idx = bisect.bisect_left(self._points, pos)
                if idx < len(self._points) and self._points[idx] == pos:
                    del self._points[idx]

    # --------------------------------------------------------------- queries
    def assign(self, key: object) -> int:
        """The member owning ``key`` (first vnode clockwise of its hash)."""
        if not self._points:
            raise LookupError("hash ring has no members")
        idx = bisect.bisect_right(self._points, shard_hash(key))
        if idx == len(self._points):
            idx = 0
        return self._owner[self._points[idx]]

    def __contains__(self, member: int) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)

