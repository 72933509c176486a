"""The media under a shard worker's spills: peer memory over local disk.

Residency is the single-process :class:`~repro.core.ooc.OOCLayer`; this
module supplies only the medium.  :class:`PeerTier` is one raw
:class:`~repro.core.storage.StorageBackend` over a private disk and the
ring neighbor's RAM — a bounded :class:`~repro.core.remote_memory.MemoryPool`
slab served by that neighbor's :class:`PeerMemoryServer` thread, which
evicts under pressure into its host's overflow backend.  Composed under
:func:`~repro.core.storage.build_storage_stack`, the peer copy gets the
retries, checksummed frames and compression the disk copy gets.

Everything here is transport-agnostic: the peer client/server speak any
object with ``send``/``recv``/``poll`` (a ``multiprocessing`` connection
in production, the same class across an in-process pipe in unit tests —
which is how the forked worker internals stay inside coverage).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.mobile import MobileObject
from repro.core.remote_memory import MemoryPool
from repro.core.storage import StorageBackend
from repro.dist.wire import PeerOp, PeerReply
from repro.util.errors import StorageFull

__all__ = ["PeerMemoryServer", "PeerClient", "PeerTier", "resolve_class"]


def resolve_class(cls_path: str) -> type:
    """Import ``module:qualname`` (the Create message's class reference)."""
    import importlib

    module_name, _, qualname = cls_path.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not isinstance(obj, type) or not issubclass(obj, MobileObject):
        raise TypeError(f"{cls_path} is not a MobileObject subclass")
    return obj


def class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


class PeerMemoryServer:
    """Serve a neighbor's spills out of a bounded local RAM slab.

    Runs as a daemon thread beside the worker's control loop; the thread
    owns the pool exclusively, so no locking is needed.  Requests are
    :class:`PeerOp` rows; a ``put`` that overflows the slab demotes LRU
    entries into the pool's overflow backend (or answers ``ok=False``
    when the pool has no overflow and must refuse).
    """

    def __init__(self, conn, pool: MemoryPool) -> None:
        self.conn = conn
        self.pool = pool
        self.requests = 0
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "PeerMemoryServer":
        self._thread = threading.Thread(target=self.serve, daemon=True)
        self._thread.start()
        return self

    def serve(self) -> None:
        while True:
            try:
                op = self.conn.recv()
            except (EOFError, OSError):
                return
            if op is None:  # orderly shutdown
                return
            self.requests += 1
            self.conn.send(self.handle(op))

    def handle(self, op: PeerOp) -> PeerReply:
        try:
            if op.op == "put":
                self.pool.put(op.oid, op.data)
                return PeerReply(ok=True)
            if op.op == "get":
                if not self.pool.holds(op.oid):
                    return PeerReply(ok=False, error="miss")
                return PeerReply(ok=True, data=self.pool.get(op.oid))
            if op.op == "has":
                return PeerReply(ok=self.pool.holds(op.oid))
            if op.op == "del":
                self.pool.drop(op.oid)
                return PeerReply(ok=True)
            return PeerReply(ok=False, error=f"bad op {op.op!r}")
        except StorageFull as exc:
            return PeerReply(ok=False, error=f"full: {exc}")
        except Exception as exc:  # defensive: a server must answer
            return PeerReply(ok=False, error=f"{type(exc).__name__}: {exc}")


class PeerClient:
    """The worker-side handle on its neighbor's memory server.

    Any transport failure (broken pipe, reply timeout) marks the peer
    dead and makes every later call a cheap no-op miss — the peer tier
    then leans on its disk copy.  A refused put is an answer, not a
    failure.  ``timeout_s`` bounds how long a live-looking but wedged
    peer can stall a load.
    """

    def __init__(self, conn, timeout_s: float = 2.0) -> None:
        self.conn = conn
        self.timeout_s = timeout_s
        self.dead = False
        self.puts = 0
        self.gets = 0
        self.failures = 0

    def _call(self, op: PeerOp) -> Optional[PeerReply]:
        if self.dead or self.conn is None:
            return None
        try:
            self.conn.send(op)
            if not self.conn.poll(self.timeout_s):
                raise TimeoutError("peer reply timeout")
            return self.conn.recv()
        except (EOFError, OSError, TimeoutError, BrokenPipeError):
            self.dead = True
            self.failures += 1
            return None

    def put(self, oid: int, data: bytes) -> bool:
        reply = self._call(PeerOp("put", oid, data))
        if reply is not None and reply.ok:
            self.puts += 1
            return True
        return False

    def get(self, oid: int) -> Optional[bytes]:
        reply = self._call(PeerOp("get", oid))
        if reply is not None and reply.ok:
            self.gets += 1
            return reply.data
        return None

    def drop(self, oid: int) -> None:
        self._call(PeerOp("del", oid))

    def close(self) -> None:
        if self.conn is not None and not self.dead:
            try:
                self.conn.send(None)
            except (OSError, BrokenPipeError):
                pass


class PeerTier(StorageBackend):
    """Peer RAM in front of a write-through disk.

    Every store lands on disk: the peer may be the next chaos victim, so
    losing it costs speed, never bytes.  Loads try the peer first and
    fall back to disk.  A ``put`` the peer refuses or fails drops the
    peer's copy, or an older copy left there would win the next load.
    """

    def __init__(self, disk: StorageBackend, client: PeerClient) -> None:
        self.disk = disk
        self.client = client
        self.fallbacks = 0

    def store(self, oid: int, data: bytes) -> None:
        self.disk.store(oid, data)
        if not self.client.put(oid, data):
            self.client.drop(oid)

    def load(self, oid: int) -> bytes:
        data = self.client.get(oid)
        if data is None:
            self.fallbacks += 1
            return self.disk.load(oid)
        return data

    def delete(self, oid: int) -> None:
        self.disk.delete(oid)
        self.client.drop(oid)

    def contains(self, oid: int) -> bool:
        return self.disk.contains(oid)

    def size(self, oid: int) -> int:
        return self.disk.size(oid)

    def stored_ids(self) -> list[int]:
        return self.disk.stored_ids()
