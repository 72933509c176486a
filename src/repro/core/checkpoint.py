"""Checkpoint / restore on top of the out-of-core subsystem.

The paper's conclusion: "check and restore functionality for fault
tolerance can be implemented with little effort on top of the out-of-core
subsystem which is important for large scale applications."  This module
is that little effort: a checkpoint is exactly an out-of-core *unload of
everything* — every mobile object serialized through its existing
pack/unpack interface — plus the runtime's control-plane state (directory
truth, pending message queues, termination counters).

A checkpoint can only be taken at quiescence or between handler executions
(handlers are atomic, so any event boundary is a consistent cut).  Use
:func:`checkpoint` after a phase completes, or :class:`CheckpointPolicy`
to snapshot automatically every N retired messages.

Restoring builds a *fresh* runtime on an identical cluster spec and
repopulates it: same object ids, same pending messages, same directory
locations.  Virtual time restarts at zero (wall-clock of a restarted job),
which does not affect any application-visible state.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Optional

from repro.core.messages import Message
from repro.core.mobile import MobilePointer
from repro.core.runtime import MRTS
from repro.core.spill import (
    admit,
    canonical_payload,
    install,
    pack_local,
    rehydrate,
)
from repro.core.storage import decode_frame, encode_frame
from repro.util.errors import CorruptObject, MRTSError

__all__ = ["Checkpoint", "checkpoint", "restore", "CheckpointPolicy"]


@dataclass
class _ObjectRecord:
    oid: int
    node: int
    cls_name: str
    cls_module: str
    payload: bytes
    nbytes: int
    priority: float
    locked: int
    pending: list  # [(handler, args, kwargs, source_node)]


@dataclass
class Checkpoint:
    """A consistent snapshot of an MRTS application."""

    n_nodes: int
    objects: list[_ObjectRecord] = field(default_factory=list)
    next_oid: int = 0
    outstanding: int = 0

    def to_bytes(self) -> bytes:
        """Serialize with the same length+CRC32 frame as stored objects.

        A torn snapshot write then fails loudly at :meth:`from_bytes`
        (:class:`CorruptObject`) instead of unpickling garbage.
        """
        return encode_frame(
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        payload = decode_frame(data, context="checkpoint")
        try:
            snapshot = pickle.loads(payload)
        except Exception as exc:
            raise CorruptObject(f"checkpoint does not unpickle: {exc}") from exc
        if not isinstance(snapshot, cls):
            raise MRTSError("data is not a Checkpoint")
        return snapshot

    def payload_for(self, oid: int) -> Optional[bytes]:
        """Packed bytes of ``oid`` in this snapshot, or None if absent.

        Backed by a lazily built index (excluded from pickling) so the
        corrupt-load fallback path is O(1) per lookup.
        """
        index = getattr(self, "_payload_index", None)
        if index is None:
            index = {rec.oid: rec.payload for rec in self.objects}
            object.__setattr__(self, "_payload_index", index)
        return index.get(oid)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_payload_index", None)
        return state

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def pending_messages(self) -> int:
        return sum(len(rec.pending) for rec in self.objects)


def checkpoint(runtime: MRTS) -> Checkpoint:
    """Snapshot every mobile object and its pending messages.

    Must be called at an event boundary (between `run()` phases, or from
    outside the engine); a handler mid-flight would make the cut
    inconsistent, so the presence of in-flight handlers is an error.
    """
    snapshot = Checkpoint(
        n_nodes=len(runtime.nodes),
        next_oid=runtime.next_oid,
        outstanding=runtime.termination.outstanding,
    )
    for nrt in runtime.nodes:
        for oid, rec in sorted(nrt.locals.items()):
            if rec.in_flight > 0:
                raise MRTSError(
                    f"cannot checkpoint: object {oid} has a handler in flight"
                )
            obj = rec.obj
            if obj is None:
                # Write-behind keeps storage.store() synchronous in Python
                # time, so a spilled object's bytes are always readable
                # here even while its virtual disk charge is still
                # draining.  Delta spills may have left an append-log;
                # the canonical payload reassembles it into one full blob.
                payload = canonical_payload(runtime, nrt, oid)
            else:
                payload = pack_local(runtime, rec)
            cls = runtime.object_class(oid)
            residency = nrt.ooc.table[oid]
            pending = [
                (m.handler, m.args, m.kwargs, m.source_node)
                for m in rec.queue
                if isinstance(m, Message)
            ]
            snapshot.objects.append(
                _ObjectRecord(
                    oid=oid,
                    node=nrt.rank,
                    cls_name=cls.__name__,
                    cls_module=cls.__module__,
                    payload=payload,
                    nbytes=residency.nbytes,
                    priority=residency.priority,
                    locked=residency.locked,
                    pending=pending,
                )
            )
    return snapshot


def restore(
    snapshot: Checkpoint,
    runtime: MRTS,
    class_map: Optional[dict[str, type]] = None,
) -> dict[int, MobilePointer]:
    """Repopulate a fresh runtime from a checkpoint.

    ``runtime`` must be newly constructed (no objects yet) with at least as
    many nodes as the snapshot.  ``class_map`` overrides class resolution
    (useful when classes are defined in __main__ or moved between
    versions); by default classes are imported from their recorded module.
    Returns oid -> pointer for the restored objects.
    """
    if runtime.pointers:
        raise MRTSError("restore requires a fresh runtime")
    if len(runtime.nodes) < snapshot.n_nodes:
        raise MRTSError(
            f"snapshot needs {snapshot.n_nodes} nodes; runtime has "
            f"{len(runtime.nodes)}"
        )
    pointers: dict[int, MobilePointer] = {}
    for rec in snapshot.objects:
        cls = _resolve_class(rec, class_map)
        ptr = MobilePointer(oid=rec.oid, last_known_node=rec.node)
        runtime.register_object(ptr, cls, rec.node)
        obj = rehydrate(runtime, rec.oid, [rec.payload])
        nrt = runtime.nodes[rec.node]
        admit(runtime, nrt, rec.oid, rec.nbytes)
        nrt.ooc.set_priority(rec.oid, rec.priority)
        for _ in range(rec.locked):
            nrt.ooc.lock(rec.oid)
        # Freshly restored state is dirty (this runtime's storage has no
        # copy) but the payload doubles as a warm pack cache.
        install(runtime, nrt, rec.oid, obj, pack_cache=rec.payload)
        pointers[rec.oid] = ptr
    # Requeue pending messages (after all objects exist, so targets resolve).
    for rec in snapshot.objects:
        for handler_name, args, kwargs, source in rec.pending:
            runtime.post(pointers[rec.oid], handler_name, *args, **kwargs)
    # Restart id allocation past every restored id.
    runtime.reserve_oids(snapshot.next_oid)
    return pointers


def _resolve_class(rec: _ObjectRecord, class_map: Optional[dict[str, type]]):
    if class_map and rec.cls_name in class_map:
        return class_map[rec.cls_name]
    import importlib

    module = importlib.import_module(rec.cls_module)
    cls = getattr(module, rec.cls_name, None)
    if cls is None:
        raise MRTSError(
            f"cannot resolve class {rec.cls_name} from {rec.cls_module}; "
            "pass class_map"
        )
    return cls


class CheckpointPolicy:
    """Automatic snapshots every N retired messages.

    Wraps the runtime's termination detector: after every ``interval``
    completed work items, a checkpoint is taken (at the event boundary
    following quiescence of in-flight handlers, which in practice means:
    recorded lazily and materialized by :meth:`take_if_due` called from the
    application's driver loop between phases).
    """

    def __init__(self, runtime: MRTS, interval: int = 1000) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.runtime = runtime
        self.interval = interval
        self._last_total = 0
        self.snapshots: list[Checkpoint] = []

    def take_if_due(self) -> Optional[Checkpoint]:
        """Call between phases: snapshot if enough work has retired."""
        total = self.runtime.termination.total_items
        if total - self._last_total >= self.interval:
            snap = checkpoint(self.runtime)
            self.snapshots.append(snap)
            self._last_total = total
            return snap
        return None

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.snapshots[-1] if self.snapshots else None
