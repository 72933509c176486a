"""Mobile objects and mobile pointers — the MRTS data model.

From the paper (§II.B):

* a **mobile object** is a location-independent container for application
  data; it can be moved between nodes and unloaded to disk, and is globally
  addressable;
* a **mobile pointer** is the global identifier used to address messages to
  a mobile object, regardless of where the object currently lives; it also
  carries the swap priority and the queued-message count that the control
  layer feeds into swapping decisions;
* objects implement a **serialization interface** (pack/unpack) used both
  for migration and for out-of-core storage.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.util.errors import SerializationError

__all__ = ["MobilePointer", "MobileObject", "Serializer", "PickleSerializer", "revive"]


@dataclass
class MobilePointer:
    """Global handle to a mobile object.

    ``oid`` is the globally unique object id; ``last_known_node`` is the
    directory's (possibly stale) idea of where the object lives — the
    lazy-update protocol forwards and corrects it over time.  The paper
    stores the swap priority and the number of queued messages inside the
    pointer structure, and so do we: the control layer reads both when
    ranking objects for scheduling and eviction.
    """

    oid: int
    last_known_node: int = 0
    priority: float = 0.0
    queued_messages: int = 0

    def __hash__(self) -> int:
        return hash(self.oid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MobilePointer) and other.oid == self.oid


class Serializer:
    """Serialization interface a mobile object class must provide.

    The paper requires applications to define pack/unpack because object
    internals are arbitrary; :class:`PickleSerializer` is the provided
    default for plain-Python payloads.

    Beyond the mandatory pack/unpack pair, a serializer may opt into the
    data-plane fast paths (see :mod:`repro.core.codec`):

    * :meth:`size_estimate` — a cheap size for the out-of-core accountant,
      so ``nbytes()`` probes stop serializing just to measure;
    * ``supports_delta`` + :meth:`delta_token` / :meth:`pack_delta` /
      :meth:`unpack_segments` — declare the payload *append-mostly* so the
      runtime spills only what grew since the last stored copy, as an
      append-log of frames reassembled at load.
    """

    #: True when the payload is append-mostly and the delta hooks below
    #: produce usable incremental segments.
    supports_delta = False

    def pack(self, payload: Any) -> bytes:
        raise NotImplementedError

    def unpack(self, data: bytes) -> Any:
        raise NotImplementedError

    def size_estimate(self, payload: Any) -> Optional[int]:
        """Cheap serialized-size estimate, or None to pack-and-measure."""
        return None

    def delta_token(self, payload: Any) -> Any:
        """Opaque marker of "how much is already stored" (e.g. a length).

        The runtime records the token at every store and hands it back to
        :meth:`pack_delta` on the next dirty spill.  ``None`` disables
        delta spilling for that store.
        """
        return None

    def pack_delta(self, payload: Any, token: Any) -> Optional[bytes]:
        """Bytes covering everything *since* ``token``, or None.

        Returning None means the state cannot be expressed as an append
        against the token (it shrank, was rewritten, ...) and the runtime
        falls back to a full store.
        """
        return None

    def unpack_segments(self, segments: "list[bytes]") -> Any:
        """Reassemble a payload from a full segment plus delta segments."""
        if len(segments) == 1:
            return self.unpack(segments[0])
        raise SerializationError(
            f"{type(self).__name__} cannot reassemble "
            f"{len(segments)} segments (supports_delta is False)"
        )


class PickleSerializer(Serializer):
    """Default serializer: pickle with the highest protocol."""

    def pack(self, payload: Any) -> bytes:
        try:
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises many types
            raise SerializationError(f"pack failed: {exc}") from exc

    def unpack(self, data: bytes) -> Any:
        try:
            return pickle.loads(data)
        except Exception as exc:
            raise SerializationError(f"unpack failed: {exc}") from exc


class MobileObject:
    """Base class for application mobile objects.

    Subclasses hold arbitrary state and register *message handlers* (plain
    methods) with the runtime.  The lifecycle hooks mirror the paper's
    required interface: ``on_init`` when first created, ``on_register`` /
    ``on_unregister`` around migration, and pack/unpack (via ``serializer``)
    for disk and network transfer.

    ``nbytes`` reports the object's in-memory footprint to the out-of-core
    layer.  The default derives it from the packed size (cached and
    invalidated by :meth:`mark_dirty`); subclasses with cheap exact sizes
    should override it.
    """

    serializer: Serializer = PickleSerializer()

    def __init__(self, pointer: MobilePointer) -> None:
        self.pointer = pointer
        self._size_cache: Optional[int] = None
        # Runtime-installed observer, called as ``cb(self)`` on
        # mark_dirty(); lets the out-of-core layer keep Residency.dirty as
        # the single source of truth for "storage copy is stale" without
        # the object knowing anything about residency.  It must not
        # reference this instance: an evicted object is freed by
        # reference count, and a hook closing over it would be a cycle.
        self._dirty_cb: Optional[Any] = None

    # -- identity ----------------------------------------------------------
    @property
    def oid(self) -> int:
        return self.pointer.oid

    # -- lifecycle hooks ------------------------------------------------------
    def on_init(self) -> None:
        """Called once when the object is first created."""

    def on_register(self, node: int) -> None:
        """Called after the object is installed on a node."""

    def on_unregister(self, node: int) -> None:
        """Called before the object leaves a node (migration or spill)."""

    # -- layout ---------------------------------------------------------------
    def locality_key(self) -> Optional[int]:
        """Position on the decomposition's space-filling curve, or ``None``.

        Objects that know where they sit in the mesh (patches, model
        regions) return a Morton/Hilbert index of their grid cell; the
        runtime pushes it to the locality-aware pack-file layout so
        curve-adjacent objects land in the same spill segment and one
        sequential read warms a whole neighborhood.  ``None`` (the
        default) keeps the backend's creation-order placement.
        """
        return None

    # -- serialization ----------------------------------------------------------
    def get_state(self) -> Any:
        """Application state to serialize.  Default: instance ``__dict__``
        minus runtime bookkeeping."""
        state = dict(self.__dict__)
        state.pop("pointer", None)
        state.pop("_size_cache", None)
        state.pop("_dirty_cb", None)
        return state

    def set_state(self, state: Any) -> None:
        """Restore application state produced by :meth:`get_state`."""
        self.__dict__.update(state)

    def pack(self) -> bytes:
        return self.serializer.pack(self.get_state())

    def unpack(self, data: bytes) -> None:
        self.set_state(self.serializer.unpack(data))
        self.mark_dirty()

    def unpack_segments(self, segments: list[bytes]) -> None:
        """Restore state from a stored base segment plus delta segments."""
        self.set_state(self.serializer.unpack_segments(segments))
        self.mark_dirty()

    # -- size accounting ----------------------------------------------------------
    def nbytes(self) -> int:
        """In-memory footprint estimate used by the out-of-core layer.

        Prefers the serializer's cheap :meth:`Serializer.size_estimate`
        and only packs to measure when no estimator is available.
        """
        if self._size_cache is None:
            est = self.serializer.size_estimate(self.get_state())
            if est is None:
                est = len(self.pack())
            self._size_cache = max(est, 1)
        return self._size_cache

    def mark_dirty(self) -> None:
        """Record a payload mutation: size cache and storage copy are stale."""
        self._size_cache = None
        cb = getattr(self, "_dirty_cb", None)
        if cb is not None:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(oid={self.pointer.oid})"


def revive(cls: type, pointer: MobilePointer, segments: list[bytes]) -> MobileObject:
    """A fresh ``cls`` at ``pointer`` holding packed ``segments`` (one full
    pack, or a stored base plus delta frames); ``__init__`` does not run."""
    obj = object.__new__(cls)
    MobileObject.__init__(obj, pointer)
    if len(segments) == 1:
        obj.unpack(segments[0])
    else:
        obj.unpack_segments(segments)
    return obj
