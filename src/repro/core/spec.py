"""Speculative execution past phase boundaries (PR 9).

The UPDR-style applications synchronize in phases: a coordinator posts a
color's refine messages, waits for every ``block_done``, then posts the
next color.  Between the last straggler of one phase and the fan-out of
the next, every other PE idles — the global-sync stall the paper's
overlap machinery cannot hide, because there is simply no posted work.

Speculation manufactures that work.  A message posted with
``ctx.post_speculative`` carries ``speculative=True`` and may execute
*before* its phase begins, against probably-stable inputs.  The ready
queue demotes speculation below all real work (see
:meth:`~repro.core.control.ReadyQueue.pop`), so it only ever fills
otherwise-idle handler slots.  A speculative execution is provisional:

* **begin** — before the handler body runs, the manager snapshots the
  object's packed state (the same pack-level representation checkpoints
  use), records the directory's write-version stamp and the modeled
  size.  The handler then executes normally — its in-core mutations are
  real — but the messages it produces are *buffered* on the record
  instead of dispatched.
* **conflict** — any non-speculative write reaching the object while a
  record pends (a handler execution, a direct call, or a migration's
  state capture) proves the speculation read stale input: the record is
  aborted *eagerly*, before the conflicting access touches the object.
* **commit** — the common path is the *local* quiescent point
  (:meth:`SpeculationManager.resolve_local`): when the worker finishes
  draining an object's queue, every message delivered since the
  speculation began has executed and any non-speculative one would
  have eagerly aborted the record — so a surviving record saw no
  conflicting write, its version stamp still matches, and its buffered
  outbox publishes immediately.  Committing locally is what lets one
  speculative wavefront feed the next without a run-wide
  synchronization in between.  Records whose queues never drain are
  resolved at the global quiescent cut (the termination detector's
  outstanding count is zero, so validation reads frozen directory
  versions — exact, never racy).  Either way: a record whose recorded
  version still matches the directory commits — the version is bumped
  and the buffered outbox dispatches; anything else aborts.
* **abort** — rollback is per-object, never a full-world rewind: the
  pre-speculation snapshot is restored (in core via a fresh unpack, or
  by rewriting the storage copy if the object spilled mid-speculation)
  and the record's messages are re-posted with the flag cleared, so the
  work re-runs for real.  Mis-speculation costs one object's wasted
  compute, nothing more.

The backstop ``resolve`` validates its records against the *quiescent
cut*: while it runs no handler executes, so directory versions are
frozen and all records are checked against the same fully-drained
state.
Within one pass, commits release buffered writes — a later record whose
object is targeted by an already-released write is conservatively
aborted (exactly what eager detection would do once that write
executed, minus the extra quiescence round-trip).  Together the two
rules make "validation never admits a stale read" structural rather
than probabilistic (``tests/test_core_spec.py`` pins it).

With ``config.speculation`` off the manager is never constructed and
every hook is a ``None`` check — the default runtime is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.control import dispatch_outbox, post_message
from repro.core.spill import (
    install,
    pack_local,
    rebaseline,
    rehydrate,
    resize_resident,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import MRTS

__all__ = ["SpecRecord", "SpeculationManager"]


@dataclass
class SpecRecord:
    """One object's pending speculative state.

    ``snapshot``/``version``/``pre_nbytes`` describe the object as it was
    before its *first* speculative execution; further speculative
    messages on the same object merge into the record (one rollback
    point per object, in creation order ``seq``).  ``messages`` are the
    speculative messages executed against the record (re-posted on
    abort); ``outbox`` is everything those executions produced, buffered
    until commit.
    """

    oid: int
    seq: int
    version: int
    snapshot: bytes
    pre_nbytes: int
    messages: list = field(default_factory=list)
    outbox: list = field(default_factory=list)


class SpeculationManager:
    """Begin/commit/abort protocol over per-object :class:`SpecRecord`\\ s."""

    def __init__(self, runtime: "MRTS") -> None:
        self.runtime = runtime
        # Test hook: abort every record that reaches commit validation,
        # so a chaos cell can prove rollback leaves state identical to a
        # non-speculative reference.
        self.force_abort = False
        self.pending: dict[int, SpecRecord] = {}
        self._seq = 0

    def has_pending(self, oid: int) -> bool:
        return oid in self.pending

    # ------------------------------------------------------------- begin
    def begin(self, nrt, oid: int, rec, msg) -> SpecRecord:
        """A speculative handler is about to run; snapshot if first.

        The worker has already loaded the object, so the snapshot packs
        the in-core state (through the record's pack cache — an object
        that was clean at begin packs for free).
        """
        record = self.pending.get(oid)
        if record is None:
            self._seq += 1
            record = SpecRecord(
                oid=oid,
                seq=self._seq,
                version=self.runtime.directory.version(oid),
                snapshot=pack_local(self.runtime, rec, nrt.rank),
                pre_nbytes=nrt.ooc.table[oid].nbytes,
            )
            self.pending[oid] = record
        record.messages.append(msg)
        self.runtime.ledger.spec(nrt.rank, oid, "issued")
        return record

    # ---------------------------------------------------------- conflict
    def abort_if_pending(self, oid: int) -> None:
        """A non-speculative write is about to touch ``oid``: roll back
        its pending speculation first, so the write sees pre-spec state
        and the speculated work re-runs against the updated input."""
        record = self.pending.get(oid)
        if record is not None:
            self.abort(record)

    # ----------------------------------------------------------- resolve
    def resolve_local(self, oid: int) -> None:
        """Commit/abort ``oid``'s record at its *local* quiescent point.

        The worker calls this when the object's message queue drains.
        Every message delivered to the object since the speculation
        began has executed by then, and any non-speculative one would
        have eagerly aborted the record — so a record that survives to
        the drain's end saw no conflicting write: its version stamp
        still matches and the buffered effects serialize correctly
        after everything the object has observed.  Publishing them now
        instead of at the global cut is what lets one speculative
        wavefront feed the next without a run-wide synchronization in
        between; the global :meth:`resolve` remains the backstop for
        records whose queues never drain before quiescence.
        """
        record = self.pending.get(oid)
        if record is None:
            return
        if (
            self.force_abort
            or record.version != self.runtime.directory.version(oid)
        ):
            self.abort(record)
        else:
            self.commit(record)

    def resolve(self) -> bool:
        """Commit/abort every pending record at the quiescent cut.

        No handler runs while this executes, so directory versions are
        frozen: each record's validation reads the same fully-drained
        state.  Records resolve in ``seq`` order; a commit releases its
        buffered outbox, and any later record whose object one of those
        released writes targets is conservatively aborted (the write
        would have eagerly aborted it on execution anyway — resolving it
        here skips the extra quiescence round-trip).  Returns True when
        new work credits were injected (the caller must keep the run
        alive instead of declaring termination); False once everything
        resolved with nothing re-entering flight.
        """
        term = self.runtime.termination
        directory = self.runtime.directory
        if not self.pending:
            return False
        before = term.outstanding
        touched: set[int] = set()
        for record in sorted(self.pending.values(), key=lambda r: r.seq):
            if (
                self.force_abort
                or record.version != directory.version(record.oid)
                or record.oid in touched
            ):
                self.abort(record)
            else:
                for msg in record.outbox:
                    targets = getattr(msg, "targets", None)
                    if targets is not None:  # multicast
                        touched.update(p.oid for p in targets)
                    else:
                        touched.add(msg.target.oid)
                self.commit(record)
        return term.outstanding > before

    # ------------------------------------------------------------ commit
    def commit(self, record: SpecRecord) -> None:
        """Validation admitted the record: publish its buffered effects."""
        oid = record.oid
        node = self.runtime.directory.location(oid)
        del self.pending[oid]
        self.runtime.directory.bump_version(oid)
        self.runtime.ledger.spec(node, oid, "committed", len(record.messages))
        dispatch_outbox(self.runtime, record.outbox, node)

    # ------------------------------------------------------------- abort
    def abort(self, record: SpecRecord) -> None:
        """Restore the pre-speculation snapshot and re-post for real.

        The buffered outbox is discarded (none of it ever dispatched);
        the record's own messages re-enter the mail system with the
        speculative flag cleared, so the work re-runs as ordinary
        non-speculative executions against the restored state.
        """
        oid = record.oid
        node = self.runtime.directory.location(oid)
        nrt = self.runtime.nodes[node]
        del self.pending[oid]
        self._restore(nrt, oid, record)
        self.runtime.ledger.spec(node, oid, "aborted", len(record.messages))
        for msg in record.messages:
            msg.speculative = False
            post_message(self.runtime, msg, node)

    def _restore(self, nrt, oid: int, record: SpecRecord) -> None:
        rt = self.runtime
        rec = nrt.locals[oid]
        if rec.obj is not None:
            # In core: rebuild a fresh instance from the snapshot, exactly
            # as a migration installs its clone.  The restored state
            # diverges from whatever the storage copy holds, so the
            # residency goes dirty with a warm pack cache (= snapshot).
            rec.obj.on_unregister(nrt.rank)
            install(
                rt, nrt, oid, rehydrate(rt, oid, [record.snapshot]),
                pack_cache=record.snapshot,
            )
            nrt.ooc.mark_dirty(oid)
            resize_resident(rt, nrt, oid, record.pre_nbytes)
        else:
            # Spilled mid-speculation: the medium holds post-spec bytes.
            # Rewrite it with the snapshot in Python time — no virtual
            # disk charge, mirroring how the spill that created those
            # bytes already charged the write path once; rollback is
            # bookkeeping, not a modeled I/O.
            nrt.storage.delete(oid)
            nrt.storage.store(oid, record.snapshot)
            nrt.ooc.table[oid].nbytes = record.pre_nbytes
        # Either way the delta log no longer describes the medium: force
        # the next dirty spill to re-baseline with a full store.
        rebaseline(rec, len(record.snapshot))
        rec.stored_modeled = record.pre_nbytes

    # ---------------------------------------------------------- lifecycle
    def forget(self, oid: int) -> None:
        """Object destroyed: drop any pending record (effects evaporate)."""
        self.pending.pop(oid, None)
