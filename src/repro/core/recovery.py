"""Automatic recovery: supervised execution on top of checkpoint/restore.

The paper's conclusion says fault tolerance "can be implemented with
little effort on top of the out-of-core subsystem"; PR 1 built the
manual half (:func:`~repro.core.checkpoint.checkpoint` /
:func:`~repro.core.checkpoint.restore`).  This module closes the loop:
:class:`RecoveryPolicy` owns a runtime, snapshots it at phase boundaries
through a :class:`~repro.core.checkpoint.CheckpointPolicy`, and — when a
run dies on a fail-stop storage fault or unrecoverable corruption —
rebuilds a *fresh* runtime from the most recent snapshot and resumes
from that consistent cut.

Why always a fresh runtime: when a worker coroutine raises, the engine
loses that worker and the message it was processing — the old engine can
never reach quiescence again.  Restoring into a new runtime (the same
way a restarted job would) is both simpler and actually correct.

The consistent-cut argument: snapshots are taken only at quiescence
(between ``run()`` phases), so a snapshot plus the *replay log* — every
external ``post()`` since that snapshot — reconstructs exactly the work
the application submitted.  Messages pending inside the snapshot are
re-posted by ``restore()`` itself; the replay log is cleared at each
snapshot, so nothing is ever delivered twice.

Degraded mode: a :class:`~repro.util.errors.StorageFull` from the medium
triggers the same rebuild, but with ``config.degraded = True`` — the
out-of-core layer tightens the hard-threshold headroom to its floor and
stops proactive spills, minimizing further stores to the full medium.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.core.checkpoint import Checkpoint, CheckpointPolicy, checkpoint, restore
from repro.core.mobile import MobilePointer
from repro.core.runtime import MRTS
from repro.core.stats import RunStats
from repro.util.errors import (
    CorruptObject,
    MRTSError,
    StorageFull,
    TransientStorageError,
)

__all__ = ["RecoveryPolicy", "RecoveryFailed"]

# Failures the supervisor recovers from.  Everything else (application
# bugs, OutOfMemory from over-locking, ...) propagates: restarting would
# deterministically hit it again.
_RECOVERABLE = (TransientStorageError, CorruptObject, StorageFull)


class RecoveryFailed(MRTSError):
    """The restart budget is exhausted or no snapshot exists to restore."""


class RecoveryPolicy:
    """Supervise a runtime: checkpoint at phase boundaries, restart on faults.

    Parameters
    ----------
    factory:
        ``config -> MRTS`` building a *fresh, empty* runtime on the same
        cluster spec.  Called with ``None`` for the first incarnation and
        with a (possibly degraded) config override on rebuilds.  It must
        not create application objects — ``restore()`` repopulates them.
        A factory may count its calls to vary the storage fault plan per
        incarnation ("the failed disk was replaced").
    build:
        Optional ``runtime -> pointers`` run once on the first incarnation
        to create the initial application objects (and optionally post the
        initial messages, which land in the baseline snapshot as pending).
        ``pointers`` is a dict ``oid -> MobilePointer`` or an iterable of
        pointers.
    interval:
        Checkpoint every this many retired work items (evaluated at phase
        boundaries, i.e. between :meth:`run` calls).
    max_restarts:
        Hard bound on recovery attempts; exceeding it raises
        :class:`RecoveryFailed` with the last failure chained.
    class_map:
        Passed through to ``restore()`` for class resolution.
    """

    def __init__(
        self,
        factory: Callable[[Optional[object]], MRTS],
        build: Optional[Callable[[MRTS], object]] = None,
        interval: int = 50,
        max_restarts: int = 8,
        class_map: Optional[dict[str, type]] = None,
    ) -> None:
        self.factory = factory
        self.class_map = class_map
        self.max_restarts = max_restarts
        self.restarts = 0
        self.degraded_restarts = 0
        self.events: list[str] = []
        self._degraded = False
        self._replay_log: list[tuple[int, str, tuple, dict]] = []
        self.runtime = factory(None)
        self._base_config = self.runtime.config
        self.pointers: dict[int, MobilePointer] = {}
        if build is not None:
            self._adopt_pointers(build(self.runtime))
        self.checkpointer = CheckpointPolicy(self.runtime, interval)
        # Baseline snapshot: recovery is possible from the very first
        # fault, before any interval has elapsed.
        self.checkpointer.snapshots.append(checkpoint(self.runtime))
        self.runtime.stored_since_snapshot.clear()
        self._install_recovery_source(self.runtime)

    # ------------------------------------------------------------ application
    def post(self, target: MobilePointer, handler_name: str, *args, **kwargs):
        """Post external work through the supervisor.

        Logged for replay: if a later fault rolls the runtime back to a
        snapshot predating this post, the message is re-posted against the
        restored world.  (Posts made directly on ``self.runtime`` bypass
        the log and are lost on rollback.)
        """
        self._replay_log.append((target.oid, handler_name, args, kwargs))
        self.runtime.post(self._current(target), handler_name, *args, **kwargs)

    def run(self, until: Optional[float] = None) -> RunStats:
        """Run to quiescence, recovering from storage faults as needed."""
        while True:
            try:
                stats = self.runtime.run(until=until)
                self._maybe_checkpoint()
                return stats
            except _RECOVERABLE as exc:
                self._recover(exc)

    def get_object(self, target: MobilePointer):
        return self.runtime.get_object(self._current(target))

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpointer.latest

    # -------------------------------------------------------------- internals
    def _current(self, target: MobilePointer) -> MobilePointer:
        """The live pointer for a (possibly pre-restart) pointer."""
        return self.pointers.get(target.oid, target)

    def _adopt_pointers(self, built) -> None:
        if built is None:
            return
        if isinstance(built, dict):
            self.pointers.update(built)
        else:
            self.pointers.update({p.oid: p for p in built})

    def _maybe_checkpoint(self) -> None:
        snap = self.checkpointer.take_if_due()
        if snap is not None:
            # The snapshot captures every effect of the logged posts (the
            # run that just finished was quiescent), so replaying them
            # after a restore of *this* snapshot would double-deliver.
            self._replay_log.clear()
            # Every storage copy is captured by (or older than) this
            # snapshot, so the in-place corrupt-load repair is exact again.
            self.runtime.stored_since_snapshot.clear()
            self.events.append(f"checkpoint #{len(self.checkpointer.snapshots)}")

    def _install_recovery_source(self, runtime: MRTS) -> None:
        snapshots = self.checkpointer.snapshots

        def lookup(oid: int) -> Optional[bytes]:
            for snap in reversed(snapshots):
                payload = snap.payload_for(oid)
                if payload is not None:
                    return payload
            return None

        runtime.recovery_source = lookup

    def _recover(self, cause: Exception) -> None:
        """Rebuild a fresh runtime from the latest snapshot and re-arm it."""
        degrade = isinstance(cause, StorageFull) or self._degraded
        while True:
            self.restarts += 1
            if self.restarts > self.max_restarts:
                raise RecoveryFailed(
                    f"gave up after {self.max_restarts} restarts"
                ) from cause
            kind = type(cause).__name__
            self.events.append(
                f"restart #{self.restarts}: {kind}"
                + (" -> degraded mode" if degrade and not self._degraded else "")
            )
            try:
                self._rebuild(degraded=degrade)
                return
            except _RECOVERABLE as exc:
                # The rebuild itself hit the (still-faulty) medium; burn
                # another restart and try again until the budget runs out.
                cause = exc
                degrade = degrade or isinstance(exc, StorageFull)

    def _rebuild(self, degraded: bool) -> None:
        snap = self.checkpointer.latest
        if snap is None:
            raise RecoveryFailed("no snapshot to restore from")
        config = self._base_config
        if degraded:
            config = dataclasses.replace(config, degraded=True)
            if not self._degraded:
                self.degraded_restarts += 1
            self._degraded = True
        runtime = self.factory(config)
        if runtime.pointers:
            raise MRTSError("recovery factory must return a fresh runtime")
        pointers = restore(snap, runtime, class_map=self.class_map)
        # Restore's own spills wrote snapshot-payload bytes, which is
        # exactly what the corrupt-load fallback would serve.
        runtime.stored_since_snapshot.clear()
        self.pointers.update(pointers)
        self.runtime = runtime
        self._install_recovery_source(runtime)
        # Re-bind the checkpointer to the new incarnation, carrying the
        # snapshot history; the interval counts fresh work from here.
        newcp = CheckpointPolicy(runtime, self.checkpointer.interval)
        newcp.snapshots = self.checkpointer.snapshots
        newcp._last_total = runtime.termination.total_items
        self.checkpointer = newcp
        # Replay external posts made since the restored snapshot.
        for oid, handler_name, args, kwargs in self._replay_log:
            runtime.post(self.pointers[oid], handler_name, *args, **kwargs)
