"""The out-of-core layer: object residency and swap decisions.

Paper §II.D/E responsibilities implemented here:

* track which mobile objects are in core vs on disk,
* decide **when and which** objects to unload (swap scheme + priorities +
  locks + queued-message counts),
* enforce the **hard swapping threshold** (free memory must stay above
  ``hard_factor x largest-stored-object``, checked on every allocation;
  unused objects are forcefully unloaded otherwise),
* advise swapping when free memory drops below the **soft threshold**
  (a fraction of total memory),
* maintain a small prefetch set driven by control-layer hints,
* track per-object **dirty** state so the driver can skip the write-back
  for objects whose storage copy is already current (clean spills).

This class is *pure policy*: it mutates only its own bookkeeping and
returns lists of actions (object ids to evict / load) that the driver
executes, charging real or virtual disk time.  That separation is what
lets the same logic run under the threaded and the simulated drivers.

Victim ranking is two-tiered and fully incremental — no O(n log n)
re-sort of the residency table per plan:

* objects with a non-zero *effective priority* (user hint + queued-message
  pressure) live in a small sorted list (:class:`_PressureTier`) of
  ``(effective, scheme score, oid)`` keys, re-placed by bisection on
  priority/queue/residency changes (a node's tier is tens of entries);
* everything else (the common case: effective priority exactly 0) is
  ranked by the swap scheme's own incremental index
  (:meth:`~repro.core.swapping.SwapScheme.iter_in_eviction_order`).

The two sorted streams are merged on the identical composite key the old
full sort used, so the victim order is unchanged.  Plans cost what they
return: two indexes end a walk once nothing further can be taken, each
exact by an invariant (``docs/ooc_fast_path.md`` §4):

* ``_spillable`` — resident, unlocked, no queued message.  Every victim
  ``advise_swap`` and the forced-unload phase of ``_plan_free`` can take
  is a member, so an empty set answers without ranking anything and a
  walk ends at the last member; victims are still taken in stream order.
* ``_smallest_stored`` — a floor under every non-resident object's size
  (a record leaves core only through ``confirm_evict`` and cannot change
  size while out): below it no prefetch hint can fit.

``tests/test_eviction_index_property.py`` pins all of this against the
log-replay reference models, the lazy heap the tier replaced and
brute-force plans.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Optional

from repro.core.config import MRTSConfig
from repro.core.swapping import SwapScheme, make_scheme
from repro.util.errors import OutOfMemory

__all__ = ["OOCLayer", "Residency"]

# Weight of one queued message relative to one unit of user priority when
# ranking objects for eviction (control layer "assigns swapping priorities
# depending on the number of messages").
_QUEUE_PRIORITY_WEIGHT = 1.0


@dataclass
class Residency:
    """Per-object residency record."""

    oid: int
    nbytes: int
    resident: bool = True
    # Counting lock: >0 means pinned in core.  Counts nest so the runtime's
    # per-handler pin composes with application-level locks.
    locked: int = 0
    priority: float = 0.0
    queued_messages: int = 0
    dirty: bool = True  # needs write-back before eviction counts as clean


class _PressureTier:
    """Sorted list of the few objects with non-zero effective priority.

    ``_keys`` holds one ``(effective, score, oid)`` per member, ascending;
    re-prioritizing re-places the key by bisection, so iteration is the list.
    """

    def __init__(self) -> None:
        self._keys: list[tuple[float, float, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}

    def __contains__(self, oid: int) -> bool:
        return oid in self._live

    def __len__(self) -> int:
        return len(self._live)

    def live_ids(self) -> list[int]:
        return list(self._live)

    def set(self, oid: int, effective: float, score: float) -> None:
        self.discard(oid)
        key = self._live[oid] = (effective, score, oid)
        insort(self._keys, key)

    def discard(self, oid: int) -> None:
        key = self._live.pop(oid, None)
        if key is not None:
            del self._keys[bisect_left(self._keys, key)]

    def iter_in_order(self) -> Iterator[tuple[float, float, int]]:
        """Yield ``(effective, score, oid)`` in ascending key order."""
        return iter(self._keys)


class OOCLayer:
    """Residency manager for one node."""

    def __init__(
        self,
        config: MRTSConfig,
        scheme: Optional[SwapScheme] = None,
        *,
        budget: int,
    ):
        self.config = config
        self.budget = budget
        if budget <= 0:
            raise ValueError("memory budget must be positive")
        self.scheme = scheme or make_scheme(config.swap_scheme)
        self.table: dict[int, Residency] = {}
        self.memory_used = 0
        self.high_water = 0
        self.evictions = 0
        self.forced_evictions = 0
        # Evictions whose storage copy was already current: the driver
        # skipped pack + store + the disk-store charge entirely.
        self.clean_evictions = 0
        self.overruns = 0
        self._largest_stored = 0
        # Floor under every non-resident object's size (prefetch early exit).
        self._smallest_stored: float = math.inf
        # Resident, unlocked, no queued message: all advise_swap can return.
        self._spillable: set[int] = set()
        # Thresholds are hot-path reads: the soft threshold is a constant
        # of the budget, the hard threshold changes only when a new largest
        # object is stored (tracked in confirm_evict).
        self._soft_threshold = int(config.soft_threshold_fraction * self.budget)
        self._hard_threshold = 0
        self._pressure = _PressureTier()
        self._pressure_clock = -1
        # Degraded mode (medium reported full): the hard factor collapses
        # to its 1.0 floor (minimum forced unloading) and advise_swap
        # stops proposing proactive spills — backpressure that keeps all
        # but strictly necessary stores off the full medium.
        self.degraded = config.degraded
        if self.degraded:
            self._hard_threshold = self._largest_stored

    # ------------------------------------------------------------- queries
    @property
    def memory_free(self) -> int:
        return self.budget - self.memory_used

    def is_resident(self, oid: int) -> bool:
        rec = self.table.get(oid)
        return rec is not None and rec.resident

    def hard_threshold(self) -> int:
        """Free-memory floor: hard_factor x largest object stored on disk."""
        return self._hard_threshold

    def soft_threshold(self) -> int:
        return self._soft_threshold

    def below_soft_threshold(self) -> bool:
        """True when the layer should be 'advised' to start swapping."""
        return self.memory_free < self._soft_threshold

    def is_dirty(self, oid: int) -> bool:
        return self.table[oid].dirty

    # ------------------------------------------------------------ lifecycle
    def admit(self, oid: int, nbytes: int) -> list[int]:
        """A new object of ``nbytes`` was created in core.

        Returns the object ids that must be evicted *first* to respect the
        memory budget and hard threshold.  The driver evicts them (spilling
        to storage) and then calls :meth:`confirm_admit`.
        """
        if oid in self.table:
            raise ValueError(f"object {oid} already tracked")
        evictions = self._plan_free(nbytes)
        self.table[oid] = Residency(oid, nbytes)
        self._spillable.add(oid)
        self.scheme.touch(oid)
        self.scheme.index_add(oid)
        return evictions

    def confirm_admit(self, oid: int) -> None:
        """Driver finished any evictions; account the admission."""
        rec = self.table[oid]
        self.memory_used += rec.nbytes
        self.high_water = max(self.high_water, self.memory_used)

    def forget(self, oid: int) -> None:
        """Object destroyed entirely (not spilled)."""
        rec = self.table.pop(oid, None)
        if rec is not None and rec.resident:
            self.memory_used -= rec.nbytes
        self.scheme.forget(oid)
        self._pressure.discard(oid)
        self._spillable.discard(oid)

    def resize(self, oid: int, nbytes: int) -> list[int]:
        """Object grew/shrank in place; returns evictions needed for growth."""
        rec = self.table[oid]
        if not rec.resident:
            raise ValueError(f"cannot resize non-resident object {oid}")
        delta = nbytes - rec.nbytes
        evictions: list[int] = []
        if delta > 0:
            evictions = self._plan_free(delta, protect={oid})
        rec.nbytes = nbytes
        rec.dirty = True
        self.memory_used += delta
        self.high_water = max(self.high_water, self.memory_used)
        return evictions

    def force_resize(self, oid: int, nbytes: int) -> None:
        """Account a growth that already physically happened.

        A handler may grow its (pinned) object past what eviction can make
        room for; the allocation exists regardless, so the budget is
        temporarily overrun and recorded in ``overruns`` — the runtime
        evicts everything evictable around it and recovers on the next
        spill.  (The paper's warning about locking too many objects is
        exactly this failure mode.)
        """
        rec = self.table[oid]
        delta = nbytes - rec.nbytes
        rec.nbytes = nbytes
        rec.dirty = True
        self.memory_used += delta
        self.high_water = max(self.high_water, self.memory_used)
        if self.memory_used > self.budget:
            self.overruns += 1

    # ------------------------------------------------------------- touching
    def touch(self, oid: int) -> None:
        """Record an access (message delivery, handler run)."""
        self.scheme.touch(oid)
        if oid in self._pressure:
            rec = self.table.get(oid)
            if rec is not None:
                self._pressure.set(
                    oid, self._effective(rec), self.scheme._score(oid)
                )

    def mark_dirty(self, oid: int) -> None:
        """The in-core object diverged from its storage copy."""
        rec = self.table.get(oid)
        if rec is not None:
            rec.dirty = True

    def set_priority(self, oid: int, priority: float) -> None:
        rec = self.table[oid]
        rec.priority = priority
        self._retier(rec)

    def set_queue_length(self, oid: int, n: int) -> None:
        rec = self.table[oid]
        rec.queued_messages = n
        self._retier(rec)

    def lock(self, oid: int) -> None:
        """Pin the object in core (paper: locked objects are never unloaded).

        Locks count and nest: every lock() needs a matching unlock().
        """
        self.table[oid].locked += 1
        self._spillable.discard(oid)

    def unlock(self, oid: int) -> None:
        rec = self.table[oid]
        if rec.locked <= 0:
            raise RuntimeError(f"unlock without lock on object {oid}")
        rec.locked -= 1
        self._reindex(rec)

    def is_locked(self, oid: int) -> bool:
        return self.table[oid].locked > 0

    # ----------------------------------------------------------- swap plans
    def _effective(self, rec: Residency) -> float:
        return rec.priority + _QUEUE_PRIORITY_WEIGHT * rec.queued_messages

    def _reindex(self, rec: Residency) -> None:
        """Keep ``_spillable`` = resident, unlocked, no queued message."""
        if rec.resident and not rec.locked and not rec.queued_messages:
            self._spillable.add(rec.oid)
        else:
            self._spillable.discard(rec.oid)

    def _retier(self, rec: Residency) -> None:
        """Place a record in the pressure tier iff resident with eff != 0."""
        self._reindex(rec)
        if not rec.resident:
            self._pressure.discard(rec.oid)
            return
        effective = self._effective(rec)
        if effective != 0.0:
            self._pressure.set(
                rec.oid, effective, self.scheme._score(rec.oid)
            )
        else:
            self._pressure.discard(rec.oid)

    def _refresh_pressure_scores(self) -> None:
        """Re-score pressure entries for clock-sensitive schemes (LU).

        LU's score is a function of the global clock, so cached scores in
        the pressure tier go stale whenever *any* object is touched.  Only
        needed when the clock actually advanced since the last refresh,
        and only for the (few) pressure-tier members.
        """
        if self._pressure_clock == self.scheme._clock:
            return
        self._pressure_clock = self.scheme._clock
        for oid in self._pressure.live_ids():
            rec = self.table.get(oid)
            if rec is None or not rec.resident:
                self._pressure.discard(oid)
            else:
                self._pressure.set(
                    oid, self._effective(rec), self.scheme._score(oid)
                )

    def iter_eviction_candidates(
        self, protect: Iterable[int] = ()
    ) -> Iterator[int]:
        """Evictable resident objects, best victim first (lazy).

        Merges the pressure tier and the scheme's zero-priority index on
        the composite ``(effective, score, oid)`` key.  Locked, protected
        and (transiently) non-resident entries are filtered at yield time,
        so plans that stop early never pay for ranking the rest.  The
        layer must not be mutated while a returned iterator is live.
        """
        protected = set(protect)
        if self.scheme.clock_sensitive:
            self._refresh_pressure_scores()

        def zero_tier() -> Iterator[tuple[float, float, int]]:
            for oid in self.scheme.iter_in_eviction_order():
                if oid in self._pressure:
                    continue  # ranked (and yielded) by the pressure tier
                yield (0.0, self.scheme._score(oid), oid)

        merged = heapq.merge(self._pressure.iter_in_order(), zero_tier())
        for _effective, _score, oid in merged:
            rec = self.table.get(oid)
            if (
                rec is None
                or not rec.resident
                or rec.locked
                or oid in protected
            ):
                continue
            yield oid

    def eviction_candidates(self, protect: Iterable[int] = ()) -> list[int]:
        """Evictable resident objects, best victim first."""
        return list(self.iter_eviction_candidates(protect))

    def _plan_free(self, need: int, protect: Iterable[int] = ()) -> list[int]:
        """Pick victims so ``need`` bytes fit, preferring threshold headroom.

        The hard threshold drives *forced unloading* (paper: "unused objects
        are forcefully unloaded to free memory") but is best-effort: when
        even a full sweep cannot restore the headroom, the allocation still
        proceeds as long as ``need`` itself fits.  :class:`OutOfMemory` is
        raised only when the bytes genuinely don't fit — e.g. too many
        locked objects, the failure mode the paper warns about.

        One lazy pass over the candidate stream: phase 1 takes victims (in
        order, no skipping) until ``need`` fits, phase 2 continues the same
        stream taking only *unused* objects until the headroom target —
        equivalent to the old restart-and-skip double scan over a full
        sort, without ranking candidates the plan never reaches; unused
        objects are all in ``_spillable``, so phase 2 ends at its last one.
        """
        target_free = need + self._hard_threshold
        if self.memory_free >= target_free:
            return []
        victims: list[int] = []
        freed = 0
        protected = set(protect)
        stream = self.iter_eviction_candidates(protected)
        # First make the allocation itself fit — any evictable object may go.
        for oid in stream:
            if self.memory_free + freed >= need:
                # Phase 1 did not consume this candidate: phase 2 sees it.
                stream = itertools.chain((oid,), stream)
                break
            victims.append(oid)
            freed += self.table[oid].nbytes
        if self.memory_free + freed < need:
            raise OutOfMemory(
                f"need {need} B but only {self.memory_free + freed} B "
                f"reachable after evicting everything evictable; "
                f"{sum(1 for r in self.table.values() if r.locked)} locked objects"
            )
        # Then push free memory toward the hard-threshold headroom, but only
        # by forcefully unloading *unused* objects (paper: "unused objects
        # are forcefully unloaded") — no pending messages, no priority hint.
        spillable = self._spillable
        left = len(spillable.difference(protected, victims))
        for oid in stream:
            if not left or self.memory_free + freed >= target_free:
                break
            if oid not in spillable:
                continue
            left -= 1
            rec = self.table[oid]
            if rec.priority > 0:
                continue
            victims.append(oid)
            freed += rec.nbytes
            self.forced_evictions += 1
        return victims

    def plan_load(self, oid: int) -> list[int]:
        """Plan to bring ``oid`` in core; returns eviction victims first.

        The driver performs the evictions (store to disk), then the load,
        then calls :meth:`confirm_load`.
        """
        rec = self.table[oid]
        if rec.resident:
            return []
        return self._plan_free(rec.nbytes, protect={oid})

    def confirm_evict(self, oid: int) -> int:
        """Account an eviction; returns bytes freed.

        ``clean_evictions`` counts the spills whose storage copy was
        already current — the driver consulted :attr:`Residency.dirty`
        and skipped the write-back.
        """
        rec = self.table[oid]
        if not rec.resident:
            raise ValueError(f"object {oid} already non-resident")
        if rec.locked:
            raise ValueError(f"evicting locked object {oid}")
        rec.resident = False
        if not rec.dirty:
            self.clean_evictions += 1
        rec.dirty = False
        self.memory_used -= rec.nbytes
        self.evictions += 1
        if rec.nbytes > self._largest_stored:
            self._largest_stored = rec.nbytes
            factor = 1.0 if self.degraded else self.config.hard_threshold_factor
            self._hard_threshold = int(factor * rec.nbytes)
        if rec.nbytes < self._smallest_stored:
            self._smallest_stored = rec.nbytes
        self.scheme.index_discard(oid)
        self._pressure.discard(oid)
        self._spillable.discard(oid)
        return rec.nbytes

    def confirm_load(self, oid: int, nbytes: Optional[int] = None) -> None:
        rec = self.table[oid]
        if rec.resident:
            raise ValueError(f"object {oid} already resident")
        if nbytes is not None:
            rec.nbytes = nbytes
        rec.resident = True
        rec.dirty = False
        self.memory_used += rec.nbytes
        self.high_water = max(self.high_water, self.memory_used)
        self.scheme.touch(oid)
        self.scheme.index_add(oid)
        self._retier(rec)

    def advise_swap(self, protect: Iterable[int] = ()) -> list[int]:
        """Soft-threshold advice: victims to spill proactively.

        Called by the control layer when it sees little in-core work; only
        returns objects with no queued messages (they will be needed soon
        otherwise).  In degraded mode proactive spills are suppressed —
        pure extra traffic against a medium that reported full — but
        budget *overruns* are still paid down: a concurrent-load race can
        consume freed memory before a load confirms, and degraded or not,
        the node must settle back under its budget.
        """
        if self.degraded:
            want = self.memory_used - self.budget
        elif self.below_soft_threshold():
            want = self._soft_threshold - self.memory_free
        else:
            return []
        if want <= 0:
            return []
        # The stream yields resident, unlocked, unprotected objects, so the
        # ones without queued messages are exactly _spillable - protect.
        protected = set(protect)
        spillable = self._spillable
        left = len(spillable) - len(spillable & protected)
        victims: list[int] = []
        if not left:
            return victims
        freed = 0
        for oid in self.iter_eviction_candidates(protected):
            if oid not in spillable:
                continue
            victims.append(oid)
            freed += self.table[oid].nbytes
            left -= 1
            if freed >= want or not left:
                break
        return victims

    def prefetch_candidates(
        self,
        upcoming: Iterable[int],
        skip: Container[int] = (),
        limit: Optional[int] = None,
    ) -> list[int]:
        """Of the hinted upcoming objects, which to prefetch now.

        Limited by ``limit`` (default ``config.prefetch_depth``) and
        available memory (prefetching must not trigger evictions — it is
        purely opportunistic).  ``skip`` names objects that must not be
        picked because their bytes are already in flight: spills still
        draining through the write-behind pipeline (loading before the
        spill commits would double-move the object) and loads already
        issued by another prefetch or demand path.
        """
        picks: list[int] = []
        seen: set[int] = set()
        if limit is None:
            limit = self.config.prefetch_depth
        budget = self.memory_free - self._hard_threshold
        # Nothing on disk is smaller than the floor: below it no hint fits.
        floor = self._smallest_stored
        if limit <= 0 or budget < floor:
            return picks
        for oid in itertools.filterfalse(skip.__contains__, upcoming):
            if oid in seen:
                continue
            seen.add(oid)
            rec = self.table.get(oid)
            if rec is None or rec.resident:
                continue
            if rec.nbytes <= budget:
                picks.append(oid)
                budget -= rec.nbytes
                if len(picks) >= limit or budget < floor:
                    break
        return picks
