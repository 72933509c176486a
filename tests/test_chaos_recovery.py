"""The chaos matrix plus unit tests for the automatic-recovery machinery.

Three layers of assurance:

* every cell of :data:`CHAOS_MATRIX` must pass (same seeded verdict the
  ``mrts-bench chaos`` subcommand enforces), and a cell re-run must be
  bit-for-bit identical — chaos here is deterministic chaos;
* :class:`RecoveryPolicy` unit tests pin the supervisor's contract:
  baseline restore + replay-log exactly-once delivery, the restart
  budget, degraded mode after ``StorageFull``, the freshness check on
  recovery factories, and the corrupt-load fallback that repairs a
  damaged storage copy from the latest snapshot without a restart;
* regression tests for the write-behind/recovery interaction: a fault
  arriving while a detached write-behind charge is draining must not
  lose the object's bytes, and recovery afterwards must not deadlock
  the re-load completion barrier.
"""

import pytest

from repro.core import MRTS, MRTSConfig, MobileObject, handler
from repro.core.recovery import RecoveryFailed, RecoveryPolicy
from repro.core.storage import (
    FLAG_COMPRESSED,
    FLAG_DELTA,
    MemoryBackend,
    decode_frame,
    decode_frame_ex,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing import FaultPlan, FaultyBackend
from repro.testing.chaos import CHAOS_MATRIX, run_chaos_case
from repro.testing.harness import FixedCostModel
from repro.util.errors import MRTSError
from repro.testing.faults import StorageFault

from dataclasses import replace


# ================================================================= matrix
@pytest.mark.parametrize("spec", CHAOS_MATRIX, ids=lambda s: s.name)
def test_chaos_matrix_cell_passes(spec):
    report = run_chaos_case(spec)
    assert report.ok, report.render()


def test_chaos_cell_is_deterministic():
    """Same spec, same verdict: restarts, retries, events, everything."""
    spec = next(s for s in CHAOS_MATRIX if s.name == "fail-stop-store")
    first = run_chaos_case(spec)
    second = run_chaos_case(spec)
    assert first.ok and second.ok, (first.render(), second.render())
    assert (first.restarts, first.retries, first.corrupt_loads,
            first.degraded, first.events) == \
           (second.restarts, second.retries, second.corrupt_loads,
            second.degraded, second.events)


def test_delta_compress_storm_writes_compressed_delta_frames(monkeypatch):
    """The cell is named for compressed append-log frames; a policy change
    that stored its deltas raw would leave it passing on nothing.  Only
    the chaos run's medium is a ``FaultyBackend``, so the frames counted
    are the ones the supervised run under faults wrote."""
    flags_written = []
    append = FaultyBackend.append

    def recording(self, oid, data):
        append(self, oid, data)
        flags_written.append(decode_frame_ex(data)[1])

    monkeypatch.setattr(FaultyBackend, "append", recording)
    spec = next(s for s in CHAOS_MATRIX if s.name == "delta-compress-storm")
    assert run_chaos_case(spec).ok
    both = FLAG_COMPRESSED | FLAG_DELTA
    assert any(flags & both == both for flags in flags_written)


@pytest.mark.stress
@pytest.mark.parametrize("name", ["flaky-nfs", "fail-stop-store", "disk-full"])
def test_chaos_matrix_scaled_up(name):
    """Heavier cells: more actors, deeper cascades, tighter memory."""
    base = next(s for s in CHAOS_MATRIX if s.name == name)
    storm = replace(base.storm, n_actors=12, initial_pulses=5, hops=5,
                    seed=base.storm.seed + 100)
    spec = replace(base, storm=storm, memory_bytes=32 * 1024)
    report = run_chaos_case(spec)
    assert report.ok, report.render()


# ==================================================== supervisor unit tests
class Cell(MobileObject):
    """Commutative state only, so final state is delivery-order free."""

    def __init__(self, ptr, payload_bytes=4096):
        super().__init__(ptr)
        self.payload = bytes(payload_bytes)
        self.ticks = 0

    @handler
    def tick(self, ctx):
        self.ticks += 1

    @handler
    def bloat(self, ctx, nbytes):
        self.payload += bytes(nbytes)
        self.ticks += 1


def make_supervisor(
    plan=None,
    heal=True,
    n_cells=6,
    payload=4096,
    memory=24 * 1024,
    interval=1000,
    max_restarts=4,
):
    """A supervised 2-node runtime full of Cells.

    ``heal=True`` gives post-restart incarnations a clean medium (the
    failed disk was replaced); ``heal=False`` keeps the same plan, so
    every incarnation re-faults.  Returns ``(supervisor, backends)`` with
    ``backends[(incarnation, rank)]`` the innermost MemoryBackend — the
    raw framed bytes tests corrupt or inspect.
    """
    incarnation = [0]
    backends = {}

    def factory(config=None):
        i = incarnation[0]
        incarnation[0] += 1
        active = plan if (i == 0 or not heal) else None

        def make_backend(rank):
            mem = MemoryBackend()
            backends[(i, rank)] = mem
            if active is None:
                return mem
            return FaultyBackend(
                mem, replace(active, seed=active.seed + rank + 100 * i)
            )

        return MRTS(
            ClusterSpec(n_nodes=2, node=NodeSpec(cores=1, memory_bytes=memory)),
            config=config or MRTSConfig(),
            storage_factory=make_backend,
            cost_model=FixedCostModel(1e-4),
        )

    def build(rt):
        return [
            rt.create_object(Cell, payload, node=k % 2) for k in range(n_cells)
        ]

    sup = RecoveryPolicy(
        factory, build=build, interval=interval, max_restarts=max_restarts,
        class_map={"Cell": Cell},
    )
    return sup, backends


def drive(sup, rounds=3, grow=4096):
    """Bloat every cell ``rounds`` times (forcing spill traffic), run each."""
    ptrs = sorted(sup.pointers.values(), key=lambda p: p.oid)
    for _ in range(rounds):
        for p in ptrs:
            sup.post(p, "bloat", grow)
        sup.run()
    return ptrs


def final_state(sup):
    return {
        oid: (sup.get_object(p).ticks, len(sup.get_object(p).payload))
        for oid, p in sorted(sup.pointers.items())
    }


def test_recovers_from_fail_stop_and_replays_external_posts():
    """interval=1000 -> only the baseline snapshot exists when the fault
    hits, so recovery = baseline restore + full replay log.  Exactly-once
    delivery shows up as tick counts equal to the fault-free run's."""
    reference, _ = make_supervisor()
    drive(reference)
    want = final_state(reference)

    sup, _ = make_supervisor(plan=FaultPlan(fail_store_at=3, fail_stop=True,
                                            seed=11))
    drive(sup)
    assert sup.restarts >= 1
    assert any(ev.startswith("restart #1") for ev in sup.events)
    assert final_state(sup) == want


def test_checkpoint_then_fault_does_not_double_deliver():
    """interval=1 -> a snapshot lands between phases; the replay log must
    be cleared at the cut, or replays would double-count ticks."""
    reference, _ = make_supervisor(interval=1)
    drive(reference, rounds=4)
    want = final_state(reference)

    sup, _ = make_supervisor(
        plan=FaultPlan(fail_store_at=6, fail_stop=True, seed=12), interval=1,
    )
    drive(sup, rounds=4)
    assert sup.restarts >= 1
    assert len(sup.checkpointer.snapshots) > 1  # recovered past the baseline
    assert final_state(sup) == want


def test_restart_budget_exhaustion_raises_recovery_failed():
    """heal=False: every incarnation faults on its first store, burning
    the budget until RecoveryFailed (with the last cause chained)."""
    sup, _ = make_supervisor(
        plan=FaultPlan(fail_store_at=1, fail_stop=True, seed=13),
        heal=False, max_restarts=3,
    )
    with pytest.raises(RecoveryFailed, match="gave up after 3 restarts"):
        drive(sup)
    assert sup.restarts == 4  # 3 allowed + the one that overflowed


def test_disk_full_triggers_degraded_rebuild():
    reference, _ = make_supervisor()
    drive(reference)
    want = final_state(reference)

    sup, _ = make_supervisor(plan=FaultPlan(disk_full_at=2, seed=14))
    drive(sup)
    assert sup.restarts >= 1
    assert sup.degraded_restarts == 1
    assert sup.runtime.config.degraded
    assert all(nrt.ooc.degraded for nrt in sup.runtime.nodes)
    assert any("degraded mode" in ev for ev in sup.events)
    assert final_state(sup) == want


def test_degraded_mode_stops_proactive_spills():
    sup, _ = make_supervisor(plan=FaultPlan(disk_full_at=2, seed=14))
    drive(sup)
    for nrt in sup.runtime.nodes:
        assert nrt.ooc.advise_swap() == []


def test_recovery_factory_must_return_fresh_runtime():
    incarnation = [0]

    def factory(config=None):
        i = incarnation[0]
        incarnation[0] += 1
        plan = FaultPlan(fail_store_at=3, fail_stop=True, seed=15)

        def make_backend(rank):
            mem = MemoryBackend()
            if i == 0:
                return FaultyBackend(mem, replace(plan, seed=plan.seed + rank))
            return mem

        rt = MRTS(
            ClusterSpec(n_nodes=2, node=NodeSpec(cores=1,
                                                 memory_bytes=24 * 1024)),
            storage_factory=make_backend,
            cost_model=FixedCostModel(1e-4),
        )
        if i > 0:
            rt.create_object(Cell, 64)  # contraband: not a fresh runtime
        return rt

    def build(rt):
        return [rt.create_object(Cell, 4096, node=k % 2) for k in range(6)]

    sup = RecoveryPolicy(factory, build=build, class_map={"Cell": Cell})
    with pytest.raises(MRTSError, match="fresh"):
        drive(sup)


def test_corrupt_storage_copy_repaired_from_snapshot_without_restart():
    """Bit rot on the medium: the next load detects the bad frame, pulls
    the payload from the newest snapshot containing the object, re-stores
    it (repairing the medium) and carries on — no restart."""
    sup, backends = make_supervisor(interval=1)
    drive(sup)  # spill traffic + a post-bloat checkpoint per round
    assert len(sup.checkpointer.snapshots) > 1

    # Find a spilled object and vandalize its frame on the inner medium.
    victim = None
    for nrt in sup.runtime.nodes:
        for oid, rec in nrt.locals.items():
            if rec.obj is None:
                victim = (nrt.rank, oid)
    assert victim is not None, "drive() produced no spilled object"
    rank, oid = victim
    mem = backends[(0, rank)]
    frame = mem._data[oid]
    mem._data[oid] = frame[:-1] + bytes([frame[-1] ^ 0xFF])

    before = sup.get_object(sup.pointers[oid]).ticks \
        if sup.runtime.nodes[rank].locals[oid].obj is not None else None
    sup.post(sup.pointers[oid], "tick")
    sup.run()

    assert sup.restarts == 0
    assert sup.runtime.stats.corrupt_loads == 1
    obj = sup.get_object(sup.pointers[oid])
    assert obj.ticks == 4  # 3 bloats + 1 tick, nothing lost or doubled
    # The medium was repaired in place: the frame decodes again.
    if oid in mem._data:
        decode_frame(mem._data[oid])
    assert before is None  # get_object above faulted-in the spilled copy


def test_corrupt_copy_stored_since_snapshot_escalates_to_restart():
    """The baseline snapshot *does* hold the object, but the object was
    re-stored (post-bloat) since — the snapshot payload is stale.  An
    in-place repair would silently rewind one object to an older cut than
    the rest of the world, so the fallback must refuse: the CorruptObject
    escalates to the supervisor, which restores a consistent cut and
    replays its way back to the reference state."""
    sup, backends = make_supervisor()  # interval=1000: baseline only
    ptrs = drive(sup)

    victim = None
    for nrt in sup.runtime.nodes:
        for oid, rec in nrt.locals.items():
            if rec.obj is None:
                victim = (nrt.rank, oid)
    assert victim is not None
    rank, oid = victim
    assert oid in sup.runtime.stored_since_snapshot
    mem = backends[(0, rank)]
    frame = mem._data[oid]
    mem._data[oid] = frame[:-1] + bytes([frame[-1] ^ 0xFF])

    reference, _ = make_supervisor()
    ref_ptrs = drive(reference)
    for p in ref_ptrs:
        reference.post(p, "tick")
    reference.run()
    want = final_state(reference)

    for p in ptrs:
        sup.post(p, "tick")
    sup.run()
    assert sup.restarts >= 1  # escalated, not silently rewound
    assert final_state(sup) == want


# ========================================== write-behind + recovery pinning
def test_fault_mid_drain_does_not_lose_stored_bytes():
    """A fail-stop load fault kills the run while a write-behind charge is
    still draining.  The store itself ran synchronously in Python time, so
    the victim's frame must be intact on the medium — write-behind defers
    virtual disk time, never durability.

    Construction: A (small) is spilled at B's creation; ticking A forces a
    load that first evicts B (big dirty spill -> long detached drain),
    then reads A (short) and hits the fail-stop load fault while B's
    drain is still in flight.
    """
    backends = {}
    plan = FaultPlan(fail_load_at=1, fail_stop=True, seed=21)

    def make_backend(rank):
        mem = MemoryBackend()
        backends[rank] = mem
        return FaultyBackend(mem, replace(plan, seed=plan.seed + rank))

    rt = MRTS(
        ClusterSpec(n_nodes=1, node=NodeSpec(cores=1, memory_bytes=12 * 1024)),
        storage_factory=make_backend,
        cost_model=FixedCostModel(1e-4),
    )
    a = rt.create_object(Cell, 6 * 1024, node=0)
    b = rt.create_object(Cell, 10 * 1024, node=0)  # evicts (spills) A
    rt.post(b, "tick")  # dirties B so its eviction needs a store
    rt.run()
    rt.post(a, "tick")
    with pytest.raises(StorageFault):
        rt.run()

    # The fault really did land mid-drain: B's abandoned completion event
    # is still registered on the dead engine.
    assert any(nrt.write_behind.pending for nrt in rt.nodes)
    # Every frame on the raw medium decodes: nothing torn, nothing lost.
    stored = backends[0]._data
    assert stored, "expected spilled objects on the medium"
    for oid, frame in stored.items():
        decode_frame(frame)


def test_recovery_after_mid_drain_fault_completes_and_reloads():
    """Supervised version: the restart must resume from the cut and the
    rebuilt runtime's completion barrier must not inherit the dead
    incarnation's pending drains (a stale barrier would deadlock the
    first re-load of the spilled object)."""
    reference, _ = make_supervisor(memory=16 * 1024, n_cells=4)
    drive(reference, rounds=2)
    for p in sorted(reference.pointers.values(), key=lambda p: p.oid):
        reference.post(p, "tick")
    reference.run()
    want = final_state(reference)

    sup, _ = make_supervisor(
        plan=FaultPlan(fail_load_at=1, fail_stop=True, seed=21),
        memory=16 * 1024, n_cells=4,
    )
    ptrs = drive(sup, rounds=2)
    assert sup.restarts >= 1
    # The rebuilt incarnation must not have inherited the dead engine's
    # completion events (they would never fire on the new engine).
    for nrt in sup.runtime.nodes:
        for done in nrt.write_behind.pending.values():
            assert done.engine is sup.runtime.engine
    # Re-load every object (ticking a spilled object faults it back in):
    # completes without deadlock and loses nothing.
    for p in ptrs:
        sup.post(p, "tick")
    sup.run()
    assert final_state(sup) == want
