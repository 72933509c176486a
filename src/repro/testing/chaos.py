"""The chaos matrix: seeded storm workloads under supervised recovery.

Each :class:`ChaosSpec` names a failure regime — intermittent faults a
flaky medium absorbs through retries, fail-stop faults that kill the run
and force an automatic restore, a disk that reports full and pushes the
runtime into degraded mode — and :func:`run_chaos_case` executes the same
seeded storm twice: once fault-free (the reference) and once under the
spec's :class:`~repro.testing.faults.FaultPlan` with a
:class:`~repro.core.recovery.RecoveryPolicy` supervising.

The verdict leans on the StormActor property PR 1 established: cascades
are delivery-order independent (the forwarding PRNG is keyed on
cascade-tree tokens, never arrival order), so the final application state
is a pure function of the spec — any retry, rollback or replay the
recovery machinery performs must land on *exactly* the reference state,
and the cross-layer invariants must hold at every phase boundary.

Everything is seeded: a failing case replays bit-for-bit.  Used by
``tests/test_chaos_recovery.py`` and the ``mrts-bench chaos`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import MRTSConfig
from repro.core.recovery import RecoveryPolicy
from repro.core.packfile import PackFileBackend
from repro.core.runtime import MRTS
from repro.core.storage import MemoryBackend
from repro.obs.events import EventBus
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.faults import FaultPlan, FaultyBackend
from repro.testing.harness import FixedCostModel
from repro.testing.invariants import check_runtime
from repro.testing.workloads import (
    DeltaStormActor, StormActor, WorkloadSpec, run_storm, storm_actors,
    storm_phases, storm_state,
)

__all__ = ["ChaosSpec", "ChaosReport", "CHAOS_MATRIX", "run_chaos_case",
           "run_chaos_matrix", "DistChaosSpec", "DIST_CHAOS_MATRIX",
           "run_dist_chaos_case", "run_dist_chaos_matrix",
           "ServeChaosSpec", "SERVE_CHAOS_MATRIX",
           "run_serve_chaos_case", "run_serve_chaos_matrix",
           "SpecChaosSpec", "SPEC_CHAOS_MATRIX",
           "run_spec_chaos_case", "run_spec_chaos_matrix"]

# Sentinel: the recovered incarnations keep the same fault plan as the
# first (the medium stays flaky); ``None`` means the rebuilt incarnation
# gets a healthy medium (the failed disk was replaced).
SAME_PLAN = "same"


@dataclass(frozen=True)
class ChaosSpec:
    """One cell of the chaos matrix."""

    name: str
    plan: FaultPlan
    # Fault plan for post-restart incarnations: SAME_PLAN or None.
    recovery_plan: Optional[object] = SAME_PLAN
    min_restarts: int = 0          # assert at least this many restarts
    max_restarts: int = 8          # supervisor budget
    expect_retries: bool = False   # assert the retry layer absorbed faults
    expect_degraded: bool = False  # assert degraded mode was entered
    # Workload shape (kept small: the matrix runs in CI).
    storm: WorkloadSpec = WorkloadSpec(
        n_actors=8, payload_bytes=2048, initial_pulses=3, hops=4,
        fanout=2, grow_every=2, grow_bytes=1024,
    )
    n_nodes: int = 2
    memory_bytes: int = 24 * 1024
    interval: int = 40             # checkpoint interval (retired items)
    # Actor class: StormActor spills whole pickles; DeltaStormActor routes
    # spills through the delta/compression data plane.
    actor: type = StormActor
    # Raw store: "memory" or "packfile" (locality-ordered pack segments).
    backend: str = "memory"
    # Packfile chaos hook: kill the N-th compaction attempt mid-rewrite
    # (chaos run only; the reference always compacts cleanly).
    fail_compaction_at: Optional[int] = None
    expect_compaction_abort: bool = False


@dataclass
class ChaosReport:
    """Outcome of one chaos case."""

    name: str
    state_matches: bool
    violations: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    restarts: int = 0
    degraded: bool = False
    retries: int = 0
    corrupt_loads: int = 0
    compaction_aborts: int = 0
    events: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.problems)})"
        line = (
            f"{self.name:<24} {status:<10} restarts={self.restarts} "
            f"retries={self.retries} corrupt={self.corrupt_loads}"
            f"{' degraded' if self.degraded else ''}"
        )
        if self.compaction_aborts:
            line += f" compaction_aborts={self.compaction_aborts}"
        for event in self.events:
            line += f"\n    . {event}"
        for problem in self.problems:
            line += f"\n    - {problem}"
        return line


# The matrix.  Ordinals/rates are tuned so faults actually fire inside the
# supervised run (creation + introductions fit in core; the pulse phases
# grow payloads and force spills), and every case is deterministic per seed.
CHAOS_MATRIX: list[ChaosSpec] = [
    ChaosSpec(
        name="intermittent-store",
        plan=FaultPlan(store_fail_rate=0.08, seed=1),
        expect_retries=True,
    ),
    ChaosSpec(
        name="intermittent-load",
        plan=FaultPlan(load_fail_rate=0.08, seed=2),
        expect_retries=True,
    ),
    ChaosSpec(
        name="flaky-nfs",
        plan=FaultPlan(store_fail_rate=0.05, load_fail_rate=0.05,
                       torn_write_fraction=0.5, seed=3),
        expect_retries=True,
    ),
    ChaosSpec(
        name="fail-stop-store",
        plan=FaultPlan(fail_store_at=4, fail_stop=True, seed=4),
        recovery_plan=None,
        min_restarts=1,
    ),
    ChaosSpec(
        name="fail-stop-load",
        plan=FaultPlan(fail_load_at=3, fail_stop=True, seed=5),
        recovery_plan=None,
        min_restarts=1,
    ),
    ChaosSpec(
        name="torn-fail-stop",
        plan=FaultPlan(fail_store_at=2, torn_write_fraction=0.5,
                       fail_stop=True, seed=6),
        recovery_plan=None,
        min_restarts=1,
    ),
    ChaosSpec(
        name="disk-full",
        plan=FaultPlan(disk_full_at=6, seed=7),
        recovery_plan=None,
        min_restarts=1,
        expect_degraded=True,
    ),
    # The delta data plane under fire: payloads spill as compressed
    # append-log frames (bytes-append codec + default compression knobs),
    # and the flaky medium forces retried appends and re-baselines.  Torn
    # writes are excluded by design: FaultyBackend never tears appends
    # (see its docstring), and torn full-spill coverage lives in flaky-nfs.
    ChaosSpec(
        name="delta-compress-storm",
        plan=FaultPlan(store_fail_rate=0.06, load_fail_rate=0.06, seed=8),
        expect_retries=True,
        actor=DeltaStormActor,
    ),
    # Kill the pack-file compactor mid-rewrite (PR 7): growing payloads
    # re-spill over tiny segments, dead bytes pile up fast, and the first
    # compaction attempt dies after half the live set is rewritten.  The
    # swap is atomic, so the old layout must survive byte-for-byte and
    # the retried attempt must reconverge on the reference state.
    ChaosSpec(
        name="packfile-compact-kill",
        plan=FaultPlan(seed=9),  # no medium faults: the kill is the chaos
        backend="packfile",
        fail_compaction_at=1,
        expect_compaction_abort=True,
    ),
]


def _make_supervisor(
    spec: ChaosSpec, plan: Optional[FaultPlan],
    bus: Optional[EventBus] = None,
) -> RecoveryPolicy:
    """A supervised storm runtime; ``plan=None`` builds the reference.

    ``bus`` (if given) is shared by every incarnation the supervisor
    builds, so one subscription observes the whole supervised lifetime —
    faults, the crash, and the rebuilt world's replay.
    """
    incarnation = [0]

    def factory(config=None) -> MRTS:
        i = incarnation[0]
        incarnation[0] += 1
        if i == 0:
            active = plan
        elif spec.recovery_plan is SAME_PLAN or spec.recovery_plan == SAME_PLAN:
            active = plan
        else:
            active = spec.recovery_plan

        def make_backend(rank: int):
            if spec.backend == "packfile":
                # Tiny segments + a low dead-byte threshold so the storm's
                # re-spills actually trigger compaction; the injected kill
                # only arms on the chaos run (``active`` set).
                inner = PackFileBackend(
                    segment_bytes=4 * 1024,
                    compact_ratio=0.25,
                    fail_compaction_at=(
                        spec.fail_compaction_at if active is not None else None
                    ),
                )
            else:
                inner = MemoryBackend()
            if active is None:
                return inner
            # Reseed per node and per incarnation: nodes must not fail in
            # lockstep, and a restarted run must not replay the exact
            # fault sequence that killed its predecessor.
            return FaultyBackend(
                inner, replace(active, seed=active.seed + rank + 1000 * i)
            )

        return MRTS(
            ClusterSpec(
                n_nodes=spec.n_nodes,
                node=NodeSpec(cores=1, memory_bytes=spec.memory_bytes),
            ),
            config=config or MRTSConfig(),
            storage_factory=make_backend,
            cost_model=FixedCostModel(1e-4),
            bus=bus,
        )

    return RecoveryPolicy(
        factory, build=lambda rt: storm_actors(rt, spec.storm, spec.actor),
        interval=spec.interval,
        max_restarts=spec.max_restarts,
    )


def _drive(
    spec: ChaosSpec, supervisor: RecoveryPolicy
) -> tuple[list[str], dict[int, tuple]]:
    """Run the storm's phases; returns (invariant violations, final state).

    Every phase boundary (= possible checkpoint cut) is invariant-checked,
    so a recovery that restored a subtly inconsistent world is caught at
    the next boundary, not just at the end.
    """
    actors = list(supervisor.pointers.values())
    violations = [
        f"{label}: {v}"
        for label in storm_phases(supervisor, actors, spec.storm)
        for v in check_runtime(supervisor.runtime)
    ]
    return violations, storm_state(supervisor, actors)


def run_chaos_case(
    spec: ChaosSpec, bus: Optional[EventBus] = None
) -> ChaosReport:
    """Execute one matrix cell: reference run, chaos run, verdict.

    ``bus`` (if given) observes the *chaos* run across all its
    incarnations; the fault-free reference run is never published to it.
    """
    ref_violations, want = _drive(spec, _make_supervisor(spec, plan=None))
    chaos = _make_supervisor(spec, plan=spec.plan, bus=bus)
    violations, got = _drive(spec, chaos)

    stats = chaos.runtime.stats
    aborts = sum(
        n.packfile.compaction_aborts
        for n in chaos.runtime.nodes if n.packfile is not None
    )
    report = ChaosReport(
        name=spec.name,
        state_matches=(got == want),
        violations=violations,
        restarts=chaos.restarts,
        degraded=chaos._degraded,
        retries=stats.storage_retries,
        corrupt_loads=stats.corrupt_loads,
        compaction_aborts=aborts,
        events=list(chaos.events),
    )
    if ref_violations:
        report.problems.append(
            f"reference run violated invariants: {ref_violations}"
        )
    if not report.state_matches:
        diff = {
            oid: (got.get(oid), want.get(oid))
            for oid in set(got) | set(want)
            if got.get(oid) != want.get(oid)
        }
        report.problems.append(f"final state diverged: {diff}")
    if violations:
        report.problems.extend(violations)
    if chaos.restarts < spec.min_restarts:
        report.problems.append(
            f"expected >= {spec.min_restarts} restarts, saw {chaos.restarts}"
        )
    if spec.expect_retries and report.retries == 0:
        report.problems.append("expected the retry layer to absorb faults")
    if spec.expect_degraded and not report.degraded:
        report.problems.append("expected degraded mode to engage")
    if spec.expect_degraded:
        if not all(n.ooc.degraded for n in chaos.runtime.nodes):
            report.problems.append("degraded flag not set on every node")
    if spec.expect_compaction_abort and report.compaction_aborts == 0:
        report.problems.append(
            "expected the compaction kill to fire (dead cell)"
        )
    return report


def run_chaos_matrix(
    specs: Optional[list[ChaosSpec]] = None,
) -> list[ChaosReport]:
    """Run every matrix cell; used by ``mrts-bench chaos``."""
    return [run_chaos_case(spec) for spec in (specs or CHAOS_MATRIX)]


# ==========================================================================
# The speculation chaos matrix: force every speculation to roll back.
# ==========================================================================
#
# PR 9's speculation layer claims mis-speculation is *always* recoverable:
# the pre-speculation snapshot restores the object and the speculated
# messages re-run for real, so the final mesh state is independent of how
# many speculations aborted.  This cell drives the claim to its extreme
# with ``SpeculationManager.force_abort`` set — every validation is made to fail, so every
# speculative execution exercises the rollback path (snapshot restore,
# possibly against spilled post-spec bytes, plus non-speculative re-post)
# — and the resulting UPDR refinement witness must still equal the
# speculation-off reference exactly.


@dataclass(frozen=True)
class SpecChaosSpec:
    """One cell of the speculation chaos matrix."""

    name: str
    total_elements: int = 60_000
    n_nodes: int = 2
    cores: int = 2
    memory_bytes: int = 8 * 1024 * 1024
    min_aborts: int = 1            # dead-cell guard


SPEC_CHAOS_MATRIX: list[SpecChaosSpec] = [
    SpecChaosSpec(name="spec-forced-rollback"),
]


def _updr_witness(result) -> dict[int, tuple]:
    """region_id -> (elements, round): the UPDR equality witness.

    Keyed on the application-level region id (never oids or placement),
    so it is insensitive to scheduling, migration and spill order — the
    axes speculation is allowed to perturb.
    """
    runtime = result.runtime
    out = {}
    for oid in sorted(runtime.pointers):
        obj = runtime.get_object(runtime.pointers[oid])
        if hasattr(obj, "region_id") and hasattr(obj, "round"):
            out[obj.region_id] = (obj.elements, obj.round)
    return out


def run_spec_chaos_case(spec: SpecChaosSpec) -> ChaosReport:
    """Execute one speculation cell: reference, forced-rollback run, verdict."""
    from repro.evalsim.apps import run_updr_model

    cluster = ClusterSpec(
        n_nodes=spec.n_nodes,
        node=NodeSpec(cores=spec.cores, memory_bytes=spec.memory_bytes),
    )
    reference = run_updr_model(
        spec.total_elements, cluster, mrts=True,
        config=MRTSConfig(prefetch_depth=3),
    )
    want = _updr_witness(reference)

    chaos = run_updr_model(
        spec.total_elements, cluster, mrts=True,
        config=MRTSConfig(
            prefetch_depth=3, speculation=True, work_stealing=True,
        ),
        on_runtime=lambda rt: setattr(rt.speculation, "force_abort", True),
    )
    got = _updr_witness(chaos)
    stats = chaos.stats

    # The UPDR app pins its coordinator in core for the whole run
    # (``ooc.lock``), which the generic quiescence invariant reports;
    # that lock is the application's deliberate placement, not a leak.
    violations = [
        f"final: {v}" for v in check_runtime(chaos.runtime)
        if "still locked at quiescence" not in v
    ]
    report = ChaosReport(
        name=spec.name,
        state_matches=(got == want),
        violations=violations,
        events=[
            f"spec issued={stats.spec_issued} "
            f"committed={stats.spec_committed} "
            f"aborted={stats.spec_aborted} steals={stats.steals}"
        ],
    )
    if not report.state_matches:
        diff = {
            rid: (got.get(rid), want.get(rid))
            for rid in set(got) | set(want)
            if got.get(rid) != want.get(rid)
        }
        report.problems.append(f"refinement witness diverged: {diff}")
    report.problems.extend(violations)
    if stats.spec_aborted < spec.min_aborts:
        report.problems.append(
            f"expected >= {spec.min_aborts} forced rollbacks, "
            f"saw {stats.spec_aborted} (dead cell)"
        )
    if stats.spec_committed != 0:
        report.problems.append(
            f"force_abort leaked {stats.spec_committed} commits"
        )
    return report


def run_spec_chaos_matrix(
    specs: Optional[list[SpecChaosSpec]] = None,
) -> list[ChaosReport]:
    """Run the speculation matrix; used by ``mrts-bench chaos``."""
    return [run_spec_chaos_case(spec) for spec in (specs or SPEC_CHAOS_MATRIX)]


# ==========================================================================
# The distributed chaos matrix: real worker processes under fire.
# ==========================================================================
#
# Same verification discipline as the simulated matrix — seeded storm,
# fault-free reference, state equality, invariants at phase boundaries —
# but the reference is the *single-process simulator* and the chaos run is
# a :class:`~repro.dist.DistRuntime`, so every cell simultaneously pins
# cross-backend equivalence and fault convergence.  The worker-kill cell
# is the proof that a crash is absorbed by shard re-homing (the recovery
# event log shows the move and the runtime is never rebuilt); the wire
# cell proves exactly-once delivery under a lossy, duplicating link.


@dataclass(frozen=True)
class DistChaosSpec:
    """One cell of the distributed chaos matrix."""

    name: str
    workers: int = 3
    # Crash injection: SIGKILL `kill_rank` once `kill_after_acks` ACKs
    # have been processed (count-based, hence reproducible in shape).
    kill_rank: Optional[int] = None
    kill_after_acks: int = 0
    # Link-fault injection (deterministic per seed, see WireChaos).
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    chaos_seed: int = 0
    expect_rehome: bool = False
    # Workload shape (small: the matrix spawns real processes in CI).
    storm: WorkloadSpec = WorkloadSpec(
        n_actors=10, payload_bytes=2048, initial_pulses=3, hops=4,
        fanout=2, grow_every=3, grow_bytes=512,
    )
    l0_bytes: int = 8 * 1024
    # Actor class, as in ChaosSpec: DeltaStormActor spills delta frames.
    actor: type = StormActor

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0.0 <= self.drop_rate < 1.0 and 0.0 <= self.dup_rate < 1.0):
            raise ValueError("drop/dup rates must be in [0, 1)")
        if self.kill_rank is not None and not (
            0 <= self.kill_rank < self.workers
        ):
            raise ValueError("kill_rank out of range")


DIST_CHAOS_MATRIX: list[DistChaosSpec] = [
    # Kill a worker mid-epoch: its shard must re-home from the replicated
    # directory entries and unacked work must be redelivered — no rewind.
    DistChaosSpec(
        name="dist-worker-kill",
        workers=3,
        kill_rank=1,
        kill_after_acks=30,
        expect_rehome=True,
    ),
    # Drop and duplicate wire messages both ways: retransmission plus
    # two-sided dedupe must still deliver exactly once.
    DistChaosSpec(
        name="dist-wire-chaos",
        workers=2,
        drop_rate=0.15,
        dup_rate=0.15,
        chaos_seed=11,
    ),
    # Kill a worker whose shard spills delta frames: survivors keep their
    # append-logs, re-homed objects restart from a full store.
    DistChaosSpec(
        name="dist-delta-kill",
        workers=3,
        kill_rank=1,
        kill_after_acks=30,
        expect_rehome=True,
        actor=DeltaStormActor,
    ),
]


def run_dist_chaos_case(spec: DistChaosSpec) -> ChaosReport:
    """Execute one distributed cell: reference, chaos run, verdict."""
    from repro.dist import DistRuntime, WireChaos
    from repro.testing.harness import RuntimeHarness
    from repro.testing.invariants import check_dist

    # The fault-free reference: the same storm on the single-process
    # simulator, in one phase (the final state does not depend on it).
    reference = RuntimeHarness(n_nodes=spec.workers, memory_bytes=1 << 20)
    want = storm_state(reference.runtime, run_storm(
        reference.runtime, spec.storm, spec.actor))

    chaos = (
        WireChaos(seed=spec.chaos_seed, drop_rate=spec.drop_rate,
                  dup_rate=spec.dup_rate)
        if (spec.drop_rate or spec.dup_rate)
        else None
    )
    violations: list[str] = []
    with DistRuntime(
        spec.workers, l0_bytes=spec.l0_bytes, chaos=chaos,
        rto_s=0.1 if chaos else 0.25,
    ) as runtime:
        if spec.kill_rank is not None:
            runtime.schedule_kill(spec.kill_rank, spec.kill_after_acks)

        actors = storm_actors(runtime, spec.storm, spec.actor)
        for label in storm_phases(runtime, actors, spec.storm):
            violations.extend(f"{label}: {v}" for v in check_dist(runtime))
        got = storm_state(runtime, actors)
        stats = runtime.stats
        recovery = runtime.recovery
    violations.extend(stats.residency_violations())  # filled in by close()

    report = ChaosReport(
        name=spec.name,
        state_matches=(got == want),
        violations=violations,
        restarts=stats.rehomes,  # re-homes play the restart column's role
        retries=stats.retransmits,
        events=list(recovery.events),
    )
    if not report.state_matches:
        diff = {
            oid: (got.get(oid), want.get(oid))
            for oid in set(got) | set(want)
            if got.get(oid) != want.get(oid)
        }
        report.problems.append(f"final state diverged: {diff}")
    report.problems.extend(violations)
    if spec.expect_rehome:
        if stats.rehomes < 1:
            report.problems.append(
                "expected the crash to be absorbed by a shard re-home"
            )
        if stats.moved_objects < 1:
            report.problems.append("re-home moved no objects")
    if chaos is not None and not (
        chaos.dropped_sends or chaos.dropped_acks or chaos.duplicated_sends
    ):
        report.problems.append("wire chaos never fired (dead cell)")
    if spec.actor is DeltaStormActor and not stats.aggregate("delta_spills"):
        report.problems.append("no delta frame was stored (dead cell)")
    return report


def run_dist_chaos_matrix(
    specs: Optional[list[DistChaosSpec]] = None,
) -> list[ChaosReport]:
    """Run the distributed matrix; used by ``mrts-bench chaos --backend dist``."""
    return [run_dist_chaos_case(spec) for spec in (specs or DIST_CHAOS_MATRIX)]


# ==========================================================================
# The service chaos matrix: kill a mesh job mid-phase, resume, compare.
# ==========================================================================
#
# Same discipline once more, one level up the stack: the reference is the
# solo run of a :class:`~repro.serve.meshjob.JobSpec`, the chaos run goes
# through the real :class:`~repro.serve.jobs.JobManager` with a kill hook
# that crashes attempt 1 *mid-phase* (the runtime is abandoned with work
# in flight, exactly like a preemption).  Attempt 2 must resume from the
# last boundary checkpoint — not restart — and land on a final mesh equal
# to the uninterrupted reference, with the runner's cross-layer invariant
# checks clean at every boundary of every incarnation.


@dataclass(frozen=True)
class ServeChaosSpec:
    """One cell of the service chaos matrix."""

    name: str
    # JobSpec keyword arguments; memory is sized so the job genuinely
    # spills (the checkpoint must round-trip evicted state, not just core).
    job: dict = field(default_factory=dict)
    kill_phase: int = 2        # crash once this many boundaries completed
    max_attempts: int = 3
    expect_resume: bool = True


SERVE_CHAOS_MATRIX: list[ServeChaosSpec] = [
    ServeChaosSpec(
        name="serve-kill-midjob",
        job=dict(
            method="updr", geometry="unit_square", h=0.06, nx=3, ny=3,
            n_nodes=2, memory_bytes=48 * 1024, tenant="chaos",
            checkpoint_every=1,
        ),
        kill_phase=2,
    ),
    # Kill mid-ghost-exchange: attempt 1 dies with owner→ghost pushes and
    # their acks in flight; attempt 2 resumes from the boundary checkpoint
    # (versioned ghost tables and the coordinator's ack ledger round-trip
    # through it) and must land byte-equal to the fault-free reference —
    # with the ghost-freshness invariant clean at every boundary of every
    # incarnation.
    ServeChaosSpec(
        name="serve-kill-ghost-exchange",
        job=dict(
            method="updr", geometry="unit_square", h=0.06, nx=3, ny=3,
            ghost_sync=True, n_nodes=2, memory_bytes=48 * 1024,
            tenant="chaos", checkpoint_every=1,
        ),
        kill_phase=2,
    ),
    # Same discipline for the 3D prism patches: kill mid-sweep, resume,
    # and require the exact cell set of the uninterrupted run plus the
    # mesh3d invariants (volume conservation, 2:1 face balance) at the
    # converged boundary.
    ServeChaosSpec(
        name="serve-kill-mesh3d",
        job=dict(
            method="mesh3d", h=0.13, nx=2, ny=2, nz=2,
            n_nodes=2, memory_bytes=96 * 1024, tenant="chaos",
            checkpoint_every=1,
        ),
        kill_phase=2,
    ),
]


def run_serve_chaos_case(
    spec: ServeChaosSpec, bus: Optional[EventBus] = None
) -> ChaosReport:
    """Execute one service cell: solo reference, killed+resumed run, verdict.

    ``bus`` (if given) observes the chaos run's :class:`JobEvent` stream
    — submitted/started/boundary/killed/resumed/finished — which is what
    the Perfetto per-job lanes render.
    """
    from repro.serve.jobs import JobManager
    from repro.serve.meshjob import JobSpec, run_job_solo

    job_spec = JobSpec(**spec.job)
    reference = run_job_solo(job_spec)
    want = reference.final_state()

    kills: list[str] = []

    def kill_hook(job, attempt: int) -> Optional[int]:
        if attempt == 1:
            kills.append(job.job_id)
            return spec.kill_phase
        return None

    manager = JobManager(
        workers=1, keep_runtimes=True, kill_hook=kill_hook,
        max_attempts=spec.max_attempts, bus=bus,
    )
    try:
        job = manager.submit(job_spec)
        if not manager.drain(timeout=300):
            job.violations.append("manager failed to drain within 300s")
    finally:
        manager.shutdown(drain=False)

    got = job.runner.final_state() if job.runner is not None else None
    report = ChaosReport(
        name=spec.name,
        state_matches=(got == want),
        violations=list(job.violations),
        restarts=max(0, job.attempts - 1),
        events=[
            f"job {job.job_id}: state={job.state} attempts={job.attempts} "
            f"boundaries={job.boundaries} error={job.error}"
        ],
    )
    if reference.violations:
        report.problems.append(
            f"reference run violated invariants: {reference.violations}"
        )
    if not kills:
        report.problems.append("kill hook never fired (dead cell)")
    if job.state != "finished":
        report.problems.append(
            f"job ended {job.state!r} (error: {job.error})"
        )
    if spec.expect_resume and job.attempts < 2:
        report.problems.append(
            f"expected a resumed second attempt, saw {job.attempts}"
        )
    if not report.state_matches:
        report.problems.append(
            "resumed final state diverged from the uninterrupted reference"
        )
    report.problems.extend(report.violations)
    return report


def run_serve_chaos_matrix(
    specs: Optional[list[ServeChaosSpec]] = None,
) -> list[ChaosReport]:
    """Run the service matrix; used by ``mrts-bench chaos``."""
    return [run_serve_chaos_case(spec) for spec in (specs or SERVE_CHAOS_MATRIX)]
