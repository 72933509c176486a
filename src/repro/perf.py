"""Out-of-core fast-path benchmark: the repo's perf trajectory baseline.

Two workloads aim pressure at the spill path the paper's Tables IV–VI
measure:

* **clean_read_storm** — a read-mostly cascade over far more objects than
  fit in core.  Objects are mutated once (the introduction phase) and then
  only serve ``@handler(readonly=True)`` reads, so after their first spill
  the storage copy stays current forever.  A dirty-aware spill path stores
  each object at most once; a naive path re-writes every eviction.  This is
  the workload the ``--check`` regression gate watches.
* **oupdr_model** — the paper's OUPDR skeleton (color-phase rounds with
  buffer exchanges) on a deliberately memory-starved cluster, i.e. a
  mutation-heavy out-of-core run where write-backs are genuinely needed
  and the win must come from cheap victim selection and pipelined
  write-behind rather than skipped stores.
* **mesh_patch_stream** — a serialization-bound workload: append-mostly
  mesh patches (the ``mesh-patch`` codec) growing round over round on a
  starved cluster, so every round re-spills every actor.  This is where
  the data plane earns its keep — compact coordinate arrays, delta
  spills of just the appended points, pack-free size accounting via
  ``ctx.grew`` — and its ``packs`` counter gates the pack-avoidance
  machinery (pack counts are deterministic; pack *time* is reported but
  never gated).
* **mesh_neighborhood_sweep** — the load-side workload (PR 7): serpentine
  refinement sweeps over a clean patch grid that overflows core, driven
  as a message chain so only the learned Markov predictor and the
  pack-file curve neighborhood can see the future.  Its
  ``prefetch_hit_rate`` column is the prefetch-accuracy trajectory;
  ``bytes_loaded`` is gated everywhere.
* **service_storm** — the throughput-under-concurrency axis (PR 8): a
  storm of small UPDR/NUPDR/PCDM jobs plus a few memory-starved
  elephants submitted by concurrent tenants through the real
  ``repro.serve`` socket server.  Per-job virtual makespans and spill
  bytes are deterministic and regression-gated; wall jobs/sec and p99
  latency carry loose floor/ceiling smoke gates (real threads jitter).
* **ghost_exchange_storm** — a ghost-mode UPDR run (PR 10) on a starved
  cluster: owners push versioned boundary strips over batched fanout
  multicast instead of the pull-style buffer collection.  The gated
  ``multicast_sends`` (control-layer wire sends) and ``ghost_bytes``
  (strip payload pushed) columns watch the aggregation contract: one
  send per subscribing node, payload charged once.
* **mesh3d_storm** — the anisotropic 3D workload (PR 10): layered-sizing
  prism refinement where bottom-layer patches hold an order of magnitude
  more cells than top ones, on a memory budget that forces the skewed
  patches through the spill path.  Proves the out-of-core machinery
  absorbs a strongly non-uniform 3D working set on unchanged gates.

``run_perf_suite`` returns (and ``mrts-bench perf`` writes) a JSON report:
wall-clock seconds, virtual makespan, bytes moved, eviction counts and the
paper's overlap metric per workload.  All virtual-time metrics are
deterministic functions of the seed, so the committed ``BENCH_ooc.json``
doubles as a regression baseline: ``mrts-bench perf --check`` fails when
bytes written (or the makespan) regress by more than 10 %.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.codec import PointColumn, get_codec
from repro.core.config import MRTSConfig
from repro.core.mobile import MobileObject
from repro.core.runtime import MRTS, handler
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

__all__ = [
    "BENCH_FILENAME",
    "ReadOnlyActor",
    "PatchStreamActor",
    "run_clean_read_storm",
    "run_oupdr_model_bench",
    "run_spec_overlap_storm",
    "run_mesh_patch_stream",
    "run_mesh_neighborhood_sweep",
    "NeighborhoodPatchActor",
    "run_dist_storm",
    "run_service_storm",
    "run_ghost_exchange_storm",
    "run_mesh3d_storm",
    "run_perf_suite",
    "check_against_baseline",
]

BENCH_FILENAME = "BENCH_ooc.json"

# Metrics that are pure functions of the seed (virtual time, byte counts)
# and therefore eligible for exact regression gating.  Wall-clock is
# reported but never gated — CI machines differ.  service_storm's
# p99_latency_virtual_s (the p99 of per-job virtual makespans) is
# deterministic for the same reason per-job makespans are: each job runs
# its own virtual schedule, untouched by thread interleaving.
_GATED_METRICS = ("bytes_stored", "bytes_loaded", "virtual_makespan_s",
                  "packs", "p99_latency_virtual_s", "barrier_idle_s",
                  "multicast_sends", "ghost_bytes")
_GATE_TOLERANCE = 0.10

# Wall-clock throughput/latency smoke gates for service_storm.  Real
# threads and sockets jitter, so these are deliberately loose — they only
# catch order-of-magnitude collapses (a serialized worker pool, a stuck
# admission queue), not percent-level drift: throughput may not fall
# below 25 % of baseline, wall p99 may not exceed 4x baseline.
_FLOOR_GATES = {"jobs_per_sec": 0.25}
_CEILING_GATES = {"p99_latency_s": 4.0}


class ReadOnlyActor(MobileObject):
    """A mobile object that serves read-only lookups and forwards chains.

    ``meet`` (mutating, runs once before the measured storm) stores the
    peer pointer list.  ``read`` is declared readonly: it inspects the
    payload and forwards the chain to the next seeded-random peer without
    touching serialized state, so the object stays *clean* from its first
    post-introduction load onward.
    """

    def __init__(self, ptr, payload_bytes: int, seed: int,
                 hot_fraction: float, hot_weight: float) -> None:
        super().__init__(ptr)
        self.payload = bytes(payload_bytes)
        self.seed = seed
        self.hot_fraction = hot_fraction
        self.hot_weight = hot_weight
        self.peers: list = []

    @handler
    def meet(self, ctx, peers) -> None:
        self.peers = list(peers)

    @handler(readonly=True)
    def read(self, ctx, steps: int, chain: int, checksum: int = 0) -> None:
        # Touch the payload (a real read) without mutating anything.
        checksum = (checksum + self.payload[:64].count(0)) & 0xFFFFFFFF
        if steps <= 0 or not self.peers:
            return
        rng = random.Random(f"{self.seed}:{chain}:{steps}:{self.oid}")
        n = len(self.peers)
        n_hot = max(1, int(n * self.hot_fraction))
        if rng.random() < self.hot_weight:
            target = self.peers[rng.randrange(n_hot)]
        else:
            target = self.peers[rng.randrange(n)]
        ctx.post(target, "read", steps - 1, chain, checksum)


class PatchStreamActor(MobileObject):
    """An append-mostly mesh patch for the serialization-bound workload.

    Points accumulate in a :class:`PointColumn` — the flat float64 array
    the ``mesh-patch`` codec stores as it is, delta spills being the
    appended suffix — and each append reports its growth via ``ctx.grew``
    so the residency layer never has to pack just to re-measure the object.
    """

    serializer = get_codec("mesh-patch")

    def __init__(self, ptr, seed: int, initial_points: int) -> None:
        super().__init__(ptr)
        self.seed = seed
        rng = random.Random(f"{seed}:init")
        self.points = PointColumn(
            (rng.random(), rng.random()) for _ in range(initial_points)
        )

    @handler
    def extend(self, ctx, n: int) -> None:
        rng = random.Random(f"{self.seed}:{len(self.points)}")
        self.points.extend(
            (rng.random(), rng.random()) for _ in range(n)
        )
        ctx.grew(16 * n)  # two float64 coordinates per appended point


@dataclass
class _WorkloadResult:
    wall_s: float
    runtime: MRTS
    # Workload-specific extra columns merged over the generic metrics
    # (e.g. the ghost-exchange push counters).
    extra: Optional[dict] = None

    def metrics(self) -> dict:
        rt = self.runtime
        stats = rt.stats
        evictions = sum(n.ooc.evictions for n in rt.nodes)
        clean = sum(getattr(n.ooc, "clean_evictions", 0) for n in rt.nodes)
        return {
            "wall_s": round(self.wall_s, 3),
            "virtual_makespan_s": round(stats.total_time, 6),
            "bytes_stored": stats.bytes_to_disk,
            "bytes_loaded": sum(n.bytes_loaded for n in stats.nodes),
            "objects_stored": stats.objects_stored,
            "objects_loaded": stats.objects_loaded,
            "backend_stores": sum(n.storage.stores for n in rt.nodes),
            "backend_bytes_written": sum(
                n.storage.bytes_written for n in rt.nodes
            ),
            "evictions": evictions,
            "clean_evictions": clean,
            "overlap_pct": round(stats.overlap_pct(), 2),
            # Data-plane counters (PR 4).  packs/unpacks and the spill
            # split are seed-deterministic; pack/unpack wall time is not.
            "packs": stats.packs,
            "unpacks": stats.unpacks,
            "pack_time_s": round(stats.pack_time, 3),
            "unpack_time_s": round(stats.unpack_time, 3),
            "delta_spills": stats.delta_spills,
            "full_spills": stats.full_spills,
            "payload_bytes_raw": stats.payload_bytes_raw,
            "payload_bytes_stored": stats.payload_bytes_stored,
            "stored_ratio": round(stats.stored_ratio, 4),
            # Load-side counters (PR 7).  Issued/hit/wasted are
            # seed-deterministic; the hit rate is reported, and bytes_loaded
            # joins the regression gate.
            "prefetch_issued": stats.prefetch_issued,
            "prefetch_hits": stats.prefetch_hits,
            "prefetch_wasted": stats.prefetch_wasted,
            "prefetch_hit_rate": round(stats.prefetch_hit_rate, 4),
            "pack_segments": sum(
                n.packfile.stats()["segments"]
                for n in rt.nodes if n.packfile is not None
            ),
            "pack_compactions": sum(
                n.packfile.stats()["compactions"]
                for n in rt.nodes if n.packfile is not None
            ),
            # Speculation / elastic-tasking counters (PR 9).  All are
            # seed-deterministic; barrier_idle_s (virtual time nodes spent
            # with nothing queued and nothing running — the global-sync
            # stall speculation exists to fill) joins the regression gate.
            "barrier_idle_s": round(
                sum(n.barrier_idle_s for n in stats.nodes), 6
            ),
            "spec_issued": sum(n.spec_issued for n in stats.nodes),
            "spec_committed": sum(n.spec_committed for n in stats.nodes),
            "spec_aborted": sum(n.spec_aborted for n in stats.nodes),
            "spec_commit_rate": round(
                sum(n.spec_committed for n in stats.nodes)
                / max(sum(n.spec_issued for n in stats.nodes), 1), 4
            ),
            "steals": sum(n.steals for n in stats.nodes),
            # Printed, not gated: DES events, and how many of them were
            # poll (thief) ticks that resumed nobody.
            "des_events": rt.engine.events_processed,
            "poll_ticks": rt.engine.poll_ticks,
            **(self.extra or {}),
        }


def _starved(memory_bytes: int, scale: float) -> int:
    """The per-node budget at ``scale``: payloads grow with the scale, so
    above 1 the budget that starves them follows (1 is the calibration)."""
    return int(memory_bytes * max(scale, 1.0))


def _fixed_cost_model(cost: float):
    from repro.testing.harness import FixedCostModel

    return FixedCostModel(cost)


def run_clean_read_storm(
    seed: int = 0,
    n_objects: int = 48,
    payload_bytes: int = 32 * 1024,
    n_chains: int = 8,
    chain_len: int = 60,
    n_nodes: int = 2,
    memory_bytes: int = 256 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Read-mostly storm: clean objects cycle through core far oftener
    than they change.

    ``on_runtime`` (if given) is called with the freshly built runtime
    before any objects exist — the place to subscribe observers.
    """
    chain_len = max(1, int(chain_len * scale))
    runtime = MRTS(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(cores=1, memory_bytes=memory_bytes),
        ),
        config=MRTSConfig(swap_scheme="lru"),
        cost_model=_fixed_cost_model(1e-4),
        io_depth=2,
    )
    if on_runtime is not None:
        on_runtime(runtime)
    actors = [
        runtime.create_object(
            ReadOnlyActor, payload_bytes, seed, 0.2, 0.8, node=i % n_nodes
        )
        for i in range(n_objects)
    ]
    for ptr in actors:
        runtime.post(ptr, "meet", actors)
    runtime.run()  # introductions: the one mutating phase
    rng = random.Random(seed)
    for chain in range(n_chains):
        runtime.post(
            actors[rng.randrange(len(actors))], "read", chain_len, chain
        )
    wall0 = time.perf_counter()
    runtime.run()
    wall = time.perf_counter() - wall0
    return _WorkloadResult(wall_s=wall, runtime=runtime)


def run_oupdr_model_bench(
    seed: int = 0,
    total_elements: int = 400_000,
    n_nodes: int = 2,
    cores: int = 2,
    memory_bytes: int = 8 * 1024 * 1024,
    scale: float = 1.0,
    speculation: bool = True,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """OUPDR-style modeled run on a memory-starved cluster (write-heavy).

    Since PR 9 the bench runs with speculation and work stealing on:
    blocks self-post their next refinement speculatively the moment the
    boundary strips it reads have all been integrated, so the refine
    drains in the same residency window as the buffer messages instead
    of paying its own demand load.  ``speculation=False`` reproduces the
    pre-PR-9 barrier configuration exactly.
    """
    from repro.evalsim.apps import run_updr_model

    total_elements = max(50_000, int(total_elements * scale))
    cluster = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(cores=cores, memory_bytes=memory_bytes),
    )
    config = MRTSConfig(
        prefetch_depth=3,
        speculation=speculation,
        work_stealing=speculation,
    )
    wall0 = time.perf_counter()
    result = run_updr_model(
        total_elements, cluster, mrts=True, config=config,
        on_runtime=on_runtime,
    )
    wall = time.perf_counter() - wall0
    return _WorkloadResult(wall_s=wall, runtime=result.runtime)


def run_spec_overlap_storm(
    seed: int = 0,
    total_elements: int = 120_000,
    n_nodes: int = 3,
    cores: int = 1,
    memory_bytes: int = 5 * 1024 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Speculation-stress UPDR run: single-core nodes, starved memory.

    One core per node means a node serves exactly one handler at a time,
    so every inter-color dependency stall shows up directly as
    ``barrier_idle_s`` unless speculation manufactures work to fill it —
    the shape that most rewards the PR 9 overlap machinery and most
    punishes a regression in it.  Three nodes keep the boundary-exchange
    fabric busy (more remote strips than the 2-node bench) and 5 MB of
    memory forces mid-wavefront spills, exercising snapshot/rollback
    against spilled state.  Speculation and work stealing are always on;
    the ``speculation=off`` reference lives in the chaos/property tests,
    not here.
    """
    from repro.evalsim.apps import run_updr_model

    total_elements = max(40_000, int(total_elements * scale))
    cluster = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(cores=cores, memory_bytes=memory_bytes),
    )
    config = MRTSConfig(
        prefetch_depth=3,
        speculation=True,
        work_stealing=True,
    )
    wall0 = time.perf_counter()
    result = run_updr_model(
        total_elements, cluster, mrts=True, config=config,
        on_runtime=on_runtime,
    )
    wall = time.perf_counter() - wall0
    return _WorkloadResult(wall_s=wall, runtime=result.runtime)


def run_mesh_patch_stream(
    seed: int = 0,
    n_actors: int = 24,
    initial_points: int = 512,
    rounds: int = 6,
    append_per_round: int = 256,
    n_nodes: int = 2,
    memory_bytes: int = 96 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Serialization-bound storm: growing mesh patches on a starved cluster.

    Every round appends points to every actor, so every round re-spills
    (nearly) every actor — the pack path, delta spills and pack-free
    growth accounting dominate the cost.
    """
    rounds = max(1, int(rounds * scale))
    runtime = MRTS(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(cores=1, memory_bytes=_starved(memory_bytes, scale)),
        ),
        config=MRTSConfig(swap_scheme="lru"),
        cost_model=_fixed_cost_model(1e-4),
        io_depth=2,
    )
    if on_runtime is not None:
        on_runtime(runtime)
    actors = [
        runtime.create_object(
            PatchStreamActor, seed + i, initial_points, node=i % n_nodes
        )
        for i in range(n_actors)
    ]
    wall0 = time.perf_counter()
    for _ in range(rounds):
        for ptr in actors:
            runtime.post(ptr, "extend", append_per_round)
        runtime.run()
    wall = time.perf_counter() - wall0
    return _WorkloadResult(wall_s=wall, runtime=runtime)


class NeighborhoodPatchActor(MobileObject):
    """A grid patch for the load-side (prefetch) workload.

    Carries an inert payload and its grid cell; ``probe`` is readonly (the
    object stays clean after its first spill, so the workload is purely
    load-bound) and forwards the sweep chain to the next patch, which is
    exactly the access shape the Markov predictor learns.
    """

    def __init__(self, ptr, grid_i: int, grid_j: int,
                 payload_bytes: int) -> None:
        super().__init__(ptr)
        self.grid_i = grid_i
        self.grid_j = grid_j
        self.payload = bytes(payload_bytes)

    def locality_key(self):
        from repro.core.packfile import morton2

        return morton2(self.grid_i, self.grid_j)

    @handler(readonly=True)
    def probe(self, ctx, route, pos: int) -> None:
        _ = self.payload[:64].count(0)  # a real read
        if pos + 1 < len(route):
            ctx.post(route[pos + 1], "probe", route, pos + 1)


def run_mesh_neighborhood_sweep(
    seed: int = 0,
    side: int = 6,
    payload_bytes: int = 16 * 1024,
    laps: int = 6,
    memory_bytes: int = 128 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Serpentine refinement sweeps over a patch grid (load-bound).

    A single node holds a ``side x side`` grid of clean patches that
    overflow core ~4x; each lap walks the grid in serpentine order as a
    message chain (the ready queue never sees the future — only the
    learned predictor and the pack-file neighborhood can).  Lap one trains
    the Markov table; later laps should ride prefetched loads, which is
    what the ``prefetch_hit_rate`` column measures.  A final shuffled
    probe flood exercises the curve-neighborhood warm without a learnable
    sequence.
    """
    laps = max(2, int(laps * scale))
    runtime = MRTS(
        ClusterSpec(
            n_nodes=1,
            node=NodeSpec(cores=1, memory_bytes=memory_bytes),
        ),
        # Modest prefetch depth: the chain consumes one patch at a time,
        # so a wide warm on an 8-patch core just evicts its own prefetches.
        config=MRTSConfig(swap_scheme="lru", prefetch_depth=2),
        cost_model=_fixed_cost_model(3e-3),
        io_depth=4,
    )
    if on_runtime is not None:
        on_runtime(runtime)
    ptrs = {}
    for j in range(side):
        for i in range(side):
            ptrs[(i, j)] = runtime.create_object(
                NeighborhoodPatchActor, i, j, payload_bytes, node=0
            )
    runtime.run()  # flush creation; initial spills happen under pressure
    route = []
    for j in range(side):
        cols = range(side) if j % 2 == 0 else range(side - 1, -1, -1)
        route.extend(ptrs[(i, j)] for i in cols)
    wall0 = time.perf_counter()
    for _ in range(laps):
        runtime.post(route[0], "probe", route, 0)
        runtime.run()
    shuffled = list(route)
    random.Random(seed).shuffle(shuffled)
    for ptr in shuffled:
        runtime.post(ptr, "probe", [ptr], 0)
    runtime.run()
    wall = time.perf_counter() - wall0
    return _WorkloadResult(wall_s=wall, runtime=runtime)


def run_dist_storm(
    seed: int = 0,
    workers: int = 2,
    n_actors: int = 16,
    payload_bytes: int = 4096,
    pulses: int = 4,
    hops: int = 5,
    fanout: int = 2,
    grow_every: int = 3,
    grow_bytes: int = 512,
    l0_bytes: int = 16 * 1024,
    scale: float = 1.0,
    trace_out: Optional[str] = None,
) -> dict:
    """The distributed backend's benchmark workload (``--backend dist``).

    Runs the seeded storm twice: once on the single-process simulator
    (the reference) and once on a :class:`~repro.dist.DistRuntime` with
    real worker processes.  The report's ``state_equal`` flag is the
    correctness verdict — the distributed final state must match the
    reference exactly — and ``residency_violations`` (each worker's
    shutdown residency check) must be empty; the CLI turns either
    failure into a non-zero exit.  ``trace_out`` (if given) writes the
    merged cross-process Perfetto trace.

    Wall-clock and wire counters are reported but never regression-gated
    (real processes, real scheduling); ``state_equal`` and the residency
    check are the only hard gates, which is why
    :func:`check_against_baseline` skips this workload's metrics (none of
    ``_GATED_METRICS`` appear in it).
    """
    from repro.dist import DistRuntime
    from repro.testing.harness import RuntimeHarness
    from repro.testing.workloads import WorkloadSpec, run_storm

    pulses = max(1, int(pulses * scale))
    spec = WorkloadSpec(
        n_actors=n_actors, payload_bytes=payload_bytes,
        initial_pulses=pulses, hops=hops, fanout=fanout,
        grow_every=grow_every, grow_bytes=grow_bytes, seed=seed,
    )

    harness = RuntimeHarness(n_nodes=workers, memory_bytes=1 << 20)
    ref_ptrs = harness.run_storm(spec)
    reference = {
        p.oid: (o.hits, o.forwarded, len(o.payload))
        for p in ref_ptrs
        for o in [harness.runtime.get_object(p)]
    }

    wall0 = time.perf_counter()
    with DistRuntime(workers, l0_bytes=l0_bytes) as runtime:
        sub = runtime.bus.subscribe() if trace_out else None
        ptrs = run_storm(runtime, spec)
        final = {
            p.oid: (o.hits, o.forwarded, len(o.payload))
            for p in ptrs
            for o in [runtime.get_object(p)]
        }
        stats = runtime.close()
        if trace_out and sub is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(list(sub.events), trace_out)
    wall = time.perf_counter() - wall0

    return {
        "wall_s": round(wall, 3),
        "workers": workers,
        "state_equal": final == reference,
        "delivered": stats.delivered,
        "posts_routed": stats.posts_routed,
        "retransmits": stats.retransmits,
        "rehomes": stats.rehomes,
        "bytes_replicated": stats.bytes_replicated,
        "events_merged": stats.events_merged,
        "l0_evictions": stats.aggregate("evictions"),
        "clean_evictions": stats.aggregate("clean_evictions"),
        "tier_loads": stats.aggregate("loads"),
        "stores": stats.aggregate("stores"),
        "packs": stats.aggregate("packs"),
        "delta_spills": stats.aggregate("delta_spills"),
        "peer_hits": stats.aggregate("peer_hits"),
        "peer_fallbacks": stats.aggregate("peer_fallbacks"),
        "peer_puts": stats.aggregate("peer_puts"),
        "residency_violations": stats.residency_violations(),
    }


def run_service_storm(
    seed: int = 0,
    n_tenants: int = 4,
    small_jobs: int = 12,
    elephants: int = 2,
    workers: int = 4,
    scale: float = 1.0,
    trace_out: Optional[str] = None,
) -> dict:
    """Service-mode throughput workload: a storm of small jobs + elephants.

    Submits a seeded mix of quick UPDR/NUPDR/PCDM jobs plus a few
    memory-starved "elephant" UPDR runs (48 KiB/node on a fine sizing, so
    they genuinely spill) across ``n_tenants`` tenants through the real
    socket server, one client thread per tenant.  This is the perf
    trajectory's first throughput-under-concurrency axis:

    * **deterministic** (gated at 10 %): per-job virtual makespans and
      spill bytes, summed (``virtual_makespan_s``, ``bytes_stored``,
      ``bytes_loaded``) and the p99 of per-job virtual makespans
      (``p99_latency_virtual_s``) — thread scheduling cannot move these;
    * **wall-clock** (smoke-gated): ``jobs_per_sec`` (floor gate) and
      ``p99_latency_s`` (ceiling gate) — see ``_FLOOR_GATES`` /
      ``_CEILING_GATES``;
    * **hard**: ``all_finished`` and ``invariant_violations == 0`` — the
      CLI turns either into a non-zero exit, like dist_storm's
      ``state_equal``.

    ``trace_out`` writes the Perfetto trace of the job-lifecycle stream
    (the per-job lanes).
    """
    from repro.obs.events import EventBus
    from repro.serve.admission import AdmissionPolicy
    from repro.testing.service import ServiceFixture

    import threading

    small_jobs = max(1, int(small_jobs * scale))
    templates = (
        dict(method="updr", geometry="unit_square", h=0.18, nx=2, ny=2,
             memory_bytes=256 * 1024),
        dict(method="updr", geometry="circle", h=0.25, nx=2, ny=2,
             memory_bytes=64 * 1024),
        dict(method="nupdr", geometry="unit_square", h=0.22,
             granularity=4.0, memory_bytes=256 * 1024),
        dict(method="pcdm", geometry="unit_square", h=0.18, n_parts=2,
             memory_bytes=256 * 1024),
        dict(method="pcdm", geometry="circle", h=0.3, n_parts=2,
             memory_bytes=256 * 1024),
    )
    elephant = dict(method="updr", geometry="unit_square", h=0.06,
                    nx=3, ny=3, n_nodes=2, memory_bytes=48 * 1024)
    rng = random.Random(seed)
    script: list[dict] = []
    for i in range(small_jobs):
        body = dict(rng.choice(templates))
        body["tenant"] = f"tenant-{i % n_tenants}"
        body["seed"] = seed
        script.append(body)
    for i in range(elephants):
        body = dict(elephant)
        body["tenant"] = f"tenant-{i % n_tenants}"
        body["seed"] = seed
        script.append(body)

    policy = AdmissionPolicy(
        soft_residency_bytes=4 * (1 << 20),
        hard_residency_bytes=8 * (1 << 20),
        tenant_quota_bytes=512 * (1 << 20),
    )
    bus = EventBus()
    sub = bus.subscribe() if trace_out else None
    results: list[dict] = []
    failures: list[str] = []
    lock = threading.Lock()

    wall0 = time.perf_counter()
    with ServiceFixture(policy=policy, workers=workers, bus=bus) as svc:
        def tenant_thread(tenant_idx: int) -> None:
            mine = [b for b in script
                    if b["tenant"] == f"tenant-{tenant_idx}"]
            try:
                with svc.client(timeout=300.0) as client:
                    submitted = [
                        (client.submit(body)["job_id"], body)
                        for body in mine
                    ]
                    for job_id, body in submitted:
                        status = client.wait(job_id, timeout=300.0)
                        if status["state"] != "finished":
                            with lock:
                                failures.append(
                                    f"{job_id} ended {status['state']!r}")
                            continue
                        result = client.result(job_id)
                        result["latency_s"] = status["latency_s"]
                        with lock:
                            results.append(result)
            except Exception as exc:  # noqa: BLE001 - surface, don't hang
                with lock:
                    failures.append(
                        f"tenant {tenant_idx}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=tenant_thread, args=(i,),
                             name=f"storm-tenant-{i}")
            for i in range(n_tenants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
    wall = time.perf_counter() - wall0

    if trace_out and sub is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(list(sub.events), trace_out)

    def pct(values: list, q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[idx]

    virtual = sorted(r["virtual_makespan_s"] for r in results)
    latencies = sorted(r["latency_s"] for r in results)
    return {
        "wall_s": round(wall, 3),
        "n_tenants": n_tenants,
        "workers": workers,
        "jobs_submitted": len(script),
        "jobs_completed": len(results),
        "all_finished": (not failures and len(results) == len(script)),
        "failures": failures,
        "invariant_violations": sum(
            r["invariant_violations"] for r in results),
        # Wall-clock axis (smoke-gated).
        "jobs_per_sec": round(len(results) / max(wall, 1e-9), 3),
        "p50_latency_s": round(pct(latencies, 0.50), 6),
        "p99_latency_s": round(pct(latencies, 0.99), 6),
        # Deterministic axis (regression-gated at 10 %).
        "virtual_makespan_s": round(sum(virtual), 6),
        "p99_latency_virtual_s": round(pct(virtual, 0.99), 6),
        "bytes_stored": sum(r["bytes_stored"] for r in results),
        "bytes_loaded": sum(r["bytes_loaded"] for r in results),
    }


def run_ghost_exchange_storm(
    seed: int = 0,
    h: float = 0.05,
    nx: int = 3,
    ny: int = 3,
    n_nodes: int = 2,
    memory_bytes: int = 64 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Ghost-mode UPDR on a starved cluster (push-style boundary sync).

    Every region owns versioned boundary strips and pushes them to all
    face neighbors over a single fanout multicast per mutation; the color
    barrier additionally waits for the pushes to be acked.  The gated
    ``multicast_sends`` column counts control-layer wire sends — the
    aggregation contract says one per subscribing *node*, not per
    subscriber — and ``ghost_bytes`` is the strip payload volume, charged
    once per destination node regardless of how many local subscribers
    share it.  The memory budget holds roughly a third of the regions, so
    ghost installs land on spilled subscribers and push traffic interleaves
    with the spill path.
    """
    from repro.geometry import unit_square
    from repro.pumg.driver import run_updr

    h = h / max(scale, 1e-9) ** 0.5
    cluster = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(cores=1, memory_bytes=_starved(memory_bytes, scale)),
    )
    wall0 = time.perf_counter()
    result = run_updr(
        unit_square(), h=h, nx=nx, ny=ny, cluster=cluster,
        cost_model=_fixed_cost_model(1e-4), ghost_sync=True,
        validate=False, on_runtime=on_runtime,
    )
    wall = time.perf_counter() - wall0
    extra = {
        key: result.extras[key]
        for key in ("ghost_pushes", "ghost_bytes", "ghost_installs",
                    "ghost_acks", "multicast_sends")
    }
    extra["n_points"] = result.n_points
    return _WorkloadResult(wall_s=wall, runtime=result.runtime, extra=extra)


def run_mesh3d_storm(
    seed: int = 0,
    h_bottom: float = 0.05,
    h_top: float = 0.5,
    nx: int = 2,
    ny: int = 2,
    nz: int = 2,
    n_nodes: int = 2,
    memory_bytes: int = 512 * 1024,
    scale: float = 1.0,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> _WorkloadResult:
    """Anisotropic 3D prism refinement under spill pressure.

    The layered sizing grades from ``h_bottom`` at z=0 to ``h_top`` at
    z=1, so the four bottom-layer patches refine ~10x harder than the top
    ones — the strongly skewed per-patch working set of a boundary-layer
    3D mesh.  The MRTS runs the 3D patches unmodified; the memory budget
    is sized so the bottom-layer patches cannot all stay resident, forcing
    the skew through eviction, pack (morton3 locality keys) and reload.
    The ``cells_skew`` column (max/min cells per patch) documents the
    imbalance the gates absorb.
    """
    from repro.mesh3d.driver import run_mesh3d

    h_bottom = h_bottom / max(scale, 1e-9) ** 0.5
    # Bisection: the cell count steps up ~4x each time h_bottom halves,
    # which is once per factor 4 of the scale, so the budget steps with it.
    steps = math.ceil(math.log2(max(scale, 1e-9)) / 2)
    cluster = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(cores=1, memory_bytes=_starved(memory_bytes, 4.0 ** steps)),
    )
    wall0 = time.perf_counter()
    result = run_mesh3d(
        ("layered", h_bottom, h_top), nx=nx, ny=ny, nz=nz,
        cluster=cluster, cost_model=_fixed_cost_model(1e-4),
        on_runtime=on_runtime,
    )
    wall = time.perf_counter() - wall0
    extra = {
        "n_cells": result.n_cells,
        "splits": result.extras["splits"],
        "cells_skew": round(
            result.extras["cells_per_patch_max"]
            / max(result.extras["cells_per_patch_min"], 1), 2
        ),
    }
    return _WorkloadResult(wall_s=wall, runtime=result.runtime, extra=extra)


def run_perf_suite(seed: int = 0, scale: float = 1.0) -> dict:
    """Run all workloads; returns the BENCH_ooc.json document."""
    storm = run_clean_read_storm(seed=seed, scale=scale)
    oupdr = run_oupdr_model_bench(seed=seed, scale=scale)
    spec_storm = run_spec_overlap_storm(seed=seed, scale=scale)
    patches = run_mesh_patch_stream(seed=seed, scale=scale)
    sweep = run_mesh_neighborhood_sweep(seed=seed, scale=scale)
    service = run_service_storm(seed=seed, scale=scale)
    ghosts = run_ghost_exchange_storm(seed=seed, scale=scale)
    mesh3d = run_mesh3d_storm(seed=seed, scale=scale)
    return {
        "version": 6,
        "seed": seed,
        "scale": scale,
        "workloads": {
            "clean_read_storm": storm.metrics(),
            "oupdr_model": oupdr.metrics(),
            "spec_overlap_storm": spec_storm.metrics(),
            "mesh_patch_stream": patches.metrics(),
            "mesh_neighborhood_sweep": sweep.metrics(),
            "service_storm": service,
            "ghost_exchange_storm": ghosts.metrics(),
            "mesh3d_storm": mesh3d.metrics(),
        },
    }


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float = _GATE_TOLERANCE
) -> list[str]:
    """Regression gate: deterministic metrics may not regress past tolerance.

    Returns human-readable failure strings (empty = pass).  Improvements
    (fewer bytes, shorter makespan) always pass.
    """
    failures: list[str] = []
    base_wl = baseline.get("workloads", {})
    for name, metrics in report.get("workloads", {}).items():
        base = base_wl.get(name)
        if base is None:
            continue
        for key in _GATED_METRICS:
            if key not in base or key not in metrics:
                continue
            old, new = float(base[key]), float(metrics[key])
            if old <= 0:
                continue
            if new > old * (1.0 + tolerance):
                failures.append(
                    f"{name}.{key} regressed: {new:g} vs baseline {old:g} "
                    f"(+{100.0 * (new / old - 1.0):.1f}%, "
                    f"allowed +{100.0 * tolerance:.0f}%)"
                )
        for key, floor in _FLOOR_GATES.items():
            if key not in base or key not in metrics:
                continue
            old, new = float(base[key]), float(metrics[key])
            if old <= 0:
                continue
            if new < old * floor:
                failures.append(
                    f"{name}.{key} collapsed: {new:g} vs baseline {old:g} "
                    f"(floor {100.0 * floor:.0f}% of baseline)"
                )
        for key, ceiling in _CEILING_GATES.items():
            if key not in base or key not in metrics:
                continue
            old, new = float(base[key]), float(metrics[key])
            if old <= 0:
                continue
            if new > old * ceiling:
                failures.append(
                    f"{name}.{key} blew up: {new:g} vs baseline {old:g} "
                    f"(ceiling {ceiling:g}x baseline)"
                )
    return failures


def render_report(report: dict) -> str:
    lines = ["perf suite (out-of-core fast path):"]
    for name, metrics in report["workloads"].items():
        if "jobs_per_sec" in metrics:
            lines.append(
                f"  {name:<18} jobs={metrics['jobs_completed']}"
                f"/{metrics['jobs_submitted']} "
                f"{metrics['jobs_per_sec']:.1f} jobs/s "
                f"p99={metrics['p99_latency_s'] * 1000:.0f}ms "
                f"(virtual p99={metrics['p99_latency_virtual_s']:.3f}s) "
                f"stored={metrics['bytes_stored']}B "
                f"wall={metrics['wall_s']:.2f}s"
            )
            continue
        if "virtual_makespan_s" not in metrics:
            continue  # e.g. a merged dist_storm entry (wall-clock only)
        lines.append(
            f"  {name:<18} makespan={metrics['virtual_makespan_s']:.3f}s "
            f"stored={metrics['bytes_stored']}B in {metrics['objects_stored']} ops "
            f"evictions={metrics['evictions']} "
            f"(clean={metrics['clean_evictions']}) "
            f"overlap={metrics['overlap_pct']}% wall={metrics['wall_s']:.2f}s"
        )
        if "des_events" in metrics:
            lines.append(
                f"  {'':<18} events={metrics['des_events']} "
                f"poll ticks={metrics['poll_ticks']}"
            )
        if "packs" in metrics:
            lines.append(
                f"  {'':<18} packs={metrics['packs']} "
                f"({metrics['pack_time_s']:.3f}s) "
                f"unpacks={metrics['unpacks']} "
                f"({metrics['unpack_time_s']:.3f}s) "
                f"spills delta/full={metrics['delta_spills']}"
                f"/{metrics['full_spills']} "
                f"stored/raw={metrics['stored_ratio']:.2f}"
            )
        if "prefetch_issued" in metrics:
            lines.append(
                f"  {'':<18} loaded={metrics['bytes_loaded']}B "
                f"in {metrics['objects_loaded']} ops "
                f"prefetch issued/hit/wasted="
                f"{metrics['prefetch_issued']}"
                f"/{metrics['prefetch_hits']}"
                f"/{metrics['prefetch_wasted']} "
                f"hit_rate={metrics['prefetch_hit_rate']:.2f} "
                f"pack segs={metrics['pack_segments']} "
                f"compactions={metrics['pack_compactions']}"
            )
        if "ghost_bytes" in metrics:
            lines.append(
                f"  {'':<18} ghost pushes={metrics['ghost_pushes']} "
                f"bytes={metrics['ghost_bytes']} "
                f"installs={metrics['ghost_installs']} "
                f"acks={metrics['ghost_acks']} "
                f"multicast_sends={metrics['multicast_sends']}"
            )
        if "cells_skew" in metrics:
            lines.append(
                f"  {'':<18} cells={metrics['n_cells']} "
                f"splits={metrics['splits']} "
                f"skew={metrics['cells_skew']}x"
            )
        if metrics.get("spec_issued"):
            lines.append(
                f"  {'':<18} spec i/c/a={metrics['spec_issued']}"
                f"/{metrics['spec_committed']}"
                f"/{metrics['spec_aborted']} "
                f"(commit rate={metrics['spec_commit_rate']:.2f}) "
                f"steals={metrics['steals']} "
                f"barrier_idle={metrics['barrier_idle_s']:.3f}s"
            )
    return "\n".join(lines)


def load_baseline(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
