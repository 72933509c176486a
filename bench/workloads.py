"""The seven workloads: closed-form inputs from a seed, one timed run, checks.

Each workload exists because one group of layers dominates its host time
and another group does nothing on it (``why`` below, README for the
measured shares).  A workload has three parts:

* ``inputs(seed, scale)`` — every parameter of the run as a plain dict,
  a pure function of the seed.  The seed jitters sizes and shuffles
  orders, so that no two seeds run the very same input, while the total
  work — and with it every end-to-end metric — stays within a third of
  the metric's bound across seeds.  The jitters are small on purpose: the
  virtual schedule is chaotic in its input (0.2 % more elements move the
  modeled OUPDR makespan by 5 %, see README), and a benchmark whose
  deterministic clock scatters by 5 % over seeds gates nothing.  ``scale`` is
  1.0 for a timed repeat; the warm-up, ``--quick`` and ``--sweep`` use
  other factors.  Sizes are explicit here (never ``perf.py``'s ``scale``)
  and memory budgets sit beside the payload sizes they bound.
* ``run(inputs)`` — calls the program through public functions only and
  returns an :class:`Outcome`: the host seconds of the timed region, the
  seed-exact numbers read from public counters afterwards, and the result
  of the correctness checks, all of which run outside the timed region
  (and outside ``region``, the context the traced child hangs its root
  span on, so that the checks' own loads and unpacks carry no spans).
* ``validate(inputs, outcome)`` — an expensive oracle for the traced
  child only (the two real-mesh workloads rebuild and check the mesh).
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from bench.layers import count_filtered_predicates
from repro import perf
from repro.core.config import MRTSConfig
from repro.core.mobile import MobilePointer
from repro.core.runtime import MRTS
from repro.evalsim.apps import run_pcdm_model, run_updr_model
from repro.geometry import unit_square
from repro.obs.events import EventBus
from repro.pumg.driver import run_updr, sequential_mesh
from repro.serve.admission import AdmissionPolicy
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel
from repro.testing.invariants import check_runtime
from repro.testing.service import ServiceFixture

__all__ = ["Outcome", "Workload", "WORKLOADS", "runtime_counters"]

KiB = 1024
MiB = 1024 * 1024

Observe = Optional[Callable[[MRTS], None]]
Region = Callable[[], contextlib.AbstractContextManager]


@dataclass
class Outcome:
    """What one repeat produced."""

    wall_s: float
    # Pure functions of the seed: virtual time, byte counts, every public
    # counter.  Two repeats of one input must agree on all of them.
    exact: dict
    # Host seconds the program measured itself (RunStats pack/unpack time).
    host: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    # Per-job wall latencies (service workload only).
    latencies: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _jitter(name: str, seed: int, amplitude: float) -> float:
    """1 ± amplitude, a closed-form function of (workload, seed)."""
    u = random.Random(f"{name}:{seed}").uniform(-1.0, 1.0)
    return 1.0 + amplitude * u


def _cluster(n_nodes: int, cores: int, memory_bytes: int) -> ClusterSpec:
    return ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(cores=cores, memory_bytes=int(memory_bytes)),
    )


# ------------------------------------------------------------ counter reads
def runtime_counters(runtimes: list) -> tuple[dict, dict]:
    """(exact counters, host-measured seconds) summed over runtimes.

    Everything here is a public attribute the repo's own reports
    (``perf.py``, the drivers) already read.
    """
    exact = {
        "virtual_makespan_s": 0.0, "bytes_stored": 0, "bytes_loaded": 0,
        "events": 0, "handlers": 0, "msgs_sent": 0, "bytes_sent": 0,
        "multicast_sends": 0, "forwards": 0, "update_messages": 0,
        "evictions": 0, "clean_evictions": 0, "prefetch_issued": 0,
        "prefetch_hits": 0, "prefetch_wasted": 0, "packs": 0, "unpacks": 0,
        "delta_spills": 0, "full_spills": 0, "payload_bytes_raw": 0,
        "payload_bytes_stored": 0, "stores": 0, "loads": 0,
        "bytes_written": 0, "retries": 0, "pack_segments": 0,
        "pack_compactions": 0, "barrier_idle_s": 0.0, "steals": 0,
        "spec_issued": 0, "spec_committed": 0, "spec_aborted": 0,
    }
    host = {"pack_s": 0.0, "unpack_s": 0.0}
    for rt in runtimes:
        st = rt.stats
        exact["virtual_makespan_s"] += st.total_time
        exact["bytes_stored"] += st.bytes_to_disk
        exact["events"] += rt.engine.events_processed
        exact["forwards"] += rt.directory.stats.forwards
        exact["update_messages"] += rt.directory.stats.update_messages
        exact["msgs_sent"] += st.messages_sent
        exact["multicast_sends"] += st.multicast_sends
        exact["packs"] += st.packs
        exact["unpacks"] += st.unpacks
        exact["delta_spills"] += st.delta_spills
        exact["full_spills"] += st.full_spills
        exact["payload_bytes_raw"] += st.payload_bytes_raw
        exact["payload_bytes_stored"] += st.payload_bytes_stored
        exact["prefetch_issued"] += st.prefetch_issued
        exact["prefetch_hits"] += st.prefetch_hits
        exact["prefetch_wasted"] += st.prefetch_wasted
        exact["retries"] += st.storage_retries
        exact["barrier_idle_s"] += st.barrier_idle_s
        exact["steals"] += st.steals
        exact["spec_issued"] += st.spec_issued
        exact["spec_committed"] += st.spec_committed
        exact["spec_aborted"] += st.spec_aborted
        for ns in st.nodes:
            exact["bytes_loaded"] += ns.bytes_loaded
            exact["handlers"] += ns.handlers_run
            exact["bytes_sent"] += ns.bytes_sent
        for nrt in rt.nodes:
            exact["evictions"] += nrt.ooc.evictions
            exact["clean_evictions"] += nrt.ooc.clean_evictions
            exact["stores"] += nrt.storage.stores
            exact["loads"] += nrt.storage.loads
            exact["bytes_written"] += nrt.storage.bytes_written
            if nrt.packfile is not None:
                layout = nrt.packfile.stats()
                exact["pack_segments"] += layout["segments"]
                exact["pack_compactions"] += layout["compactions"]
        host["pack_s"] += st.pack_time
        host["unpack_s"] += st.unpack_time
    return exact, host


_LOCKED = "still locked at quiescence"


def _check_runtime(out: Outcome, rt: MRTS, app_locks: int) -> None:
    """``check_runtime`` minus the locks the drivers hold on purpose.

    The drivers pin their coordinator (and UPDR its boundary registry) in
    core for the whole run, as the paper's §III does; at quiescence the
    checker reports exactly those as still locked.
    """
    problems = check_runtime(rt)
    locked = [p for p in problems if p.endswith(_LOCKED)]
    others = [p for p in problems if not p.endswith(_LOCKED)]
    out.check(rt.termination.quiescent, "runtime not quiescent at the end")
    out.check(not others, f"invariant violations: {others[:3]}")
    out.check(
        len(locked) == app_locks,
        f"{len(locked)} objects locked at quiescence, the driver holds "
        f"{app_locks}",
    )


def _objects(rt: MRTS):
    """Every live mobile object (loads spilled ones: call after reading
    the counters)."""
    for oid in sorted(rt.directory.truth):
        yield rt.get_object(MobilePointer(oid))


# ================================================================ workloads
class Workload:
    name = ""
    why = ""
    # Share of a timed repeat's size used for the warm-up.
    warm_scale = 0.1
    # Untraced repeats the traced child runs at least.
    trace_min_repeats = 2

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        raise NotImplementedError

    def validate(self, inputs: dict, outcome: Outcome) -> None:
        """Expensive oracle, traced child only; default: nothing more."""

    def extras(self, inputs: dict, wall_s: float, traced: dict) -> dict:
        """Per-layer metrics that need a pass of their own (traced child
        only): ``wall_s`` is the untraced median, ``traced`` the span
        metrics of a traced repeat."""
        return {}


class ModelWorkload(Workload):
    """``evalsim.apps`` modeled runs: empty handler bodies, real runtime.

    Memory stays at 8 MiB per node whatever the scale: the drivers cut
    the domain so that a subdomain is a fixed fraction of node memory,
    so more elements mean more mobile objects of the same size — and
    more host work — not bigger ones.
    """

    warm_scale = 0.15
    memory_bytes = 8 * MiB
    base_elements = 0
    jitter = 0.0
    app_locks = 0

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        elements = int(
            self.base_elements * scale * _jitter(self.name, seed, self.jitter))
        return {"seed": seed, "total_elements": elements,
                "n_nodes": 2, "cores": 2, "memory_bytes": self.memory_bytes}

    def _run_model(self, inputs: dict, cluster: ClusterSpec, observe: Observe):
        raise NotImplementedError

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        cluster = _cluster(
            inputs["n_nodes"], inputs["cores"], inputs["memory_bytes"])
        with region():
            t0 = time.perf_counter()
            result = self._run_model(inputs, cluster, observe)
            wall = time.perf_counter() - t0
        rt = result.runtime
        exact, host = runtime_counters([rt])
        out = Outcome(wall, exact, host)
        _check_runtime(out, rt, self.app_locks)
        regions = [o for o in _objects(rt) if hasattr(o, "target")]
        exact["regions"] = len(regions)
        out.check(
            bool(regions) and all(
                o.round == o.rounds and o.elements == o.target
                for o in regions),
            "a modeled region did not reach its final round and density",
        )
        return out


class OUPDRModel(ModelWorkload):
    name = "oupdr_model"
    why = ("modeled OUPDR, speculation and stealing on: empty handlers, so "
           "host time is sim.engine plus core.runtime dispatch; mesh and "
           "codec idle")
    base_elements = 600_000
    jitter = 1e-4
    app_locks = 1  # the color-phase coordinator

    def _run_model(self, inputs, cluster, observe):
        config = MRTSConfig(
            prefetch_depth=3, speculation=True, work_stealing=True)
        return run_updr_model(
            inputs["total_elements"], cluster, mrts=True, config=config,
            on_runtime=observe)


    def extras(self, inputs: dict, wall_s: float, traced: dict) -> dict:
        """What watching costs: one repeat with a ring subscriber on the
        runtime's event bus, against the unwatched median."""
        subs = []
        out = self.run(
            inputs, observe=lambda rt: subs.append(
                rt.bus.subscribe(capacity=4096)))
        emitted = sum(len(s.events) + s.dropped for s in subs)
        return {
            "obs.bus_overhead_pct": 100.0 * (out.wall_s - wall_s) / wall_s,
            "obs.events_emitted": emitted,
        }


class OPCDMModel(ModelWorkload):
    name = "opcdm_model"
    why = ("modeled OPCDM, default knobs: many objects and small async "
           "messages, so core.ooc planning and the core.control ready queue "
           "lead; the engine does little")
    base_elements = 2_000_000
    jitter = 5e-5

    def _run_model(self, inputs, cluster, observe):
        return run_pcdm_model(inputs["total_elements"], cluster, mrts=True)


class UPDRMesh(Workload):
    """Real UPDR meshing of the unit square on 4x4 blocks."""

    warm_scale = 0.2
    base_h = 0.05
    memory_bytes = 64 * MiB

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        # Element count goes with 1/h^2.  Both real-mesh workloads jitter
        # alike, so equal seeds mesh the very same input in and out of core.
        h = self.base_h / scale ** 0.5 * _jitter("updr_mesh", seed, 2e-4)
        return {"seed": seed, "h": h, "nx": 4, "ny": 4, "n_nodes": 2,
                "cores": 1, "memory_bytes": self.memory_bytes,
                "handler_cost_s": 1e-4}

    def _updr(self, inputs: dict, validate: bool, observe: Observe = None):
        return run_updr(
            unit_square(), h=inputs["h"], nx=inputs["nx"], ny=inputs["ny"],
            cluster=_cluster(
                inputs["n_nodes"], inputs["cores"], inputs["memory_bytes"]),
            cost_model=FixedCostModel(inputs["handler_cost_s"]),
            validate=validate, on_runtime=observe,
        )

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        with region():
            t0 = time.perf_counter()
            result = self._updr(inputs, validate=False, observe=observe)
            wall = time.perf_counter() - t0
        exact, host = runtime_counters([result.runtime])
        exact["n_points"] = result.n_points
        out = Outcome(wall, exact, host)
        _check_runtime(out, result.runtime, app_locks=2)
        # A uniform mesh of edge h has about 2/(sqrt(3) h^2) points per
        # unit area; a run far below that refined nothing.
        out.check(result.n_points > 0.3 / inputs["h"] ** 2,
                  f"only {result.n_points} mesh points for h={inputs['h']}")
        return out

    def validate(self, inputs: dict, outcome: Outcome) -> None:
        result = self._updr(inputs, validate=True)
        quality = result.quality
        outcome.check(result.n_points == outcome.exact["n_points"],
                      "validated run has another point count than the "
                      "timed repeats")
        outcome.check(quality.min_angle_deg >= 20.0,
                      f"min angle {quality.min_angle_deg:.2f} deg below 20")
        outcome.check(abs(quality.total_area - 1.0) <= 1e-9,
                      f"mesh area {quality.total_area!r} is not 1")

    def extras(self, inputs: dict, wall_s: float, traced: dict) -> dict:
        # The float-filtered predicates are counted in a pass of their
        # own; the traced repeat timed only their exact fallbacks.
        counter = count_filtered_predicates()
        try:
            self._updr(inputs, validate=False)
        finally:
            counter.uninstall()
        filtered = sum(counter.calls.values())
        # The plain single-threaded mesher on the same PSLG and sizing.
        baseline = []
        for _ in range(3):
            t0 = time.perf_counter()
            sequential_mesh(unit_square(), ("uniform", inputs["h"]))
            baseline.append(time.perf_counter() - t0)
        seq_s = sorted(baseline)[1]
        return {
            "geometry.predicates.exact_fallback_ratio":
                traced["geometry.predicates.exact_calls"] / max(filtered, 1),
            "mesh.refine.seq_baseline_s": seq_s,
            "pumg.overhead_vs_seq_x": wall_s / seq_s,
        }


class UPDRMeshInCore(UPDRMesh):
    name = "updr_mesh_incore"
    why = ("real UPDR with 64 MiB per node: nothing spills, geometry and "
           "mesh are ~all host time; every OOC, storage, codec or engine "
           "optimisation must predict no change here")

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        inputs = super().inputs(seed, scale)
        # Nothing else moves this workload's virtual clock from seed to
        # seed (same handlers, same message sizes), so the modeled handler
        # cost jitters by 0.2 %.  Out of core the same jitter would break
        # event-time ties and with them the mesh (README, defects).
        inputs["handler_cost_s"] *= _jitter(self.name, seed, 2e-3)
        return inputs


class UPDRMeshOOC(UPDRMesh):
    name = "updr_mesh_ooc"
    why = ("the same mesh at 64 KiB per node: the paper's experiment, same "
           "code memory-starved; patches cross the mesh-patch codec and are "
           "rebuilt on reload")
    memory_bytes = 64 * KiB

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        inputs = super().inputs(seed, scale)
        # The patches grow with the point count, the budget with them.
        inputs["memory_bytes"] = int(self.memory_bytes * max(scale, 0.25))
        return inputs

    def extras(self, inputs: dict, wall_s: float, traced: dict) -> dict:
        out = super().extras(inputs, wall_s, traced)
        # One in-core run of the very same input gives the OOC penalty.
        roomy = dict(inputs, memory_bytes=UPDRMesh.memory_bytes)
        t0 = time.perf_counter()
        self._updr(roomy, validate=False)
        out["pumg.ooc_penalty_x"] = wall_s / (time.perf_counter() - t0)
        return out


class PatchSpillStream(Workload):
    name = "patch_spill_stream"
    why = ("append-mostly mesh patches on a starved cluster: every eviction "
           "is dirty, so core.codec and the core.storage write path (delta "
           "spills, compression, CRC frames) lead")

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        # Patch size and the budget that bounds it scale together: 48
        # patches of 64 -> 128 KiB against 1 MiB per node at scale 1.
        return {"seed": seed, "n_actors": 48,
                "initial_points": int(4096 * scale), "rounds": 4,
                "append_per_round": int(1024 * scale), "n_nodes": 2,
                "memory_bytes": int(1 * MiB * scale)}

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        with region():
            result = perf.run_mesh_patch_stream(
                seed=inputs["seed"], n_actors=inputs["n_actors"],
                initial_points=inputs["initial_points"],
                rounds=inputs["rounds"],
                append_per_round=inputs["append_per_round"],
                n_nodes=inputs["n_nodes"],
                memory_bytes=inputs["memory_bytes"], on_runtime=observe,
            )
        rt = result.runtime
        exact, host = runtime_counters([rt])
        out = Outcome(result.wall_s, exact, host)
        _check_runtime(out, rt, app_locks=0)
        want = (inputs["initial_points"]
                + inputs["rounds"] * inputs["append_per_round"])
        actors = [o for o in _objects(rt)
                  if isinstance(o, perf.PatchStreamActor)]
        out.check(len(actors) == inputs["n_actors"]
                  and all(len(a.points) == want for a in actors),
                  f"a patch actor does not hold {want} points")
        return out


class CleanReadSweep(Workload):
    name = "clean_read_sweep"
    why = ("read-side twin of patch_spill_stream: no packs, only clean "
           "evictions and loads with prefetch and pack-file batch reads; "
           "runtime load path, storage, ooc and engine share the time")

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        # 256 clean patches of 64 KiB against 2 MiB: the grid overflows
        # core eightfold.  Work goes with the number of laps.
        return {"seed": seed, "side": 16, "payload_bytes": 64 * KiB,
                "laps": max(2, round(20 * scale)), "memory_bytes": 2 * MiB}

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        with region():
            result = perf.run_mesh_neighborhood_sweep(
                seed=inputs["seed"], side=inputs["side"],
                payload_bytes=inputs["payload_bytes"], laps=inputs["laps"],
                memory_bytes=inputs["memory_bytes"], on_runtime=observe,
            )
        rt = result.runtime
        exact, host = runtime_counters([rt])
        out = Outcome(result.wall_s, exact, host)
        _check_runtime(out, rt, app_locks=0)
        # One probe per patch per lap, then the shuffled flood of one
        # probe per patch; a lost message would leave a handler unrun.
        want = (inputs["laps"] + 1) * inputs["side"] ** 2
        out.check(exact["handlers"] == want,
                  f"{exact['handlers']} probes ran, {want} were sent")
        out.check(exact["packs"] == 0 or exact["clean_evictions"] > 0,
                  "the sweep made no clean eviction")
        return out


_SMALL_JOBS = (
    dict(method="updr", geometry="unit_square", h=0.18, nx=2, ny=2,
         memory_bytes=256 * KiB),
    dict(method="updr", geometry="circle", h=0.25, nx=2, ny=2,
         memory_bytes=64 * KiB),
    dict(method="nupdr", geometry="unit_square", h=0.22, granularity=4.0,
         memory_bytes=256 * KiB),
    dict(method="pcdm", geometry="unit_square", h=0.18, n_parts=2,
         memory_bytes=256 * KiB),
    dict(method="pcdm", geometry="circle", h=0.3, n_parts=2,
         memory_bytes=256 * KiB),
)
# The memory-starved job of each tenant: 48 KiB per node, so it spills.
_ELEPHANT = dict(method="updr", geometry="unit_square", h=0.12, nx=3, ny=3,
                 n_nodes=2, memory_bytes=48 * KiB)


class ServiceClosedLoop(Workload):
    name = "service_closed_loop"
    why = ("repro.serve with 2 workers and 2 tenants, each a closed loop "
           "(submit, wait, fetch, next): protocol, admission, jobs and "
           "checkpointing on top of the runtime")
    warm_scale = 0.2
    # 12 jobs a repeat: five repeats give the 60 latency samples that
    # leave ten beyond the 80th percentile.
    trace_min_repeats = 5
    n_tenants = 2
    workers = 2

    def inputs(self, seed: int, scale: float = 1.0) -> dict:
        """Per tenant: every small template ``rounds`` times in a seeded
        order, with one elephant at a seeded position.  The mix is fixed
        so that total work hardly moves with the seed.  The small jobs'
        sizes jitter by 1 %, which moves a mesh or two to a neighbouring
        point count; the elephants, whose out-of-core schedule is chaotic
        in its input, by 0.02 %."""
        rounds = max(1, round(scale))
        scripts = []
        for t in range(self.n_tenants):
            rng = random.Random(f"{self.name}:{seed}:{t}")
            bodies = [dict(job) for job in _SMALL_JOBS * rounds]
            rng.shuffle(bodies)
            if scale >= 0.5:
                bodies.insert(rng.randrange(len(bodies) + 1), dict(_ELEPHANT))
            for body in bodies:
                amplitude = 2e-4 if body["h"] == _ELEPHANT["h"] else 1e-2
                body["h"] *= 1.0 + amplitude * rng.uniform(-1.0, 1.0)
                body["tenant"] = f"tenant-{t}"
                body["seed"] = seed
            scripts.append(bodies)
        return {"seed": seed, "scripts": scripts, "workers": self.workers,
                "soft_residency_bytes": 4 * MiB,
                "hard_residency_bytes": 8 * MiB,
                "tenant_quota_bytes": 512 * MiB}

    def run(self, inputs: dict, observe: Observe = None,
            region: Region = contextlib.nullcontext) -> Outcome:
        policy = AdmissionPolicy(
            soft_residency_bytes=inputs["soft_residency_bytes"],
            hard_residency_bytes=inputs["hard_residency_bytes"],
            tenant_quota_bytes=inputs["tenant_quota_bytes"],
        )
        scripts = inputs["scripts"]
        done: list = [[] for _ in scripts]   # per tenant: (status, result)
        errors: list = []
        bus = EventBus()
        deferred = []
        sub = bus.subscribe(
            kinds=("job",),
            callback=lambda ev: ev.phase == "queued" and deferred.append(ev),
        )

        def tenant(idx: int, svc: ServiceFixture) -> None:
            try:
                with svc.client(timeout=120.0) as client:
                    for body in scripts[idx]:
                        job_id = client.submit(body)["job_id"]
                        status = client.wait(
                            job_id, timeout=120.0, poll_s=0.002)
                        result = (client.result(job_id)
                                  if status["state"] == "finished" else None)
                        done[idx].append((job_id, status, result))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                errors.append(f"tenant {idx}: {type(exc).__name__}: {exc}")

        t0 = time.perf_counter()
        with region(), ServiceFixture(
                policy=policy, workers=inputs["workers"], bus=bus,
                keep_runtimes=True) as svc:
            threads = [
                threading.Thread(target=tenant, args=(i, svc),
                                 name=f"bench-tenant-{i}")
                for i in range(len(scripts))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150.0)
            wall = time.perf_counter() - t0
            alive = [t.name for t in threads if t.is_alive()]
            # The server keeps each finished job's runtime for us: the
            # job results round the virtual makespan to a microsecond,
            # the runtimes hold it and every layer counter in full.
            runtimes = [
                svc.manager.get(job_id).runner.runtime
                for jobs in done for job_id, status, _ in jobs
                if status["state"] == "finished"
            ]
        sub.close()

        jobs = [job for tenant_jobs in done for job in tenant_jobs]
        results = [r for _, _, r in jobs if r is not None]
        # Per-job virtual schedules are untouched by thread interleaving,
        # so their sums are exact; the digest pins every job's final mesh.
        exact, host = runtime_counters(runtimes)
        exact.update(
            n_points=sum(r["n_points"] for r in results),
            jobs=len(jobs),
            state_digest=hashlib.sha256("".join(
                r["state_digest"] for r in results).encode()).hexdigest(),
        )
        out = Outcome(wall, exact, host)
        out.host["admission_deferrals"] = len(deferred)
        out.latencies = [s["latency_s"] for _, s, _ in jobs
                         if s.get("latency_s") is not None]
        n_jobs = sum(len(s) for s in scripts)
        out.check(not errors and not alive,
                  f"tenant threads failed: {errors or alive}")
        out.check(len(jobs) == n_jobs,
                  f"{len(jobs)} of {n_jobs} jobs reached a terminal state")
        for job_id, status, _ in jobs:
            out.check(status["state"] == "finished",
                      f"{job_id} ended {status['state']!r}")
            out.check(not status["invariant_violations"],
                      f"{job_id}: {status['invariant_violations']} "
                      "invariant violations")
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        OUPDRModel(), OPCDMModel(), UPDRMeshInCore(), UPDRMeshOOC(),
        PatchSpillStream(), CleanReadSweep(), ServiceClosedLoop(),
    )
}
