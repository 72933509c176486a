"""Phase-sliced mesh jobs: the unit of work the service schedules.

A job is one PUMG run (UPDR / NUPDR / PCDM / mesh3d) described by a
wire-safe :class:`JobSpec`.  The stock drivers run each method's scenario
(:mod:`repro.pumg.scenario`) in one call; the service runs the same
scenario cut into *phases* with real boundaries between them, because a
boundary is where everything multi-tenant happens:

* the job manager takes a :func:`repro.core.checkpoint.checkpoint` (a
  quiescent cut — no pending messages, no in-flight handlers), so a
  preempted or crashed job resumes from its last boundary;
* cross-layer invariants are checked (:func:`check_runtime`) and
  recorded, which is what the soak test asserts per phase;
* residency and spilled-byte accounting is sampled and fed to the
  admission controller / tenant quota ledger.

The phase structure is the drivers': a build+wire phase, then
convergence sweeps (or PCDM's single meshing phase); the runner adds
only what belongs to a *job* — the phase counter, the kill window, the
snapshot/resume manifest and the violations list.  Because phases start
from quiescent cuts, a resumed run
re-executes only whole phases — and the final state equals the
uninterrupted run's, which the ``serve-kill-midjob`` chaos cell pins.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional

from repro.core.checkpoint import Checkpoint, checkpoint, restore
from repro.core.runtime import MRTS
from repro.geometry import shapes
from repro.mesh3d.driver import Mesh3DScenario
from repro.pumg.nupdr import ONUPDROptions
from repro.pumg.scenario import (
    MeshScenario,
    NUPDRScenario,
    PCDMScenario,
    UPDRScenario,
)
from repro.serve.protocol import ProtocolError
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.invariants import check_runtime

__all__ = [
    "GEOMETRIES",
    "METHODS",
    "JobSpec",
    "JobSpecError",
    "JobKilled",
    "JobCheckpoint",
    "MeshJobRunner",
    "run_job_solo",
]

# Canned domains a request may name.  Factories take no arguments so a
# geometry name alone pins the domain bit-for-bit.
GEOMETRIES: dict[str, Callable] = {
    "unit_square": shapes.unit_square,
    "circle": lambda: shapes.circle_domain(24),
    "pipe": shapes.pipe_cross_section,
    "plate_with_holes": shapes.plate_with_holes,
    "key": shapes.key_domain,
    "gear": shapes.gear_domain,
}

# Method name -> the scenario a spec of that method describes.
SCENARIOS: dict[str, Callable[["JobSpec"], MeshScenario]] = {
    "updr": lambda s: UPDRScenario(
        GEOMETRIES[s.geometry](), s.h, s.nx, s.ny, s.coarse_factor,
        s.ghost_sync),
    "nupdr": lambda s: NUPDRScenario(
        GEOMETRIES[s.geometry](), ("uniform", s.h), s.granularity,
        ONUPDROptions(ghost_sync=s.ghost_sync), s.coarse_factor),
    "pcdm": lambda s: PCDMScenario(
        GEOMETRIES[s.geometry](), s.h, s.n_parts, ghost_sync=s.ghost_sync),
    # Geometry is 2D-only, so mesh3d jobs always mesh the canonical box.
    "mesh3d": lambda s: Mesh3DScenario(
        ("layered", s.h, min(1.0, 4.0 * s.h)), s.nx, s.ny, s.nz),
}

METHODS = tuple(SCENARIOS)


_KIND_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}


class JobSpecError(ProtocolError):
    """An inadmissible job description (subclass of the wire error)."""

    def __init__(self, message: str) -> None:
        super().__init__("bad_job", message)


@dataclass(frozen=True)
class JobSpec:
    """A wire-safe, fully deterministic description of one mesh job.

    Everything that affects the produced mesh is here, so *spec equality
    implies state equality*: running the same spec twice — solo, under
    the service, or resumed from a checkpoint — lands on the same final
    point sets.  ``memory_bytes`` is the per-node budget of the job's
    own MRTS; ``n_nodes * memory_bytes`` is the residency envelope the
    admission controller reserves for it.
    """

    method: str = "updr"
    geometry: str = "unit_square"
    h: float = 0.15                 # target edge length (uniform sizing)
    nx: int = 2                     # UPDR block grid
    ny: int = 2
    nz: int = 1                     # mesh3d grid depth
    granularity: float = 4.0        # NUPDR quadtree granularity
    n_parts: int = 2                # PCDM partition count
    ghost_sync: bool = False        # ghost-layer exchange (repro.pumg.ghost)
    tenant: str = "default"
    seed: int = 0
    n_nodes: int = 2
    cores: int = 2
    memory_bytes: int = 1 << 20
    max_sweeps: int = 8
    coarse_factor: float = 2.0
    checkpoint_every: int = 1       # boundaries between snapshots; 0 = off
    validate: bool = False          # compute final mesh quality on finish

    # Admission-relevant bounds: a request outside these is rejected at
    # the protocol layer, before any memory is reserved.
    _BOUNDS = {
        "h": (0.02, 1.0),
        "nx": (1, 8),
        "ny": (1, 8),
        "nz": (1, 8),
        "granularity": (1.0, 64.0),
        "n_parts": (1, 8),
        "n_nodes": (1, 8),
        "cores": (1, 8),
        "memory_bytes": (16 * 1024, 1 << 30),
        "max_sweeps": (1, 16),
        "coarse_factor": (1.0, 8.0),
        "checkpoint_every": (0, 64),
    }

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise JobSpecError(
                f"unknown method {self.method!r} (choose from {METHODS})"
            )
        if self.geometry not in GEOMETRIES:
            raise JobSpecError(
                f"unknown geometry {self.geometry!r} "
                f"(choose from {tuple(GEOMETRIES)})"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise JobSpecError("tenant must be a non-empty string")
        for name, (lo, hi) in self._BOUNDS.items():
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise JobSpecError(f"{name} must be a number")
            if not lo <= value <= hi:
                raise JobSpecError(
                    f"{name}={value!r} outside the admissible [{lo}, {hi}]"
                )

    @property
    def estimated_bytes(self) -> int:
        """Residency envelope: the most core this job's runtime can pin."""
        return int(self.n_nodes) * int(self.memory_bytes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_request(cls, payload: dict) -> "JobSpec":
        """Build a spec from an untrusted request body (whitelist keys)."""
        if not isinstance(payload, dict):
            raise JobSpecError("job must be a JSON object")
        kinds = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(payload) - set(kinds)
        if unknown:
            raise JobSpecError(f"unknown job fields: {sorted(unknown)}")
        for key, value in payload.items():
            # Floats may arrive as JSON integers; __post_init__ checks
            # them as numbers.  type(), not isinstance: True is no integer.
            if kinds[key] is not float and type(value) is not kinds[key]:
                raise JobSpecError(
                    f"{key} must be {_KIND_NAMES[kinds[key]]}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise JobSpecError(str(exc)) from exc


class JobKilled(Exception):
    """The runtime died mid-phase (injected by chaos or a preemption)."""


@dataclass
class JobCheckpoint:
    """Everything needed to resume a job from its last phase boundary.

    The heavy part is the framed :class:`~repro.core.checkpoint.
    Checkpoint` bytes; the light part is the runner's loop state (which
    boundary we reached, the convergence counter) and the role manifest
    mapping decomposition ids back to object ids, since pointers do not
    survive a process death but oids do.
    """

    spec: dict
    phase: int
    last_count: int
    converged: bool
    manifest: dict  # role -> oid; roles: "master", "registry", "region:<id>"
    snapshot: bytes = field(repr=False)


class MeshJobRunner:
    """One job's phase-sliced execution on its own MRTS instance.

    Lifecycle: :meth:`start` (build + wire, first boundary), then
    :meth:`step` until it returns True (converged), then
    :meth:`result_summary` / :meth:`final_state`.  ``snapshot()`` is
    legal at any boundary; :meth:`resume` rebuilds a runner from one.

    The runner records cross-layer invariant violations at every
    boundary in :attr:`violations` — application-held locks (the
    coordinator and boundary registry are pinned for the whole run, as
    in the paper's §III) are exempted from the quiescence lock check.
    """

    def __init__(self, spec: JobSpec, bus=None,
                 cost: float = 1e-4) -> None:
        self.spec = spec
        self.bus = bus
        self.cost = cost
        self.scenario = SCENARIOS[spec.method](spec)
        self.runtime: Optional[MRTS] = None
        self.phase = 0            # completed phase boundaries
        self.converged = False
        self.violations: list[str] = []
        self._last_count = -1
        self._in_phase = False

    def _build_runtime(self) -> MRTS:
        from repro.testing.harness import FixedCostModel

        spec = self.spec
        return MRTS(
            ClusterSpec(
                n_nodes=spec.n_nodes,
                node=NodeSpec(cores=spec.cores,
                              memory_bytes=spec.memory_bytes),
            ),
            cost_model=FixedCostModel(self.cost),
            bus=self.bus,
        )

    # ------------------------------------------------------------ phases
    def start(self) -> None:
        """Build the decomposition and wire the objects (boundary 0->1)."""
        if self.runtime is not None:
            raise JobSpecError("job already started")
        self.runtime = self._build_runtime()
        self.scenario.start(self.runtime)
        self._check_boundary()
        self.phase = 1

    @property
    def max_phases(self) -> int:
        """Boundaries after which the job is declared done regardless."""
        return 1 + self.spec.max_sweeps

    def begin_phase(self) -> None:
        """Post the next phase's work without draining it (kill window)."""
        if self.runtime is None:
            raise JobSpecError("job not started")
        if self._in_phase:
            raise JobSpecError("phase already in progress")
        if self.converged:
            raise JobSpecError("job already converged")
        self.scenario.post_phase(self.runtime)
        self._in_phase = True

    def finish_phase(self) -> bool:
        """Drain the phase to quiescence; returns True once converged."""
        if not self._in_phase:
            raise JobSpecError("no phase in progress")
        self.runtime.run()
        self._in_phase = False
        after = self.scenario.count(self.runtime)
        self.converged = self.scenario.converged(self._last_count, after)
        self._last_count = after
        self.phase += 1
        if not self.converged and self.phase >= self.max_phases:
            self.converged = True  # sweep cap: declare done, record count
        self._check_boundary()
        return self.converged

    def step(self) -> bool:
        """One whole phase: post, drain, account.  True once converged."""
        self.begin_phase()
        return self.finish_phase()

    def run_to_completion(
        self, kill_phase: Optional[int] = None, kill_dt: float = 0.01
    ) -> "MeshJobRunner":
        """Drive start + sweeps to convergence.

        ``kill_phase`` injects a mid-phase crash: when the boundary count
        reaches it, the next phase is *started* but abandoned ``kill_dt``
        virtual seconds in, and :class:`JobKilled` is raised — the
        runtime is torn down exactly as a preemption would leave it,
        with the last boundary's checkpoint as the only survivor.
        """
        if self.runtime is None:
            self.start()
        while not self.converged:
            if kill_phase is not None and self.phase >= kill_phase:
                self.begin_phase()
                self.runtime.run(until=self.runtime.engine.now + kill_dt)
                raise JobKilled(
                    f"killed mid-phase after boundary {self.phase}"
                )
            self.step()
        return self

    def _check_boundary(self) -> None:
        problems = check_runtime(self.runtime)
        problems += self.scenario.boundary_problems(
            self.runtime, self.converged
        )
        app_locked = self.scenario.app_locked
        for problem in problems:
            if any(f"object {oid} still locked at quiescence" in problem
                   for oid in app_locked):
                continue  # the paper pins coordinator/registry for the run
            self.violations.append(f"phase {self.phase}: {problem}")

    # ------------------------------------------------- checkpoint/resume
    def snapshot(self) -> JobCheckpoint:
        """Snapshot at the current boundary (illegal mid-phase)."""
        if self.runtime is None or self._in_phase:
            raise JobSpecError("snapshot is only legal at a phase boundary")
        scenario = self.scenario
        manifest: dict[str, int] = {
            f"region:{rid}": ptr.oid for rid, ptr in scenario.regions.items()
        }
        if scenario.master is not None:
            manifest["master"] = scenario.master.oid
        if scenario.registry is not None:
            manifest["registry"] = scenario.registry.oid
        return JobCheckpoint(
            spec=self.spec.to_dict(),
            phase=self.phase,
            last_count=self._last_count,
            converged=self.converged,
            manifest=manifest,
            snapshot=checkpoint(self.runtime).to_bytes(),
        )

    @classmethod
    def resume(cls, ckpt: JobCheckpoint, bus=None,
               cost: float = 1e-4) -> "MeshJobRunner":
        """Rebuild a runner on a fresh runtime from a boundary snapshot."""
        runner = cls(JobSpec(**ckpt.spec), bus=bus, cost=cost)
        runner.runtime = runner._build_runtime()
        pointers = restore(
            Checkpoint.from_bytes(ckpt.snapshot), runner.runtime
        )
        scenario = runner.scenario
        for role, oid in ckpt.manifest.items():
            if oid not in pointers:
                raise JobSpecError(
                    f"checkpoint manifest names oid {oid} ({role}) "
                    "missing from the snapshot"
                )
            if role == "master":
                scenario.master = pointers[oid]
            elif role == "registry":
                scenario.registry = pointers[oid]
            else:
                scenario.regions[int(role.split(":", 1)[1])] = pointers[oid]
        scenario.regions = dict(sorted(scenario.regions.items()))
        runner.phase = ckpt.phase
        runner._last_count = ckpt.last_count
        runner.converged = ckpt.converged
        return runner

    # ------------------------------------------------------------ output
    def final_state(self) -> tuple:
        """The scenario's canonical witness of the produced mesh."""
        return self.scenario.witness(self.runtime)

    def state_digest(self) -> str:
        """Stable hex digest of :meth:`final_state` for wire replies."""
        return hashlib.sha256(
            repr(self.final_state()).encode("utf-8")
        ).hexdigest()

    def residency_bytes(self) -> int:
        if self.runtime is None:
            return 0
        return sum(n.ooc.memory_used for n in self.runtime.nodes)

    def stored_bytes(self) -> int:
        """Bytes this job has spilled to the medium (eviction accounting)."""
        if self.runtime is None:
            return 0
        return self.runtime.stats.bytes_to_disk

    def result_summary(self) -> dict:
        stats = self.runtime.stats
        summary = {
            "method": self.spec.method,
            "geometry": self.spec.geometry,
            "n_points": self._last_count,
            "phases": self.phase,
            "converged": self.converged,
            "virtual_makespan_s": round(stats.total_time, 6),
            "bytes_stored": stats.bytes_to_disk,
            "bytes_loaded": sum(n.bytes_loaded for n in stats.nodes),
            "state_digest": self.state_digest(),
            "invariant_violations": len(self.violations),
        }
        if self.spec.validate:
            summary.update(self.scenario.validation_summary(self.runtime))
        return summary


def run_job_solo(spec: JobSpec, bus=None) -> MeshJobRunner:
    """The solo-run reference: same runner, no service in the loop."""
    runner = MeshJobRunner(spec, bus=bus)
    runner.run_to_completion()
    return runner
