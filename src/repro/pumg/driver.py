"""End-to-end drivers for the six PUMG variants.

Each driver makes an MRTS instance, runs its method's scenario
(:mod:`repro.pumg.scenario`) on it to convergence, and returns a
:class:`PUMGResult` with the runtime statistics and enough state to
validate the produced mesh.

"In-core" vs "out-of-core" is purely a function of the cluster spec's
per-node memory: the paper's OUPDR/ONUPDR/OPCDM are the same applications
with the out-of-core machinery engaged, which here simply means the node
memory budget is small enough that the OOC layer must spill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MRTSConfig
from repro.core.runtime import MRTS, CostModel
from repro.core.stats import RunStats
from repro.core.storage import StorageBackend
from repro.geometry.pslg import PSLG
from repro.mesh.quality import MeshQuality
from repro.mesh.refine import refine
from repro.mesh.sizing import sizing_from_spec
from repro.mesh.triangulation import Triangulation, triangulate_pslg
from repro.pumg.nupdr import ONUPDROptions
from repro.pumg.scenario import (
    MeshScenario,
    NUPDRScenario,
    PCDMScenario,
    UPDRScenario,
    run_phases,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec

__all__ = [
    "PUMGResult",
    "default_cluster",
    "make_runtime",
    "sequential_mesh",
    "run_updr",
    "run_nupdr",
    "run_pcdm",
]


@dataclass
class PUMGResult:
    """Outcome of one PUMG run."""

    method: str
    stats: RunStats
    n_points: int
    n_triangles: int
    runtime: MRTS = field(repr=False)
    scenario: MeshScenario = field(repr=False)
    final_mesh: Optional[Triangulation] = field(default=None, repr=False)
    quality: Optional[MeshQuality] = None
    extras: dict = field(default_factory=dict)


def default_cluster(
    n_nodes: int = 2, cores: int = 2, memory_bytes: int = 1 << 26
) -> ClusterSpec:
    """A small test cluster; shrink ``memory_bytes`` to force out-of-core."""
    return ClusterSpec(
        n_nodes=n_nodes, node=NodeSpec(cores=cores, memory_bytes=memory_bytes)
    )


def sequential_mesh(pslg: PSLG, sizing_spec: tuple) -> Triangulation:
    """The sequential baseline: plain Ruppert refinement of the PSLG."""
    tri = triangulate_pslg(pslg)
    refine(tri, sizing=sizing_from_spec(sizing_spec))
    return tri


def make_runtime(
    cluster: Optional[ClusterSpec],
    config: Optional[MRTSConfig],
    storage_factory: Optional[Callable[[int], StorageBackend]],
    cost_model: Optional[CostModel],
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> MRTS:
    """The runtime a driver runs on.  ``on_runtime`` is the observer hook
    (perf/trace tooling): called before any objects exist so event-bus
    subscribers see the whole run."""
    rt = MRTS(
        cluster or default_cluster(),
        config=config or MRTSConfig(),
        storage_factory=storage_factory,
        cost_model=cost_model,
    )
    if on_runtime is not None:
        on_runtime(rt)
    return rt


def _run_regions(scenario, rt: MRTS, validate: bool) -> PUMGResult:
    """The shared tail of the two PDR drivers: sweep, stitch, report."""
    stats = run_phases(rt, scenario)
    points, mesh, quality, fixup = scenario.stitch(rt, validate)
    return PUMGResult(
        method=scenario.method,
        stats=stats,
        n_points=len(points),
        n_triangles=mesh.n_triangles if mesh else 0,
        runtime=rt,
        scenario=scenario,
        final_mesh=mesh,
        quality=quality,
        extras=dict(scenario.extras(rt), fixup_points=fixup),
    )


# =============================================================== UPDR/OUPDR
def run_updr(
    pslg: PSLG,
    h: float,
    nx: int = 3,
    ny: int = 3,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[MRTSConfig] = None,
    storage_factory: Optional[Callable[[int], StorageBackend]] = None,
    cost_model: Optional[CostModel] = None,
    coarse_factor: float = 2.0,
    validate: bool = True,
    ghost_sync: bool = False,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> PUMGResult:
    """Uniform PDR over an nx x ny block grid with color-phase barriers.

    ``coarse_factor`` keeps the initial mesh fine enough that no triangle
    spans beyond a block's buffer (strict ownership requires the patch to
    contain every triangle whose circumcenter the block owns).

    ``ghost_sync`` replaces the pull-style buffer collection with the
    ghost-layer exchange of :mod:`repro.pumg.ghost`: regions refine
    against locally held ghost copies, owners push fresh boundary strips
    via fanout multicast, and the color barrier additionally waits for
    every push to be acked.
    """
    return _run_regions(
        UPDRScenario(pslg, h, nx, ny, coarse_factor, ghost_sync),
        make_runtime(cluster, config, storage_factory, cost_model, on_runtime),
        validate,
    )


# ============================================================= NUPDR/ONUPDR
def run_nupdr(
    pslg: PSLG,
    sizing_spec: tuple,
    granularity: float = 8.0,
    options: Optional[ONUPDROptions] = None,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[MRTSConfig] = None,
    storage_factory: Optional[Callable[[int], StorageBackend]] = None,
    cost_model: Optional[CostModel] = None,
    coarse_factor: float = 4.0,
    validate: bool = True,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> PUMGResult:
    """Non-uniform PDR over a sizing-driven quadtree, master/worker style."""
    return _run_regions(
        NUPDRScenario(pslg, sizing_spec, granularity, options, coarse_factor),
        make_runtime(cluster, config, storage_factory, cost_model, on_runtime),
        validate,
    )


# =============================================================== PCDM/OPCDM
def run_pcdm(
    pslg: PSLG,
    h: float,
    n_parts: int = 4,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[MRTSConfig] = None,
    storage_factory: Optional[Callable[[int], StorageBackend]] = None,
    cost_model: Optional[CostModel] = None,
    coarse_size: Optional[float] = None,
    validate: bool = True,
    ghost_sync: bool = False,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> PUMGResult:
    """Constrained-Delaunay domain decomposition with async split messages.

    ``ghost_sync`` batches all of a pass's interface splits into one
    version-stamped fanout multicast per subdomain instead of per-neighbor
    point-to-point posts (see :mod:`repro.pumg.ghost`).
    """
    scenario = PCDMScenario(pslg, h, n_parts, coarse_size, ghost_sync)
    rt = make_runtime(cluster, config, storage_factory, cost_model, on_runtime)
    stats = run_phases(rt, scenario)
    extras = scenario.extras(rt)
    objs = extras["subdomain_objects"]
    worst_min_angle = None
    if validate:
        worst_min_angle = min(
            MeshQuality.of(o.tri.triangles(), o.tri.coords).min_angle_deg
            for o in objs
        )
    return PUMGResult(
        method=scenario.method,
        stats=stats,
        n_points=sum(o.tri.n_vertices for o in objs),
        n_triangles=sum(o.n_triangles() for o in objs),
        runtime=rt,
        scenario=scenario,
        extras=dict(extras, min_angle_deg=worst_min_angle),
    )
