"""One scenario definition per PUMG method.

A scenario owns what is a property of the *method*: the decomposition
and the mobile objects it creates, one phase of work, the progress count
and convergence rule, the witness of the produced mesh, the invariants
of a phase boundary and the counters a result reports.  Whoever
schedules it owns the rest: the one-shot drivers make a runtime and call
:func:`run_phases`; a serve job (:mod:`repro.serve.meshjob`) makes the
same calls one boundary at a time so it can checkpoint, be killed and
resume in between.  Either way the runtime sees the same creations
(hence oids), locks, posts, ``run()`` boundaries and ``get_object``
loads, so neither the virtual clock nor the final state depends on the
harness.  "Adding a scenario" in ``docs/architecture.md`` has the table.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.mobile import MobilePointer
from repro.core.runtime import MRTS
from repro.core.stats import RunStats
from repro.geometry.pslg import PSLG, BoundingBox
from repro.mesh.quality import MeshQuality
from repro.mesh.refine import refine
from repro.mesh.sizing import sizing_from_spec
from repro.mesh.triangulation import Triangulation, triangulate_pslg
from repro.pumg.decomposition import (
    block_decomposition,
    partition_coarse_mesh,
    quadtree_decomposition,
)
from repro.pumg.nupdr import ONUPDROptions, RefinementQueueObject
from repro.pumg.objects import BoundaryRegistry, RegionObject
from repro.pumg.pcdm import SubdomainObject
from repro.pumg.updr import UPDRCoordinatorObject

__all__ = [
    "MeshScenario",
    "UPDRScenario",
    "NUPDRScenario",
    "PCDMScenario",
    "run_phases",
]


class MeshScenario:
    """What a mesh method declares once; see the module docstring.

    :meth:`build` fills in the roles: ``regions`` maps a decomposition id
    to the pointer of the object owning it (in id order), ``master`` is
    the object a sweep is started on and ``registry`` the shared boundary
    registry (``None`` where the method has none).  A resumed job fills
    the three from its checkpoint manifest instead.
    """

    method = ""

    def __init__(self) -> None:
        self.master: Optional[MobilePointer] = None
        self.registry: Optional[MobilePointer] = None
        self.regions: dict[int, MobilePointer] = {}

    def build(self, rt: MRTS) -> None:
        """Decompose, create and pin the objects, post the wiring."""
        raise NotImplementedError

    def start(self, rt: MRTS) -> None:
        self.build(rt)
        # Quiesce the wiring phase before the parallel phase: direct-call
        # chains must never observe an unwired region.
        rt.run()

    @property
    def app_locked(self) -> set[int]:
        """Oids pinned for the whole run (the paper's §III locks the
        coordinator / queue and the registry in memory)."""
        return {
            ptr.oid for ptr in (self.master, self.registry) if ptr is not None
        }

    def post_phase(self, rt: MRTS) -> None:
        """One sweep: the master re-scans every region."""
        rt.post(self.master, "start", list(self.regions))

    def converged(self, before: int, after: int) -> bool:
        return after == before  # a sweep that adds nothing ends the run

    def objects(self, rt: MRTS) -> list:
        """The live region objects in id order (loads the spilled ones)."""
        return [rt.get_object(ptr) for ptr in self.regions.values()]

    def count(self, rt: MRTS) -> int:
        """The progress measure compared between sweeps."""
        return sum(self._size(obj) for obj in self.objects(rt))

    def witness(self, rt: MRTS) -> tuple:
        """Canonical witness of the produced mesh (exact equality oracle),
        independent of message delivery order within phases and of which
        incarnation produced it."""
        return tuple(
            self._witness(rid, obj)
            for rid, obj in zip(self.regions, self.objects(rt))
        )

    def boundary_problems(self, rt: MRTS, converged: bool) -> list[str]:
        """Method-level invariant violations at a phase boundary."""
        return []

    def validation_summary(self, rt: MRTS) -> dict:
        """Quality figures of the stitched mesh, where a method has one."""
        return {}

    def extras(self, rt: MRTS) -> dict:
        """The method's own counters for a result."""
        raise NotImplementedError

    @staticmethod
    def _size(obj) -> int:
        return len(obj.points)

    @staticmethod
    def _witness(rid: int, obj) -> tuple:
        pts = tuple(sorted(tuple(p) for p in obj.points))
        return (rid, len(pts), pts)


def run_phases(
    rt: MRTS, scenario: MeshScenario, max_sweeps: int = 6
) -> RunStats:
    """Start ``scenario`` on ``rt`` and sweep until a phase converges.

    The per-refinement dirty propagation is margin-based; a final global
    re-scan guarantees no poor triangle survives at region seams (the
    paper's master similarly re-checks buffer leaves for bad triangles).
    """
    scenario.start(rt)
    stats = rt.stats
    before = -1
    for _ in range(max_sweeps):
        scenario.post_phase(rt)
        stats = rt.run()
        after = scenario.count(rt)
        if scenario.converged(before, after):
            break
        before = after
    return stats


# ============================================================ UPDR / NUPDR
def _box4(box: BoundingBox) -> tuple:
    return (box.xmin, box.ymin, box.xmax, box.ymax)


class _RegionScenario(MeshScenario):
    """The two PDR methods: :class:`RegionObject` cells around one shared
    :class:`BoundaryRegistry`, stitched into a global mesh at the end."""

    master_counters: tuple = ()

    def __init__(
        self, pslg: PSLG, sizing_spec: tuple, coarse_factor: float,
        ghost_sync: bool,
    ) -> None:
        super().__init__()
        self.pslg = pslg
        self.sizing_spec = sizing_spec
        self.coarse_factor = coarse_factor
        self.ghost_sync = ghost_sync

    def _create_regions(
        self, rt: MRTS, cells: list, owner: Callable[[tuple], int]
    ) -> None:
        """The pinned registry and one region per cell ``(id, box, neighbor
        ids)``, round-robin over the nodes.

        The PUMG methods need an initial distribution of mesh data; the
        paper's codes build an initial triangulation before the parallel
        phase.  We refine coarsely (``coarse_factor`` x the target size) so
        every region starts with a few points, dealt out by ``owner(p)``.
        """
        sizing = sizing_from_spec(self.sizing_spec)
        tri = triangulate_pslg(self.pslg)
        refine(tri, sizing=lambda p: self.coarse_factor * sizing(p))
        shards: dict[int, list] = {rid: [] for rid, _box, _nbrs in cells}
        for v in range(3, len(tri.points)):
            p = tri.vertex(v)
            shards[owner(p)].append(p)
        boundary = [(tri.vertex(u), tri.vertex(v)) for u, v in tri.constrained]
        self.registry = rt.create_object(BoundaryRegistry, boundary, node=0)
        rt.nodes[0].ooc.lock(self.registry.oid)
        for idx, (rid, box, neighbor_ids) in enumerate(cells):
            self.regions[rid] = rt.create_object(
                RegionObject, rid, box, shards[rid], neighbor_ids,
                self.sizing_spec, node=idx % len(rt.nodes),
            )

    def start(self, rt: MRTS) -> None:
        super().start(rt)
        if self.ghost_sync:
            # Seed the ghost tables: every region publishes its boundary
            # strips once before any refinement reads them.
            for ptr in self.regions.values():
                rt.post(ptr, "ghost_seed")
            rt.run()

    def boundary_problems(self, rt: MRTS, converged: bool) -> list[str]:
        if not self.ghost_sync:
            return []
        # Ghost-freshness contract: every ghost copy equals the strip
        # its owner would push right now (repro.pumg.ghost).
        from repro.testing.invariants import check_ghosts

        return check_ghosts(rt, self.regions.values())

    def stitch(self, rt: MRTS, validate: bool = True) -> tuple:
        """``(points, mesh, quality, fixup)``: the sharded points in region
        order and, with ``validate``, the global mesh rebuilt from them.

        The patchwork leaves occasional *size* stragglers exactly at region
        seams (each leaf rebuilds its patch from local points, so a triangle
        of the global Delaunay structure spanning several regions can escape
        every patch).  A short sequential finalization pass — standard
        practice when stitching distributed refinements — sweeps those up;
        the ``fixup`` count lets callers verify the parallel phase did the
        bulk of the work.
        """
        points = [p for obj in self.objects(rt) for p in obj.points]
        boundary = list(rt.get_object(self.registry).segments)
        if not validate:
            return points, None, None, 0
        tri = Triangulation(self.pslg.bounding_box())
        for p in points:
            tri.insert_point(p)
        for pu, pv in boundary:
            u = tri.find_vertex(pu)
            v = tri.find_vertex(pv)
            if u is None or v is None or u == v:
                continue
            tri.insert_segment(u, v)
        tri.remove_exterior(self.pslg.holes)
        fixup = refine(tri, sizing=sizing_from_spec(self.sizing_spec))
        quality = MeshQuality.of(tri.triangles(), tri.coords)
        return points, tri, quality, fixup.steiner_points

    def validation_summary(self, rt: MRTS) -> dict:
        _points, mesh, quality, fixup = self.stitch(rt)
        return {
            "n_triangles": mesh.n_triangles,
            "min_angle_deg": round(quality.min_angle_deg, 3),
            "fixup_points": fixup,
        }

    def extras(self, rt: MRTS) -> dict:
        master = rt.get_object(self.master)
        extras = {name: getattr(master, name) for name in self.master_counters}
        if self.ghost_sync:
            objs = self.objects(rt)
            extras.update(
                ghost_pushes=sum(o.ghost_pushes for o in objs),
                ghost_bytes=sum(o.ghost_bytes_pushed for o in objs),
                ghost_installs=sum(o.ghosts.installs for o in objs),
                ghost_acks=master.ghost_acks,
                multicast_sends=rt.stats.multicast_sends,
            )
        return extras


class UPDRScenario(_RegionScenario):
    """Uniform PDR: an nx x ny block grid under the color-phase
    :class:`UPDRCoordinatorObject`."""

    method = "updr"
    master_counters = ("phases", "launches")

    def __init__(
        self, pslg: PSLG, h: float, nx: int = 3, ny: int = 3,
        coarse_factor: float = 2.0, ghost_sync: bool = False,
    ) -> None:
        super().__init__(pslg, ("uniform", h), coarse_factor, ghost_sync)
        self.nx = nx
        self.ny = ny

    def build(self, rt: MRTS) -> None:
        nx, ny = self.nx, self.ny
        bbox = self.pslg.bounding_box()
        blocks = block_decomposition(bbox, nx, ny)
        boxes = [_box4(b.box) for b in blocks]

        def owner_block(p) -> int:
            i = min(int((p[0] - bbox.xmin) / bbox.width * nx), nx - 1)
            j = min(int((p[1] - bbox.ymin) / bbox.height * ny), ny - 1)
            return j * nx + i

        self._create_regions(
            rt,
            [(b.block_id, boxes[b.block_id], b.neighbors) for b in blocks],
            owner_block,
        )
        self.master = rt.create_object(
            UPDRCoordinatorObject,
            {
                b.block_id: (self.regions[b.block_id], b.neighbors, b.color)
                for b in blocks
            },
            ghost_sync=self.ghost_sync,
            node=0,
        )
        rt.nodes[0].ooc.lock(self.master.oid)
        for b in blocks:
            neighbors = {n: (self.regions[n], boxes[n]) for n in b.neighbors}
            rt.post(
                self.regions[b.block_id], "wire", self.master, self.registry,
                neighbors, self.pslg, ghost_sync=self.ghost_sync,
            )


class NUPDRScenario(_RegionScenario):
    """Non-uniform PDR: the leaves of a sizing-driven quadtree under the
    master/worker :class:`RefinementQueueObject`."""

    method = "nupdr"
    master_counters = ("dispatches", "updates")

    def __init__(
        self, pslg: PSLG, sizing_spec: tuple, granularity: float = 8.0,
        options: Optional[ONUPDROptions] = None, coarse_factor: float = 4.0,
    ) -> None:
        self.options = options or ONUPDROptions()
        super().__init__(
            pslg, sizing_spec, coarse_factor, self.options.ghost_sync
        )
        self.granularity = granularity

    def build(self, rt: MRTS) -> None:
        options = self.options
        tree = quadtree_decomposition(
            self.pslg.bounding_box(), sizing_from_spec(self.sizing_spec),
            granularity=self.granularity,
        )
        boxes = {leaf.leaf_id: _box4(leaf.box) for leaf in tree.leaves()}
        neighbor_ids = {
            lid: [n.leaf_id for n in tree.neighbors(lid)] for lid in boxes
        }
        self._create_regions(
            rt,
            [(lid, boxes[lid], neighbor_ids[lid]) for lid in boxes],
            lambda p: tree.leaf_at(p).leaf_id,
        )
        self.master = rt.create_object(
            RefinementQueueObject,
            {
                lid: (self.regions[lid], neighbor_ids[lid], boxes[lid])
                for lid in boxes
            },
            options,
            node=0,
        )
        if options.lock_queue:
            # §III: "the refinement queue object is relatively small and
            # receives and sends many messages; therefore we locked it in
            # memory".
            rt.nodes[0].ooc.lock(self.master.oid)
        for lid in boxes:
            neighbors = {
                n: (self.regions[n], boxes[n]) for n in neighbor_ids[lid]
            }
            rt.post(
                self.regions[lid], "wire", self.master, self.registry,
                neighbors, self.pslg, options.multicast,
                True,  # insert_in_buffer: NUPDR returns buffer points (recreate)
                options.ghost_sync,
            )

    def extras(self, rt: MRTS) -> dict:
        return dict(super().extras(rt), n_leaves=len(self.regions))


# ==================================================================== PCDM
class PCDMScenario(MeshScenario):
    """Constrained-Delaunay domain decomposition: one
    :class:`SubdomainObject` per part, no master, one asynchronous
    meshing phase."""

    method = "pcdm"

    def __init__(
        self, pslg: PSLG, h: float, n_parts: int = 4,
        coarse_size: Optional[float] = None, ghost_sync: bool = False,
    ) -> None:
        super().__init__()
        self.pslg = pslg
        self.sizing_spec = ("uniform", h)
        self.n_parts = n_parts
        self.coarse_size = coarse_size
        self.ghost_sync = ghost_sync

    def build(self, rt: MRTS) -> None:
        partition = partition_coarse_mesh(
            self.pslg, self.n_parts, coarse_size=self.coarse_size
        )
        parts = range(partition.n_parts)
        for p in parts:
            self.regions[p] = rt.create_object(
                SubdomainObject, p, partition.sub_pslgs[p],
                partition.part_seeds[p], self.sizing_spec,
                ghost_sync=self.ghost_sync, node=p % len(rt.nodes),
            )
        # Per-part interface edge lists and the neighbor pointer maps.
        edges: dict[int, list] = {p: [] for p in parts}
        neighbors: dict[int, dict] = {p: {} for p in parts}
        for key, (a, b) in partition.interfaces.items():
            edges[a].append((key, b))
            edges[b].append((key, a))
            neighbors[a][b] = self.regions[b]
            neighbors[b][a] = self.regions[a]
        for p in parts:
            rt.post(self.regions[p], "wire", neighbors[p], edges[p])

    def post_phase(self, rt: MRTS) -> None:
        for ptr in self.regions.values():
            rt.post(ptr, "mesh_initial")

    def converged(self, before: int, after: int) -> bool:
        return True  # the single meshing phase runs to quiescence

    def extras(self, rt: MRTS) -> dict:
        objs = self.objects(rt)
        return {
            "n_parts": len(objs),
            "splits_sent": sum(o.splits_sent for o in objs),
            "splits_received": sum(o.splits_received for o in objs),
            "ghost_batches": sum(o.ghost_batches for o in objs),
            "ghost_bytes": sum(o.ghost_bytes_pushed for o in objs),
            "multicast_sends": rt.stats.multicast_sends,
            "subdomain_objects": objs,
        }

    @staticmethod
    def _size(obj) -> int:
        return obj.tri.n_vertices

    @staticmethod
    def _witness(rid: int, obj) -> tuple:
        tri = obj.tri
        pts = tuple(sorted(
            tuple(tri.vertex(v)) for v in range(3, len(tri.points))
        ))
        return (rid, tri.n_vertices, obj.n_triangles(), pts)
