"""End-to-end driver for the 3D extruded-prism PUMG variant.

``Mesh3DScenario`` decomposes a box domain into an ``nx x ny x nz`` grid
of :class:`~repro.mesh3d.objects.Prism3DPatchObject` patches and drives
them with the *2D* color-phase coordinator
(:class:`repro.pumg.updr.UPDRCoordinatorObject`, ``n_colors=8``): the
2x2x2 tiling guarantees concurrently refining patches never share a
face, so balanced bisection is race-free without any new runtime
machinery — the point of the exercise is that the MRTS hosts the 3D
code unmodified.  ``run_mesh3d`` is the one-shot driver over it; serve
jobs run the same scenario a boundary at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.config import MRTSConfig
from repro.core.runtime import MRTS, CostModel
from repro.core.stats import RunStats
from repro.core.storage import StorageBackend
from repro.mesh3d.objects import Prism3DPatchObject
from repro.mesh3d.prism import prism_quality, prism_volume
from repro.pumg.driver import make_runtime
from repro.pumg.scenario import MeshScenario, run_phases
from repro.pumg.updr import UPDRCoordinatorObject
from repro.sim.cluster import ClusterSpec

__all__ = ["Mesh3DResult", "Mesh3DScenario", "run_mesh3d"]


@dataclass
class Mesh3DResult:
    """Outcome of one 3D prism-refinement run."""

    stats: RunStats
    n_cells: int
    total_volume: float
    worst_quality: float
    runtime: MRTS = field(repr=False)
    scenario: Mesh3DScenario = field(repr=False)
    extras: dict = field(default_factory=dict)


def _block_grid(
    bounds: tuple, nx: int, ny: int, nz: int
) -> list[dict]:
    """The nx x ny x nz block decomposition with 6-face adjacency."""
    x0, y0, z0, x1, y1, z1 = bounds
    dx, dy, dz = (x1 - x0) / nx, (y1 - y0) / ny, (z1 - z0) / nz

    def bid(i: int, j: int, k: int) -> int:
        return (k * ny + j) * nx + i

    blocks = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                neighbors = [
                    bid(i + di, j + dj, k + dk)
                    for di, dj, dk in (
                        (-1, 0, 0), (1, 0, 0),
                        (0, -1, 0), (0, 1, 0),
                        (0, 0, -1), (0, 0, 1),
                    )
                    if 0 <= i + di < nx
                    and 0 <= j + dj < ny
                    and 0 <= k + dk < nz
                ]
                blocks.append(
                    dict(
                        block_id=bid(i, j, k),
                        ijk=(i, j, k),
                        box3=(
                            x0 + i * dx, y0 + j * dy, z0 + k * dz,
                            x0 + (i + 1) * dx, y0 + (j + 1) * dy,
                            z0 + (k + 1) * dz,
                        ),
                        neighbors=neighbors,
                        # The 3D analogue of the 2D four-coloring: the
                        # 2x2x2 tiling separates face-adjacent blocks.
                        color=(i % 2) + 2 * (j % 2) + 4 * (k % 2),
                    )
                )
    return blocks


class Mesh3DScenario(MeshScenario):
    """Extruded-prism refinement of a box: one patch per grid block under
    the 2D coordinator with eight colors."""

    method = "mesh3d"

    def __init__(
        self, sizing3_spec: tuple, nx: int, ny: int, nz: int,
        bounds: tuple = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0), min_size: float = 1e-3,
    ) -> None:
        super().__init__()
        self.sizing3_spec = sizing3_spec
        self.grid = (nx, ny, nz)
        self.bounds = bounds
        self.min_size = min_size

    def build(self, rt: MRTS) -> None:
        blocks = _block_grid(self.bounds, *self.grid)
        for b in blocks:
            self.regions[b["block_id"]] = rt.create_object(
                Prism3DPatchObject, b["block_id"], b["box3"], b["ijk"],
                b["neighbors"], self.sizing3_spec, min_size=self.min_size,
                node=b["block_id"] % len(rt.nodes),
            )
        self.master = rt.create_object(
            UPDRCoordinatorObject,
            {
                b["block_id"]: (self.regions[b["block_id"]], b["neighbors"],
                                b["color"])
                for b in blocks
            },
            n_colors=8,
            node=0,
        )
        rt.nodes[0].ooc.lock(self.master.oid)
        for b in blocks:
            neighbors = {
                n: (self.regions[n], blocks[n]["box3"]) for n in b["neighbors"]
            }
            rt.post(self.regions[b["block_id"]], "wire", self.master, neighbors)

    def boundary_problems(self, rt: MRTS, converged: bool) -> list[str]:
        if not converged:
            # 2:1 balance is only promised once the sweeps converge
            # (mid-run imbalance is exactly what drives the next sweep).
            return []
        from repro.testing.invariants import check_mesh3d

        return check_mesh3d(self.objects(rt), bounds=self.bounds)

    def extras(self, rt: MRTS) -> dict:
        patches = self.objects(rt)
        coordinator = rt.get_object(self.master)
        per_patch = [len(o.cells) for o in patches]
        return {
            "phases": coordinator.phases,
            "launches": coordinator.launches,
            "splits": sum(o.splits for o in patches),
            "cells_per_patch_min": min(per_patch),
            "cells_per_patch_max": max(per_patch),
            "patch_objects": patches,
        }

    @staticmethod
    def _size(obj) -> int:
        return len(obj.cells)

    @staticmethod
    def _witness(rid: int, obj) -> tuple:
        cells = tuple(sorted(
            (c.a, c.b, c.c, c.z0, c.z1, c.level) for c in obj.cells
        ))
        return (rid, len(cells), cells)


def run_mesh3d(
    sizing3_spec: tuple = ("uniform", 0.25),
    nx: int = 2,
    ny: int = 2,
    nz: int = 2,
    bounds: tuple = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
    min_size: float = 1e-3,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[MRTSConfig] = None,
    storage_factory: Optional[Callable[[int], StorageBackend]] = None,
    cost_model: Optional[CostModel] = None,
    on_runtime: Optional[Callable[[MRTS], None]] = None,
) -> Mesh3DResult:
    """Refine a box of extruded prisms to a 3D sizing target.

    Specs (see :func:`repro.mesh3d.prism.sizing3_from_spec`):
    ``("uniform", h)``, ``("layered", h_bottom, h_top[, z_lo, z_hi])``
    — the layered spec is the anisotropic-workload driver: bottom-layer
    patches refine an order of magnitude harder than top ones —
    and ``("point_source", center, h0, background[, gradation])``.
    """
    scenario = Mesh3DScenario(sizing3_spec, nx, ny, nz, bounds, min_size)
    rt = make_runtime(cluster, config, storage_factory, cost_model, on_runtime)
    stats = run_phases(rt, scenario)
    extras = scenario.extras(rt)
    cells = [c for o in extras["patch_objects"] for c in o.cells]
    return Mesh3DResult(
        stats=stats,
        n_cells=len(cells),
        total_volume=sum(prism_volume(c) for c in cells),
        worst_quality=max((prism_quality(c) for c in cells), default=math.inf),
        runtime=rt,
        scenario=scenario,
        extras=extras,
    )
