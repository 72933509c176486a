"""Sequential unstructured meshing substrate.

From-scratch 2D Delaunay machinery: incremental constrained Delaunay
triangulation (:mod:`repro.mesh.triangulation`), Ruppert quality refinement
(:mod:`repro.mesh.refine`), sizing functions (:mod:`repro.mesh.sizing`),
quadtrees for graded decomposition (:mod:`repro.mesh.quadtree`) and quality
metrics (:mod:`repro.mesh.quality`).
"""

from repro.mesh.triangulation import Triangulation, triangulate_pslg
from repro.mesh.refine import RefinementResult, refine
from repro.mesh.sizing import (
    SizingFunction,
    uniform_sizing,
    point_source_sizing,
)
from repro.mesh.quadtree import QuadTree, QuadTreeLeaf
from repro.mesh.quality import (
    MeshQuality,
    triangle_quality,
    triangle_angles,
    triangle_area,
)

__all__ = [
    "Triangulation",
    "triangulate_pslg",
    "RefinementResult",
    "refine",
    "SizingFunction",
    "uniform_sizing",
    "point_source_sizing",
    "QuadTree",
    "QuadTreeLeaf",
    "MeshQuality",
    "triangle_quality",
    "triangle_angles",
    "triangle_area",
]
