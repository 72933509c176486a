"""Planar straight-line graphs: the input format for mesh generation.

A :class:`PSLG` is the 2D analogue of Triangle's ``.poly`` file: vertices,
constraint segments connecting them, and hole points marking cavities that
must not be meshed.  All the paper's test geometries (pipe cross-section
etc.) are expressed as PSLGs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.predicates import Point

__all__ = ["PSLG", "BoundingBox"]


@dataclass(frozen=True)
class BoundingBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> Point:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, p: Point) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def expanded(self, margin: float) -> "BoundingBox":
        return BoundingBox(
            self.xmin - margin, self.ymin - margin,
            self.xmax + margin, self.ymax + margin,
        )


@dataclass
class PSLG:
    """A planar straight-line graph.

    Attributes
    ----------
    vertices:
        Point coordinates.
    segments:
        Pairs of vertex indices that must appear as (unions of) mesh edges.
    holes:
        One interior point per cavity; triangles reachable from a hole point
        without crossing a segment are removed after triangulation.
    """

    vertices: list[Point] = field(default_factory=list)
    segments: list[tuple[int, int]] = field(default_factory=list)
    holes: list[Point] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------
    def add_vertex(self, p: Point) -> int:
        self.vertices.append((float(p[0]), float(p[1])))
        return len(self.vertices) - 1

    def add_segment(self, i: int, j: int) -> None:
        n = len(self.vertices)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"segment ({i},{j}) references missing vertex")
        if i == j:
            raise ValueError("degenerate segment")
        self.segments.append((i, j))

    def add_loop(self, points: Sequence[Point]) -> list[int]:
        """Add a closed polygon; returns the new vertex indices."""
        if len(points) < 3:
            raise ValueError("a loop needs at least 3 points")
        idx = [self.add_vertex(p) for p in points]
        for k in range(len(idx)):
            self.add_segment(idx[k], idx[(k + 1) % len(idx)])
        return idx

    # -- queries ---------------------------------------------------------------
    def bounding_box(self) -> BoundingBox:
        if not self.vertices:
            raise ValueError("empty PSLG has no bounding box")
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    def contains(self, p: Point) -> bool:
        """Point-in-domain test by crossing number over all segments.

        Casts a rightward ray from ``p`` and counts proper crossings with
        the constraint segments (holes are bounded by segments too, so odd
        parity means inside the meshable region).  The ray's y-coordinate
        is nudged off any segment endpoint to avoid double counting.
        """
        x, y = p
        # Nudge off endpoint ordinates (robust enough for test geometry;
        # refinement itself never depends on this predicate).
        ys = {self.vertices[i][1] for i, _ in self.segments} | {
            self.vertices[j][1] for _, j in self.segments
        }
        if y in ys:
            eps = 1e-9 * max(self.bounding_box().diagonal, 1.0)
            y += eps
        crossings = 0
        for i, j in self.segments:
            (x1, y1), (x2, y2) = self.vertices[i], self.vertices[j]
            if (y1 > y) == (y2 > y):
                continue
            x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_at > x:
                crossings += 1
        return crossings % 2 == 1

