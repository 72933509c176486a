"""Mesh quality metrics and summary statistics.

Quality is the classic circumradius-to-shortest-edge ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.predicates import Point, circumradius_sq, dist_sq

__all__ = [
    "triangle_quality",
    "triangle_angles",
    "triangle_area",
    "MeshQuality",
]


def triangle_area(a: Point, b: Point, c: Point) -> float:
    """Unsigned area of triangle abc."""
    return abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    ) / 2.0


def triangle_quality(a: Point, b: Point, c: Point) -> float:
    """Circumradius-to-shortest-edge ratio (Ruppert's quality measure).

    Lower is better; an equilateral triangle scores 1/sqrt(3) ~ 0.577.
    Ruppert refinement guarantees a bound B on this ratio, which translates
    to a minimum angle of arcsin(1/(2B)).
    """
    shortest_sq = min(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
    if shortest_sq == 0.0:
        return math.inf
    return math.sqrt(circumradius_sq(a, b, c) / shortest_sq)


def triangle_angles(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    """Interior angles in radians, in vertex order a, b, c."""

    def angle(p: Point, q: Point, r: Point) -> float:
        v1 = (q[0] - p[0], q[1] - p[1])
        v2 = (r[0] - p[0], r[1] - p[1])
        dot = v1[0] * v2[0] + v1[1] * v2[1]
        n1 = math.hypot(*v1)
        n2 = math.hypot(*v2)
        if n1 == 0.0 or n2 == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, dot / (n1 * n2))))

    return (angle(a, b, c), angle(b, c, a), angle(c, a, b))


@dataclass(frozen=True)
class MeshQuality:
    """Summary statistics over a whole mesh."""

    n_triangles: int
    min_angle_deg: float
    max_angle_deg: float
    worst_ratio: float
    total_area: float

    @classmethod
    def of(cls, triangles, coords) -> "MeshQuality":
        """Compute stats; ``coords(tri)`` maps a triple to three points."""
        n = 0
        min_angle = math.inf
        max_angle = 0.0
        worst = 0.0
        area = 0.0
        for tri in triangles:
            a, b, c = coords(tri)
            n += 1
            angles = triangle_angles(a, b, c)
            min_angle = min(min_angle, *angles)
            max_angle = max(max_angle, *angles)
            worst = max(worst, triangle_quality(a, b, c))
            area += triangle_area(a, b, c)
        if n == 0:
            raise ValueError("empty mesh has no quality statistics")
        return cls(
            n_triangles=n,
            min_angle_deg=math.degrees(min_angle),
            max_angle_deg=math.degrees(max_angle),
            worst_ratio=worst,
            total_area=area,
        )
