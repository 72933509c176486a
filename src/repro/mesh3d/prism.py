"""Extruded-prism cell geometry: predicates, bisection, 3D sizing.

A cell is a triangle footprint in the xy-plane swept along z — the
classic semi-structured element for boundary-layer and extruded domains
(and the simplest honest 3D element whose refinement still produces the
skewed, cascading workloads the run-time system must absorb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.mesh.quality import triangle_area, triangle_quality

__all__ = [
    "Prism",
    "Point3",
    "Sizing3Function",
    "prism_volume",
    "prism_size",
    "prism_quality",
    "bisect_prism",
    "initial_prisms",
    "layered_sizing3",
    "sizing3_from_spec",
]

Point3 = tuple  # (x, y, z)

# A 3D sizing function returns the target cell size at a point.
Sizing3Function = Callable[[Point3], float]

# An equilateral footprint scores 1/sqrt(3) on the circumradius-to-
# shortest-edge ratio; dividing by it normalizes "perfect" to 1.0.
_EQ = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class Prism:
    """One extruded-prism cell: xy triangle ``(a, b, c)`` swept z0..z1."""

    a: tuple
    b: tuple
    c: tuple
    z0: float
    z1: float
    level: int = 0


def prism_volume(p: Prism) -> float:
    """Exact volume: footprint area times extrusion height."""
    return triangle_area(p.a, p.b, p.c) * (p.z1 - p.z0)


def _edges(p: Prism) -> list[float]:
    ab = math.dist(p.a, p.b)
    bc = math.dist(p.b, p.c)
    ca = math.dist(p.c, p.a)
    return [ab, bc, ca]


def prism_size(p: Prism) -> float:
    """The refinement driver: longest extent (footprint edge or height)."""
    return max(max(_edges(p)), p.z1 - p.z0)


def prism_quality(p: Prism) -> float:
    """Shape measure, lower is better; a well-shaped cell scores ~1.

    The max of (i) the footprint's normalized circumradius-to-shortest-
    edge ratio and (ii) the extrusion aspect (height vs shortest edge,
    either way round): a sliver footprint *or* a pancake/needle extrusion
    scores badly.
    """
    edges = _edges(p)
    h = p.z1 - p.z0
    if h <= 0.0 or min(edges) <= 0.0:
        return math.inf
    footprint = triangle_quality(p.a, p.b, p.c) / _EQ
    aspect = max(h / min(edges), max(edges) / h)
    return max(footprint, aspect)


def bisect_prism(p: Prism) -> tuple[Prism, Prism]:
    """Split along the longest extent; children inherit ``level + 1``.

    If the extrusion height dominates, split the z-interval at its
    midpoint; otherwise split the longest footprint edge at its midpoint
    (the two split triangles share the bisector to the opposite vertex).
    Midpoints are computed identically from the shared endpoints, so two
    patches bisecting the same interface edge agree bit-for-bit.
    """
    edges = _edges(p)
    h = p.z1 - p.z0
    lvl = p.level + 1
    if h >= max(edges):
        zm = (p.z0 + p.z1) / 2.0
        return (
            Prism(p.a, p.b, p.c, p.z0, zm, lvl),
            Prism(p.a, p.b, p.c, zm, p.z1, lvl),
        )
    longest = edges.index(max(edges))
    # Edge i joins vertices (i, i+1); the opposite vertex is i+2.
    verts = (p.a, p.b, p.c)
    u, v, w = (
        verts[longest],
        verts[(longest + 1) % 3],
        verts[(longest + 2) % 3],
    )
    m = ((u[0] + v[0]) / 2.0, (u[1] + v[1]) / 2.0)
    return (
        Prism(u, m, w, p.z0, p.z1, lvl),
        Prism(m, v, w, p.z0, p.z1, lvl),
    )


def initial_prisms(box3: tuple) -> list[Prism]:
    """Two level-0 prisms tiling a 3D box (rectangle split on a diagonal)."""
    x0, y0, z0, x1, y1, z1 = box3
    p00, p10 = (x0, y0), (x1, y0)
    p01, p11 = (x0, y1), (x1, y1)
    return [
        Prism(p00, p10, p11, z0, z1, 0),
        Prism(p00, p11, p01, z0, z1, 0),
    ]


# -------------------------------------------------------------- 3D sizing
def layered_sizing3(
    h_bottom: float, h_top: float, z_lo: float = 0.0, z_hi: float = 1.0
) -> Sizing3Function:
    """Size interpolating in z: fine boundary layers at the bottom.

    The canonical *layered decomposition* workload: with
    ``h_bottom << h_top`` the patches of the lowest z-layer refine an
    order of magnitude harder than the top ones — exactly the skewed
    per-patch work the elastic/OOC machinery is measured against.
    """
    if h_bottom <= 0 or h_top <= 0:
        raise ValueError("sizes must be positive")
    if z_hi <= z_lo:
        raise ValueError("need z_hi > z_lo")

    def size(p: Point3) -> float:
        t = (p[2] - z_lo) / (z_hi - z_lo)
        t = max(0.0, min(1.0, t))
        return h_bottom + t * (h_top - h_bottom)

    return size


def sizing3_from_spec(spec: tuple) -> Sizing3Function:
    """Rebuild a picklable 3D sizing spec (mirrors 2D ``sizing_from_spec``).

    The one kind is ``("layered", h_bottom, h_top[, z_lo, z_hi])``;
    ``("layered", h, h)`` is the uniform size ``h``, bit for bit.
    """
    if spec[0] == "layered":
        return layered_sizing3(*spec[1:])
    raise ValueError(f"unknown 3D sizing spec {spec!r}")
