"""Sizing functions: desired local element size over the domain.

UPDR refines to a *uniform* target size; NUPDR's whole point is *graded*
(non-uniform) sizing, where different regions of the domain request
different element sizes.  A sizing function maps a point to the maximum
allowed circumradius of a triangle there.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.geometry.predicates import Point, dist_sq

__all__ = [
    "SizingFunction",
    "uniform_sizing",
    "point_source_sizing",
    "sizing_from_spec",
]

# A sizing function returns the target circumradius bound at a point.
SizingFunction = Callable[[Point], float]


def uniform_sizing(h: float) -> SizingFunction:
    """Constant target size ``h`` everywhere (the UPDR regime)."""
    if h <= 0:
        raise ValueError("size must be positive")

    def size(_: Point) -> float:
        return h

    return size


def point_source_sizing(
    sources: Sequence[tuple[Point, float]],
    background: float,
    gradation: float = 1.0,
) -> SizingFunction:
    """Fine size near source points, grading up to ``background``.

    Each source is ``(point, h0)``: target size ``h0`` at the point, growing
    linearly with distance at rate ``gradation`` (the classic mesh-size
    gradation bound).  This is the canonical graded-mesh driver used to
    exercise NUPDR: e.g. a crack tip or a boundary-layer seed.
    """
    if background <= 0 or gradation <= 0:
        raise ValueError("background size and gradation must be positive")
    for _, h0 in sources:
        if h0 <= 0:
            raise ValueError("source size must be positive")

    def size(p: Point) -> float:
        best = background
        for center, h0 in sources:
            best = min(best, h0 + gradation * math.sqrt(dist_sq(p, center)))
        return best

    return size


def sizing_from_spec(spec: tuple) -> SizingFunction:
    """Rebuild a sizing function from a picklable spec tuple.

    Mobile objects must serialize, and closures don't pickle — so the PUMG
    objects store specs and rebuild the callable on demand:

    * ``("uniform", h)``
    * ``("point_source", sources, background, gradation)``
    """
    kind = spec[0]
    if kind == "uniform":
        return uniform_sizing(spec[1])
    if kind == "point_source":
        return point_source_sizing(list(spec[1]), spec[2], spec[3])
    raise ValueError(f"unknown sizing spec {spec!r}")

