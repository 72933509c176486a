"""Sizing functions: desired local element size over the domain.

UPDR refines to a *uniform* target size; NUPDR's whole point is *graded*
(non-uniform) sizing, where different regions of the domain request
different element sizes.  A sizing function maps a point to the maximum
allowed circumradius of a triangle there.

Anisotropic sizing (ROADMAP item 5, after Garner et al.'s semi-speculative
anisotropic PMG) generalizes the scalar field to a **metric-tensor field**:
a spatially varying SPD matrix ``M(p)`` whose unit ball is the ideal
element at ``p``.  :class:`MetricSizingField` is a drop-in
:data:`SizingFunction` — called as a scalar it returns the
isotropic-equivalent size ``(det M)^(-1/4)`` — and additionally exposes
metric edge lengths; :mod:`repro.mesh.refine` detects the ``metric``
attribute and adds a directional edge test, so strongly stretched/graded
meshes refine where the metric demands it without touching the isotropic
code path.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.geometry.predicates import Point, dist_sq

__all__ = [
    "SizingFunction",
    "uniform_sizing",
    "point_source_sizing",
    "MetricSizingField",
    "constant_metric",
    "boundary_layer_metric",
    "sizing_from_spec",
]

# A sizing function returns the target circumradius bound at a point.
SizingFunction = Callable[[Point], float]

# A metric tensor field returns the SPD matrix (m11, m12, m22) at a point.
MetricTensorField = Callable[[Point], tuple[float, float, float]]


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


class MetricSizingField:
    """Anisotropic sizing: a spatially varying SPD metric-tensor field.

    ``tensor(p)`` returns ``(m11, m12, m22)`` — the symmetric matrix whose
    unit ball is the ideal element at ``p``.  The object is itself a valid
    :data:`SizingFunction`: calling it returns ``(det M)^(-1/4)``, the
    size of the area-equivalent isotropic element, so every existing
    scalar consumer (circumradius caps, buffer margins, decomposition
    granularity) keeps working.  The refinement loop detects the
    ``metric`` attribute and adds the directional test: an edge whose
    *metric* length exceeds ``edge_bound`` marks its triangle bad.
    """

    def __init__(
        self,
        tensor: MetricTensorField,
        edge_bound: float = 1.5,
        tensor_batch: Optional[Callable] = None,
    ) -> None:
        if edge_bound <= 0:
            raise ValueError("edge bound must be positive")
        self.tensor = tensor
        self.edge_bound = float(edge_bound)
        self.tensor_batch = tensor_batch
        # Duck-typing hook consumed by mesh.refine; pointing at self keeps
        # `getattr(sizing, "metric", None)` one attribute lookup.
        self.metric = self

    def __call__(self, p: Point) -> float:
        m11, m12, m22 = self.tensor(p)
        det = m11 * m22 - m12 * m12
        if det <= 0.0:
            raise ValueError(f"metric tensor not SPD at {p!r}")
        return det ** -0.25

    def edge_length(self, p: Point, q: Point) -> float:
        """Length of edge pq measured in the metric at its midpoint."""
        mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
        m11, m12, m22 = self.tensor(mid)
        dx, dy = q[0] - p[0], q[1] - p[1]
        return math.sqrt(max(0.0, m11 * dx * dx + 2.0 * m12 * dx * dy
                             + m22 * dy * dy))

    def h_batch(self, pts):
        """Isotropic-equivalent sizes at n points (the batch-scan hook)."""
        import numpy as np

        pts = np.asarray(pts, dtype=np.float64)
        if self.tensor_batch is not None:
            m11, m12, m22 = self.tensor_batch(pts)
            det = np.asarray(m11) * m22 - np.asarray(m12) ** 2
            if np.any(det <= 0.0):
                raise ValueError("metric tensor not SPD in batch")
            return np.power(det, -0.25)
        return np.asarray([self((x, y)) for x, y in pts])

    def edge_length_batch(self, p, q):
        """Metric lengths for n edges (numpy arrays of shape (n, 2))."""
        import numpy as np

        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        mid = (p + q) / 2.0
        if self.tensor_batch is not None:
            m11, m12, m22 = self.tensor_batch(mid)
        else:
            coeffs = np.asarray([self.tensor((x, y)) for x, y in mid])
            m11, m12, m22 = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
        dx, dy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
        quad = m11 * dx * dx + 2.0 * m12 * dx * dy + m22 * dy * dy
        return np.sqrt(np.maximum(quad, 0.0))


def constant_metric(
    h_along: float, h_across: float, angle_deg: float = 0.0,
    edge_bound: float = 1.5,
) -> MetricSizingField:
    """A uniform anisotropic metric: target size ``h_along`` in the
    direction ``angle_deg`` and ``h_across`` perpendicular to it.

    ``M = R diag(1/h_along^2, 1/h_across^2) R^T`` — the classic stretched
    element: with ``h_along/h_across = 50`` the ideal triangle is 50x
    longer than tall.
    """
    if h_along <= 0 or h_across <= 0:
        raise ValueError("metric sizes must be positive")
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    la, lc = 1.0 / (h_along * h_along), 1.0 / (h_across * h_across)
    m11 = la * c * c + lc * s * s
    m12 = (la - lc) * c * s
    m22 = la * s * s + lc * c * c

    def tensor(_: Point) -> tuple[float, float, float]:
        return (m11, m12, m22)

    def tensor_batch(mid):
        import numpy as np

        n = len(mid)
        return (np.full(n, m11), np.full(n, m12), np.full(n, m22))

    return MetricSizingField(tensor, edge_bound, tensor_batch)


def boundary_layer_metric(
    wall_y: float = 0.0,
    h_wall: float = 0.02,
    h_far: float = 0.25,
    h_tangent: float = 0.25,
    growth: float = 2.0,
    edge_bound: float = 1.5,
) -> MetricSizingField:
    """A graded boundary-layer metric along the line ``y = wall_y``.

    Normal (y) spacing starts at ``h_wall`` on the wall and grows linearly
    with wall distance at rate ``growth`` until it reaches ``h_far``;
    tangential (x) spacing is the constant ``h_tangent``.  Near the wall
    elements are thin and wide (anisotropy ``h_tangent / h_wall``), far
    away the mesh relaxes to isotropic — the canonical strongly *skewed*
    per-patch work distribution: patches touching the wall refine an
    order of magnitude harder than interior ones.
    """
    if h_wall <= 0 or h_far <= 0 or h_tangent <= 0 or growth <= 0:
        raise ValueError("metric sizes and growth must be positive")

    def tensor(p: Point) -> tuple[float, float, float]:
        hy = min(h_far, h_wall + growth * abs(p[1] - wall_y))
        return (1.0 / (h_tangent * h_tangent), 0.0, 1.0 / (hy * hy))

    def tensor_batch(mid):
        import numpy as np

        hy = np.minimum(h_far, h_wall + growth * np.abs(mid[:, 1] - wall_y))
        m11 = np.full(len(mid), 1.0 / (h_tangent * h_tangent))
        return (m11, np.zeros(len(mid)), 1.0 / (hy * hy))

    return MetricSizingField(tensor, edge_bound, tensor_batch)


def sizing_from_spec(spec: tuple) -> SizingFunction:
    """Rebuild a sizing function from a picklable spec tuple.

    Mobile objects must serialize, and closures don't pickle — so the PUMG
    objects store specs and rebuild the callable on demand:

    * ``("uniform", h)``
    * ``("point_source", sources, background, gradation)``
    * ``("metric", h_along, h_across[, angle_deg[, edge_bound]])``
    * ``("boundary_layer", wall_y, h_wall, h_far[, h_tangent[, growth]])``
    """
    kind = spec[0]
    if kind == "uniform":
        return uniform_sizing(spec[1])
    if kind == "point_source":
        return point_source_sizing(list(spec[1]), spec[2], spec[3])
    if kind == "metric":
        return constant_metric(*spec[1:])
    if kind == "boundary_layer":
        return boundary_layer_metric(*spec[1:])
    raise ValueError(f"unknown sizing spec {spec!r}")

