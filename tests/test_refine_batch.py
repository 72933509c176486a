"""Batch (numpy) geometry kernels and anisotropic metric sizing.

The central property: the vectorized paths are *semantically invisible*
— the batch kernels agree with the scalar predicates, and the batched
bad-triangle scan returns exactly the triangles the scalar scan returns,
for isotropic and metric sizing alike.
"""

import math
import random

import numpy as np
import pytest

from oracles import find_bad_triangles
from repro.geometry import BoundingBox, unit_square
from repro.geometry.predicates import (
    circumcenter,
    circumradius_sq,
    dist_sq,
    orient2d,
)
from repro.mesh import Triangulation, triangulate_pslg
from repro.mesh.refine import (
    _BATCH_MIN,
    _bad_mask_batch,
    _scan_bad_triangles,
    circumcenter_batch,
    refine,
    shortest_edge_sq_batch,
)
from repro.mesh.quality import metric_triangle_quality, triangle_quality
from repro.mesh.sizing import (
    MetricSizingField,
    boundary_layer_metric,
    constant_metric,
    sizing_from_spec,
)


def _random_points(n, seed):
    rng = random.Random(seed)
    return [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]


# -------------------------------------------------- batch == scalar kernels
def test_circumcenter_and_radius_batch_match_scalar():
    pts = _random_points(300, seed=11)
    tris = [tuple(pts[i:i + 3]) for i in range(0, 297, 3)
            if abs(orient2d(*pts[i:i + 3])) > 1e-12]
    a, b, c = (np.array([t[i] for t in tris]) for i in range(3))
    cc = circumcenter_batch(a, b, c)
    rr = (cc[:, 0] - a[:, 0]) ** 2 + (cc[:, 1] - a[:, 1]) ** 2
    ss = shortest_edge_sq_batch(a, b, c)
    for k, (pa, pb, pc) in enumerate(tris):
        want = circumcenter(pa, pb, pc)
        assert cc[k][0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
        assert cc[k][1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)
        assert rr[k] == pytest.approx(
            circumradius_sq(pa, pb, pc), rel=1e-9
        )
        assert ss[k] == pytest.approx(
            min(dist_sq(pa, pb), dist_sq(pb, pc), dist_sq(pc, pa)),
            rel=1e-12,
        )


def test_bad_triangle_mask_flags_skinny_not_equilateral():
    skinny = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.01))
    good = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    pts = np.array([*skinny, *good])
    idx = np.array([[0, 1, 2], [3, 4, 5]])
    bad, recheck = _bad_mask_batch(idx, pts, 2.0 ** 2, None, 0.0)
    assert bad[0] and not bad[1]
    assert not recheck.any()


# ---------------------------------------------- batch == scalar full scan
def _triangulation_of(points):
    tri = Triangulation(BoundingBox(0, 0, 1, 1))
    for p in points:
        tri.insert_point(p)
    return tri


def _batch_scan(tri, sizing):
    """Vertex triples the full scan flags, bound 2 and min length 1e-6."""
    return sorted(v for _, v in _scan_bad_triangles(tri, 2.0 ** 2, sizing,
                                                    1e-12))


@pytest.mark.parametrize(
    "sizing",
    [
        None,
        sizing_from_spec(("uniform", 0.08)),
        sizing_from_spec(("point_source", [((0.3, 0.3), 0.03)], 0.2, 0.4)),
        sizing_from_spec(("metric", 0.3, 0.06, 30.0)),
        sizing_from_spec(("boundary_layer", 0.0, 0.04, 0.3, 0.3, 0.25)),
    ],
    ids=["none", "uniform", "graded", "metric", "boundary-layer"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_scan_batch_equals_scalar(sizing, seed):
    # Enough triangles to cross _BATCH_MIN so the numpy path runs.
    tri = _triangulation_of(_random_points(80, seed=seed))
    assert sum(1 for _ in tri.alive_triangles()) >= _BATCH_MIN
    want = find_bad_triangles(tri, 2.0, sizing, 1e-6)
    assert _batch_scan(tri, sizing) == sorted(want)


def test_scan_small_mesh_takes_scalar_path():
    tri = _triangulation_of(_random_points(5, seed=3))
    want = find_bad_triangles(tri, 2.0, None, 1e-6)
    assert _batch_scan(tri, None) == sorted(want)


# ------------------------------------------------------- metric sizing
def test_constant_metric_isotropic_size_is_geometric_mean():
    m = constant_metric(0.4, 0.1)
    # (det M)^(-1/4) = sqrt(h_along * h_across).
    assert m((0.5, 0.5)) == pytest.approx(math.sqrt(0.4 * 0.1))


def test_constant_metric_edge_length_is_directional():
    m = constant_metric(0.5, 0.05, angle_deg=0.0)
    along = m.edge_length((0.0, 0.0), (0.5, 0.0))
    across = m.edge_length((0.0, 0.0), (0.0, 0.5))
    assert along == pytest.approx(1.0)
    assert across == pytest.approx(10.0)


def test_metric_batch_hooks_match_scalar():
    m = boundary_layer_metric(0.0, 0.03, 0.3, 0.25, growth=0.25)
    pts = np.array(_random_points(50, seed=5))
    qts = np.array(_random_points(50, seed=6))
    h = m.h_batch(pts)
    el = m.edge_length_batch(pts, qts)
    for k in range(len(pts)):
        assert h[k] == pytest.approx(m(tuple(pts[k])), rel=1e-12)
        assert el[k] == pytest.approx(
            m.edge_length(tuple(pts[k]), tuple(qts[k])), rel=1e-12
        )


def test_metric_rejects_non_spd():
    bad = MetricSizingField(lambda p: (1.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="not SPD"):
        bad((0.0, 0.0))


def test_metric_triangle_quality_prefers_stretched_elements():
    m = constant_metric(0.5, 0.05)
    stretched = ((0.0, 0.0), (0.5, 0.0), (0.25, 0.05))
    equilateral = ((0.0, 0.0), (0.5, 0.0), (0.25, 0.25 * math.sqrt(3)))
    assert metric_triangle_quality(*stretched, m) < metric_triangle_quality(
        *equilateral, m
    )
    # The isotropic measure ranks them the other way around.
    assert triangle_quality(*stretched) > triangle_quality(*equilateral)


def test_refine_with_metric_produces_anisotropic_mesh():
    tri = triangulate_pslg(unit_square())
    m = sizing_from_spec(("metric", 0.4, 0.08))
    refine(tri, sizing=m, min_length=1e-3)
    # The metric criterion itself is satisfied...
    assert find_bad_triangles(tri, sizing=m) == []
    # ...and the mesh is genuinely anisotropic: far more triangles than
    # the isotropic-equivalent h = sqrt(h_along * h_across) would need
    # alone implies the directional edge test did real work.
    count = 0
    for t in tri.triangles():
        pts = tri.coords(t)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            assert m.edge_length(pts[u], pts[v]) <= 2.0 * m.edge_bound
        count += 1
    assert count > 0


def test_metric_spec_round_trips_through_sizing_from_spec():
    m = sizing_from_spec(("metric", 0.3, 0.06, 45.0, 1.2))
    assert m.edge_bound == 1.2
    assert m((0.1, 0.9)) == pytest.approx(math.sqrt(0.3 * 0.06))
    with pytest.raises(ValueError):
        sizing_from_spec(("warp", 1.0))
