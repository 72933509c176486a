"""Batch (numpy) geometry kernels.

The central property: the vectorized paths are *semantically invisible*
— the batch kernels agree with the scalar predicates, and the batched
bad-triangle scan returns exactly the triangles the scalar scan returns,
with and without a sizing function.
"""

import math
import random

import numpy as np
import pytest

from oracles import find_bad_triangles
from repro.geometry import BoundingBox
from repro.geometry.predicates import (
    circumcenter,
    circumradius_sq,
    dist_sq,
    orient2d,
)
from repro.mesh import Triangulation
from repro.mesh.refine import (
    _BATCH_MIN,
    _bad_mask_batch,
    _scan_bad_triangles,
    circumcenter_batch,
    shortest_edge_sq_batch,
)
from repro.mesh.sizing import sizing_from_spec


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
    ],
    ids=["none", "uniform", "graded"],
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
