"""The vectorised kernels of the refinement scan vs the scalar predicates.

``circumcenter_batch``, ``shortest_edge_sq_batch`` and ``_bad_mask_batch``
live in :mod:`repro.mesh.refine` beside the scan that calls them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import find_bad_triangles
from repro.geometry import (
    circumcenter,
    circumradius_sq,
    dist_sq,
)
from repro.mesh.refine import (
    _bad_mask_batch,
    circumcenter_batch,
    shortest_edge_sq_batch,
)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
pt = st.tuples(finite, finite)


def _tri_arrays(tris):
    a = np.array([t[0] for t in tris], dtype=np.float64)
    b = np.array([t[1] for t in tris], dtype=np.float64)
    c = np.array([t[2] for t in tris], dtype=np.float64)
    return a, b, c


def _circumradius_sq_batch(a, b, c):
    cc = circumcenter_batch(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        return (cc[:, 0] - a[:, 0]) ** 2 + (cc[:, 1] - a[:, 1]) ** 2


def _indexed(tris):
    """``(pts_idx, pts)`` for :func:`_bad_mask_batch`: row k is ``tris[k]``."""
    pts = np.array([p for t in tris for p in t], dtype=np.float64)
    return np.arange(len(pts)).reshape(-1, 3), pts


def test_circumcenter_batch_matches_scalar():
    tris = [
        ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),
        ((1.0, 1.0), (2.0, 1.0), (1.5, 2.0)),
    ]
    cc = circumcenter_batch(*_tri_arrays(tris))
    for k, (a, b, c) in enumerate(tris):
        expected = circumcenter(a, b, c)
        assert cc[k, 0] == pytest.approx(expected[0])
        assert cc[k, 1] == pytest.approx(expected[1])


def test_circumcenter_batch_degenerate_nan():
    cc = circumcenter_batch(
        np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]])
    )
    assert np.isnan(cc).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(pt, pt, pt), min_size=1, max_size=15))
def test_circumradius_batch_matches_scalar(tris):
    a, b, c = _tri_arrays(tris)
    r_sq = _circumradius_sq_batch(a, b, c)
    for k, (pa, pb, pc) in enumerate(tris):
        longest = max(dist_sq(pa, pb), dist_sq(pb, pc), dist_sq(pc, pa))
        try:
            expected = circumradius_sq(pa, pb, pc)
        except ZeroDivisionError:
            assert not np.isfinite(r_sq[k])
            continue
        if not np.isfinite(r_sq[k]):
            # The batch kernel pivots at c, so a triangle whose doubled
            # area is at cancellation scale can round d to exactly 0 and
            # come back NaN even though the scalar path (different pivot)
            # survives.  Accept NaN only for such degenerate slivers.
            area2 = max(
                abs((pb[0] - pa[0]) * (pc[1] - pa[1])
                    - (pb[1] - pa[1]) * (pc[0] - pa[0])),
                abs((pc[0] - pb[0]) * (pa[1] - pb[1])
                    - (pc[1] - pb[1]) * (pa[0] - pb[0])),
                abs((pa[0] - pc[0]) * (pb[1] - pc[1])
                    - (pa[1] - pc[1]) * (pb[0] - pc[0])),
            )
            assert area2 <= 1e-9 * longest
            continue
        if not math.isfinite(expected) or longest == 0:
            continue
        if expected > 1e4 * longest or expected > 1e12:
            continue  # needle triangle: both results are noise
        assert r_sq[k] == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_shortest_edge_batch():
    tris = [((0, 0), (3, 0), (0, 4))]
    short = shortest_edge_sq_batch(*_tri_arrays(tris))
    assert short[0] == pytest.approx(9.0)


def test_bad_triangle_mask_quality():
    # A skinny triangle (bad ratio) and an equilateral (good).
    h = math.sqrt(3) / 2
    tris = [
        ((0.0, 0.0), (1.0, 0.0), (0.5, 0.01)),
        ((0.0, 0.0), (1.0, 0.0), (0.5, h)),
    ]
    bad, recheck = _bad_mask_batch(*_indexed(tris), 2.0, None, 0.0)
    assert bad.tolist() == [True, False]
    assert not recheck.any()


def test_bad_triangle_mask_sizing():
    h = math.sqrt(3) / 2
    idx, pts = _indexed([((0.0, 0.0), (1.0, 0.0), (0.5, h))])  # R ~0.577
    bad, _ = _bad_mask_batch(idx, pts, 2.0, lambda p: 0.1, 0.0)
    assert bad.tolist() == [True]
    bad, _ = _bad_mask_batch(idx, pts, 2.0, lambda p: 10.0, 0.0)
    assert bad.tolist() == [False]


def test_bad_triangle_mask_min_length_protects():
    tris = [((0.0, 0.0), (1.0, 0.0), (0.5, 0.01))]  # skinny, edges < 2
    bad, _ = _bad_mask_batch(*_indexed(tris), 2.0, None, 2.0 ** 2)
    assert bad.tolist() == [False]


def test_bad_triangle_mask_degenerate_never_bad():
    tris = [((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))]
    bad, _ = _bad_mask_batch(*_indexed(tris), 2.0, None, 0.0)
    assert bad.tolist() == [False]


def test_batch_agrees_with_mesh_scan():
    """The vectorized mask finds the same bad set as the scalar refiner."""
    from repro.geometry import unit_square
    from repro.mesh import triangulate_pslg, refine
    from repro.mesh.sizing import uniform_sizing

    tri = triangulate_pslg(unit_square())
    refine(tri, sizing=uniform_sizing(0.3))
    tris = list(tri.triangles())
    sizing = uniform_sizing(0.15)  # tighter than the mesh satisfies
    bad, recheck = _bad_mask_batch(
        *_indexed([tri.coords(t) for t in tris]), 2.0, sizing, 0.0)
    assert not recheck.any()
    scalar_bad = set(find_bad_triangles(tri, sizing=sizing))
    batch_bad = {tris[k] for k in range(len(tris)) if bad[k]}
    assert batch_bad == scalar_bad
