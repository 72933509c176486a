"""Tests for the constrained Delaunay triangulation kernel."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import PSLG, BoundingBox, unit_square, pipe_cross_section
from repro.mesh import Triangulation, triangulate_pslg
from repro.mesh.quality import triangle_area
from repro.mesh.triangulation import UnsplittableSegment
from repro.pumg import run_pcdm


def _fresh(points):
    tri = Triangulation(BoundingBox(0, 0, 1, 1))
    for p in points:
        tri.insert_point(p)
    return tri


def test_single_point_insertion():
    tri = _fresh([(0.5, 0.5)])
    assert tri.n_vertices == 1
    # Super triangle split into 3.
    assert sum(1 for _ in tri.alive_triangles()) == 3
    assert tri.check_delaunay() == []


def test_duplicate_point_returns_same_id():
    tri = Triangulation(BoundingBox(0, 0, 1, 1))
    a = tri.insert_point((0.5, 0.5))
    b = tri.insert_point((0.5, 0.5))
    assert a == b
    assert tri.n_vertices == 1


def test_square_corners_delaunay():
    tri = _fresh([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert tri.check_delaunay() == []
    assert tri.n_vertices == 4


def test_locate_finds_containing_triangle():
    tri = _fresh([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    tid = tri.locate((0.25, 0.25))
    a, b, c = (tri.vertex(v) for v in tri.triangle_vertices(tid))
    from repro.geometry import orient2d

    p = (0.25, 0.25)
    assert orient2d(a, b, p) >= 0
    assert orient2d(b, c, p) >= 0
    assert orient2d(c, a, p) >= 0


def test_find_vertex():
    tri = _fresh([(0.3, 0.3), (0.7, 0.7)])
    vid = tri.find_vertex((0.3, 0.3))
    assert vid is not None and tri.vertex(vid) == (0.3, 0.3)
    assert tri.find_vertex((0.5, 0.1)) is None


def test_grid_insertion_stays_delaunay():
    tri = Triangulation(BoundingBox(0, 0, 1, 1))
    for i in range(5):
        for j in range(5):
            tri.insert_point((i / 4.0, j / 4.0))
    assert tri.check_delaunay() == []
    assert tri.n_vertices == 25


def test_cocircular_points_handled():
    """Regular polygon vertices are all cocircular — exact arithmetic path."""
    tri = Triangulation(BoundingBox(-1, -1, 1, 1))
    for k in range(8):
        angle = 2 * math.pi * k / 8
        tri.insert_point((math.cos(angle), math.sin(angle)))
    assert tri.check_delaunay() == []


def test_insert_segment_marks_constrained():
    tri = _fresh([(0, 0), (1, 0), (1, 1), (0, 1)])
    v0 = tri.find_vertex((0.0, 0.0))
    v2 = tri.find_vertex((1.0, 1.0))
    tri.insert_segment(v0, v2)
    assert tri.is_constrained(v0, v2)
    assert tri.check_delaunay() == []


def test_insert_segment_forces_missing_edge():
    """Build points so the diagonal (0,0)-(1,1) is NOT Delaunay, then force it."""
    tri = _fresh([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.05), (0.5, 0.95)])
    v0 = tri.find_vertex((0.0, 0.0))
    v2 = tri.find_vertex((1.0, 1.0))
    tri.insert_segment(v0, v2)
    assert tri.is_constrained(v0, v2)
    # Edge must exist in some triangle now.
    assert tri._find_triangle_with_edge(v0, v2) is not None
    problems = tri.check_delaunay()
    assert problems == []


def test_segment_through_existing_vertex_splits():
    """A constraint through a mesh vertex becomes chained subsegments."""
    tri = _fresh([(0, 0), (1, 0), (0.5, 0.0)])
    a = tri.find_vertex((0.0, 0.0))
    b = tri.find_vertex((1.0, 0.0))
    m = tri.find_vertex((0.5, 0.0))
    tri.insert_segment(a, b)
    assert tri.is_constrained(a, m)
    assert tri.is_constrained(m, b)
    assert not tri.is_constrained(a, b)


def test_degenerate_segment_rejected():
    tri = _fresh([(0.5, 0.5)])
    with pytest.raises(ValueError):
        tri.insert_segment(3, 3)


def test_triangulate_pslg_square():
    tri = triangulate_pslg(unit_square())
    assert tri.check_delaunay() == []
    # Two triangles cover the square.
    assert tri.n_triangles == 2
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert area == pytest.approx(1.0)


def test_triangulate_pslg_pipe_removes_hole():
    pslg = pipe_cross_section(n=24)
    tri = triangulate_pslg(pslg)
    assert tri.check_delaunay() == []
    # Area must approximate the annulus area (polygonalized).
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    import math as m

    full = m.pi * (1.0**2 - 0.45**2)
    assert area == pytest.approx(full, rel=0.05)
    # No triangle's centroid may fall inside the inner hole.
    for t in tri.triangles():
        a, b, c = tri.coords(t)
        cx = (a[0] + b[0] + c[0]) / 3
        cy = (a[1] + b[1] + c[1]) / 3
        assert cx * cx + cy * cy > 0.40**2


def test_exterior_removal_drops_super_triangles():
    tri = triangulate_pslg(unit_square())
    for t in tri.alive_triangles():
        assert not any(tri.is_super_vertex(v) for v in tri.triangle_vertices(t))


def test_locate_outside_after_removal_raises():
    tri = triangulate_pslg(unit_square())
    with pytest.raises(KeyError):
        tri.locate((5.0, 5.0))


def test_split_segment_interior():
    tri = _fresh([(0, 0), (1, 0), (1, 1), (0, 1)])
    v0 = tri.find_vertex((0.0, 0.0))
    v2 = tri.find_vertex((1.0, 1.0))
    tri.insert_segment(v0, v2)
    mid = tri.split_segment(v0, v2)
    assert tri.vertex(mid) == (0.5, 0.5)
    assert tri.is_constrained(v0, mid)
    assert tri.is_constrained(mid, v2)
    assert not tri.is_constrained(v0, v2)
    assert tri.check_delaunay() == []


def test_split_segment_boundary():
    """Splitting a domain-boundary edge keeps the mesh consistent."""
    tri = triangulate_pslg(unit_square())
    # Find the boundary edge (0,0)-(1,0).
    a = tri.find_vertex((0.0, 0.0))
    b = tri.find_vertex((1.0, 0.0))
    mid = tri.split_segment(a, b)
    assert tri.vertex(mid) == (0.5, 0.0)
    assert tri.check_delaunay() == []
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert area == pytest.approx(1.0)


def test_split_segment_requires_constraint():
    tri = _fresh([(0, 0), (1, 0)])
    with pytest.raises(KeyError):
        tri.split_segment(3, 4)


def test_split_segment_refuses_a_segment_without_a_midpoint():
    """One ulp long: the midpoint rounds onto an endpoint.  Splitting used
    to return that endpoint and mark the degenerate edge (u, u)."""
    p, q = (0.5, 0.5), (0.5, math.nextafter(0.5, 1.0))
    tri = _fresh([p, q, (0.9, 0.2)])
    u, v = tri.find_vertex(p), tri.find_vertex(q)
    tri.insert_segment(u, v)
    before = (set(tri.constrained), list(tri.points))
    with pytest.raises(UnsplittableSegment):
        tri.split_segment(u, v)
    assert (tri.constrained, tri.points) == before
    assert tri.check_delaunay() == []


def test_pipe_pcdm_stops_on_the_unsplittable_segment():
    """Ruppert refinement does not terminate on the small input angles of
    this decomposition; it reaches a one-ulp subsegment within a second.
    The run stops there with the named error instead of corrupting the
    mesh (it raised a KeyError on the edge (u, u) before)."""
    with pytest.raises(UnsplittableSegment):
        run_pcdm(pipe_cross_section(), h=0.06, n_parts=4)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=0.99),
            st.floats(min_value=0.01, max_value=0.99),
        ),
        min_size=3,
        max_size=40,
    )
)
def test_random_insertion_is_delaunay(points):
    """Property: any random insertion order yields a valid Delaunay mesh."""
    tri = Triangulation(BoundingBox(0, 0, 1, 1))
    ids = set()
    for p in points:
        ids.add(tri.insert_point(p))
    assert tri.check_delaunay() == []
    assert tri.n_vertices == len(ids)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=3,
        max_size=30,
        unique=True,
    )
)
def test_integer_grid_points_exact_path(coords):
    """Integer coordinates maximize cocircularity: stresses exact fallback."""
    tri = Triangulation(BoundingBox(0, 0, 12, 12))
    for x, y in coords:
        tri.insert_point((float(x), float(y)))
    assert tri.check_delaunay() == []
