"""Tests for Ruppert refinement: quality bounds, sizing, conformity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import pipe_cross_section, plate_with_holes, unit_square
from oracles import find_bad_triangles
from repro.mesh import (
    MeshQuality,
    refine,
    triangulate_pslg,
    uniform_sizing,
    point_source_sizing,
)
from repro.mesh.quality import triangle_area


def _refined_square(h=0.2, **kw):
    tri = triangulate_pslg(unit_square())
    result = refine(tri, sizing=uniform_sizing(h), **kw)
    return tri, result


def test_refine_square_reaches_quality():
    tri, result = _refined_square(h=0.15)
    assert result.steiner_points > 0
    assert find_bad_triangles(tri, sizing=uniform_sizing(0.15)) == []
    quality = MeshQuality.of(tri.triangles(), tri.coords)
    # B = sqrt(2) guarantees min angle >= arcsin(1/(2B)) ~ 20.7 degrees.
    assert quality.min_angle_deg > 20.0


def test_refine_preserves_area():
    tri, _ = _refined_square(h=0.2)
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert area == pytest.approx(1.0, rel=1e-9)


def test_refine_is_conforming_delaunay():
    tri, _ = _refined_square(h=0.2)
    assert tri.check_delaunay() == []


def test_smaller_h_gives_more_triangles():
    coarse, _ = _refined_square(h=0.3)
    fine, _ = _refined_square(h=0.1)
    assert fine.n_triangles > coarse.n_triangles


def test_refine_pipe_cross_section():
    """The Table VII geometry meshes cleanly with a hole."""
    tri = triangulate_pslg(pipe_cross_section(n=24))
    refine(tri, sizing=uniform_sizing(0.12))
    assert tri.check_delaunay() == []
    quality = MeshQuality.of(tri.triangles(), tri.coords)
    assert quality.min_angle_deg > 15.0  # boundary angles cap at polygon facets
    full = math.pi * (1.0**2 - 0.45**2)
    assert quality.total_area == pytest.approx(full, rel=0.05)


def test_refine_plate_with_holes():
    tri = triangulate_pslg(plate_with_holes(2))
    refine(tri, sizing=uniform_sizing(0.15))
    assert tri.check_delaunay() == []


def test_graded_sizing_concentrates_elements():
    """Point-source sizing must put far more triangles near the source."""
    tri = triangulate_pslg(unit_square())
    sizing = point_source_sizing(
        [((0.0, 0.0), 0.02)], background=0.3, gradation=0.2
    )
    refine(tri, sizing=sizing)
    near = far = 0
    for t in tri.triangles():
        a, b, c = tri.coords(t)
        cx = (a[0] + b[0] + c[0]) / 3
        cy = (a[1] + b[1] + c[1]) / 3
        if cx * cx + cy * cy < 0.25**2:
            near += 1
        elif cx * cx + cy * cy > 0.75**2:
            far += 1
    # Compare triangle *densities*: the near quarter-disk is ~11x smaller
    # in area than the far region, so equal densities would mean near ~ far/11.
    near_area = 3.14159 * 0.25**2 / 4.0
    far_area = 1.0 - 3.14159 * 0.75**2 / 4.0
    assert near / near_area > 5 * (max(far, 1) / far_area)


def test_refine_quality_only_no_sizing():
    tri = triangulate_pslg(unit_square())
    result = refine(tri)  # only the B bound; square needs nothing
    assert result.steiner_points == 0
    assert tri.n_triangles == 2


def test_quality_bound_below_one_rejected():
    tri = triangulate_pslg(unit_square())
    with pytest.raises(ValueError):
        refine(tri, quality_bound=0.5)


def test_max_steiner_cap_enforced():
    tri = triangulate_pslg(unit_square())
    with pytest.raises(RuntimeError, match="exceeded"):
        refine(tri, sizing=uniform_sizing(0.01), max_steiner=10)


def test_min_length_floor_stops_refinement():
    tri = triangulate_pslg(unit_square())
    result = refine(tri, sizing=uniform_sizing(0.05), min_length=0.5)
    # Floor far above target size: essentially nothing happens.
    assert result.steiner_points <= 4


def test_boundary_stays_conforming():
    """All four unit-square sides must still be covered by constrained edges."""
    tri, _ = _refined_square(h=0.1)
    for u, v in tri.constrained:
        pu, pv = tri.vertex(u), tri.vertex(v)
        on_boundary = (
            pu[0] == pv[0] == 0.0
            or pu[0] == pv[0] == 1.0
            or pu[1] == pv[1] == 0.0
            or pu[1] == pv[1] == 1.0
        )
        assert on_boundary, f"constrained edge {pu}-{pv} strayed off the boundary"


def test_result_counters_consistent():
    tri, result = _refined_square(h=0.12)
    assert result.steiner_points == result.segment_splits + result.circumcenters
    assert len(result.touched) == result.steiner_points


@settings(max_examples=10, deadline=None)
@given(h=st.floats(min_value=0.08, max_value=0.5))
def test_refinement_terminates_and_validates(h):
    """Property: any uniform size in range terminates with a valid mesh."""
    tri = triangulate_pslg(unit_square())
    refine(tri, sizing=uniform_sizing(h))
    assert tri.check_delaunay() == []
    assert find_bad_triangles(tri, sizing=uniform_sizing(h)) == []
