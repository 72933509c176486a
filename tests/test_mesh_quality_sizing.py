"""Tests for quality metrics and sizing functions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.mesh import (
    MeshQuality,
    point_source_sizing,
    triangle_angles,
    triangle_area,
    triangle_quality,
    uniform_sizing,
)
from repro.mesh.sizing import sizing_from_spec

# ----------------------------------------------------------------- quality
EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))


def test_equilateral_quality():
    assert triangle_quality(*EQUILATERAL) == pytest.approx(1 / math.sqrt(3))


def test_right_triangle_quality():
    # Circumradius of right triangle = half hypotenuse; shortest edge = 1.
    q = triangle_quality((0, 0), (1, 0), (0, 1))
    assert q == pytest.approx(math.sqrt(2) / 2)


def test_degenerate_quality_is_inf():
    assert triangle_quality((0, 0), (0, 0), (1, 1)) == math.inf


def test_angles_sum_to_pi():
    angles = triangle_angles(*EQUILATERAL)
    assert sum(angles) == pytest.approx(math.pi)
    for a in angles:
        assert a == pytest.approx(math.pi / 3)


@given(
    st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
    ),
    st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
    ),
    st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
    ),
)
def test_angles_sum_property(a, b, c):
    area = triangle_area(a, b, c)
    if area < 1e-6:
        return
    assert sum(triangle_angles(a, b, c)) == pytest.approx(math.pi, abs=1e-6)


def test_triangle_area():
    assert triangle_area((0, 0), (2, 0), (0, 2)) == pytest.approx(2.0)
    assert triangle_area((0, 0), (1, 1), (2, 2)) == 0.0


def test_mesh_quality_summary():
    tris = [(0, 1, 2), (1, 3, 2)]
    pts = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}

    def coords(t):
        return tuple(pts[v] for v in t)

    quality = MeshQuality.of(tris, coords)
    assert quality.n_triangles == 2
    assert quality.total_area == pytest.approx(1.0)
    assert quality.min_angle_deg == pytest.approx(45.0)
    assert quality.max_angle_deg == pytest.approx(90.0)


def test_mesh_quality_empty_rejected():
    with pytest.raises(ValueError):
        MeshQuality.of([], lambda t: t)


# ------------------------------------------------------------------ sizing
def test_uniform_sizing():
    size = uniform_sizing(0.5)
    assert size((0, 0)) == 0.5
    assert size((100, -3)) == 0.5
    with pytest.raises(ValueError):
        uniform_sizing(0.0)
    assert sizing_from_spec(("uniform", 0.5))((100, -3)) == 0.5
    with pytest.raises(ValueError):
        sizing_from_spec(("warp", 1.0))


def test_point_source_sizing_values():
    size = point_source_sizing([((0.0, 0.0), 0.01)], background=1.0, gradation=0.5)
    assert size((0.0, 0.0)) == pytest.approx(0.01)
    assert size((1.0, 0.0)) == pytest.approx(0.51)
    assert size((100.0, 0.0)) == 1.0  # capped at background


def test_point_source_multiple_sources_take_min():
    size = point_source_sizing(
        [((0.0, 0.0), 0.1), ((1.0, 0.0), 0.01)], background=1.0
    )
    assert size((1.0, 0.0)) == pytest.approx(0.01)


def test_point_source_validation():
    with pytest.raises(ValueError):
        point_source_sizing([((0, 0), -1.0)], background=1.0)
    with pytest.raises(ValueError):
        point_source_sizing([], background=0.0)


@given(
    x=st.floats(-10, 10),
    y=st.floats(-10, 10),
)
def test_point_source_never_exceeds_background(x, y):
    size = point_source_sizing([((0.0, 0.0), 0.05)], background=0.7)
    assert 0.0 < size((x, y)) <= 0.7
