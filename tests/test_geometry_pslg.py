"""Tests for PSLG inputs and the canned domains."""

import pytest

from oracles import validate_pslg
from repro.geometry import (
    PSLG,
    gear_domain,
    pipe_cross_section,
    plate_with_holes,
    unit_square,
)
from repro.serve.meshjob import GEOMETRIES


def test_add_vertex_and_segment():
    pslg = PSLG()
    i = pslg.add_vertex((0, 0))
    j = pslg.add_vertex((1, 0))
    pslg.add_segment(i, j)
    assert pslg.segments == [(0, 1)]


def test_add_segment_validation():
    pslg = PSLG()
    pslg.add_vertex((0, 0))
    with pytest.raises(IndexError):
        pslg.add_segment(0, 5)
    with pytest.raises(ValueError):
        pslg.add_segment(0, 0)


def test_add_loop_closes():
    pslg = PSLG()
    idx = pslg.add_loop([(0, 0), (1, 0), (0, 1)])
    assert len(idx) == 3
    assert (idx[-1], idx[0]) in pslg.segments or (idx[0], idx[-1]) in pslg.segments


def test_add_loop_too_short():
    with pytest.raises(ValueError):
        PSLG().add_loop([(0, 0), (1, 0)])


def test_bounding_box():
    pslg = unit_square()
    box = pslg.bounding_box()
    assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0, 0, 1, 1)
    assert box.width == 1 and box.height == 1
    assert box.center == (0.5, 0.5)


def test_bounding_box_empty_raises():
    with pytest.raises(ValueError):
        PSLG().bounding_box()


def test_validate_accepts_good_pslgs():
    # Every domain the service accepts, built as the service builds it.
    for name, make in GEOMETRIES.items():
        try:
            validate_pslg(make())
        except ValueError as exc:
            pytest.fail(f"{name}: {exc}")


def test_validate_rejects_duplicate_vertices():
    pslg = PSLG()
    pslg.add_vertex((0, 0))
    pslg.add_vertex((0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        validate_pslg(pslg)


def test_validate_rejects_crossing_segments():
    pslg = PSLG()
    a = pslg.add_vertex((0, 0))
    b = pslg.add_vertex((1, 1))
    c = pslg.add_vertex((0, 1))
    d = pslg.add_vertex((1, 0))
    pslg.add_segment(a, b)
    pslg.add_segment(c, d)
    with pytest.raises(ValueError, match="intersect"):
        validate_pslg(pslg)


def test_pipe_has_hole():
    pslg = pipe_cross_section()
    assert pslg.holes == [(0.0, 0.0)]
    assert len(pslg.segments) == 2 * 48


def test_pipe_parameter_validation():
    with pytest.raises(ValueError):
        pipe_cross_section(inner=1.5, outer=1.0)


def test_plate_hole_count():
    pslg = plate_with_holes(3)
    assert len(pslg.holes) == 3
    with pytest.raises(ValueError):
        plate_with_holes(2, width=1.0, radius=0.9)


def test_gear_validation():
    with pytest.raises(ValueError):
        gear_domain(teeth=2)
    with pytest.raises(ValueError):
        gear_domain(root=1.5)


def test_bbox_expand_contains():
    box = unit_square().bounding_box().expanded(0.5)
    assert box.contains((-0.4, -0.4))
    assert not box.contains((-0.6, 0.0))
