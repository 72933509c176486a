"""Tests for patch meshing helpers: mesh_subdomain and patch_refine."""

import pytest

from oracles import patch_refine_rescan
from repro.geometry import PSLG, unit_square
from repro.geometry.pslg import BoundingBox
from repro.mesh.quality import triangle_area
from repro.mesh.sizing import uniform_sizing
from repro.pumg import mesh_subdomain, patch_refine
from repro.pumg.decomposition import partition_coarse_mesh


# ----------------------------------------------------------- mesh_subdomain
def test_mesh_subdomain_square():
    pslg = unit_square()
    tri = mesh_subdomain(pslg, seeds=[(0.5, 0.5)])
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert area == pytest.approx(1.0)
    assert tri.check_delaunay() == []


def test_mesh_subdomain_keeps_only_seeded_regions():
    """An hourglass of two squares: only the seeded one survives."""
    pslg = PSLG()
    pslg.add_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    pslg.add_loop([(2, 0), (3, 0), (3, 1), (2, 1)])
    tri = mesh_subdomain(pslg, seeds=[(0.5, 0.5)])
    area = sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert area == pytest.approx(1.0)  # the second square was dropped


def test_mesh_subdomain_no_seed_raises():
    pslg = unit_square()
    with pytest.raises(ValueError, match="seed"):
        mesh_subdomain(pslg, seeds=[(5.0, 5.0)])


def test_mesh_subdomain_partition_parts_mesh_cleanly():
    partition = partition_coarse_mesh(unit_square(), 3)
    total = 0.0
    for p in range(3):
        tri = mesh_subdomain(partition.sub_pslgs[p], partition.part_seeds[p])
        total += sum(triangle_area(*tri.coords(t)) for t in tri.triangles())
    assert total == pytest.approx(1.0, rel=1e-9)


# ------------------------------------------------------------- patch_refine
def _grid_points(n):
    return [(i / n, j / n) for i in range(n + 1) for j in range(n + 1)]


def test_patch_refine_inserts_only_in_owner_box():
    pts = _grid_points(4)
    owner = BoundingBox(0.0, 0.0, 0.5, 0.5)
    result = patch_refine(
        pts, [], uniform_sizing(0.08), owner, in_domain=lambda p: True
    )
    for p in result.new_points:
        assert 0.0 <= p[0] <= 0.5 and 0.0 <= p[1] <= 0.5
    assert result.new_points  # target size below grid spacing: must insert


def test_patch_refine_multiple_owner_boxes():
    pts = _grid_points(4)
    boxes = [BoundingBox(0, 0, 0.5, 0.5), BoundingBox(0.5, 0, 1.0, 0.5)]
    result = patch_refine(
        pts, [], uniform_sizing(0.08), boxes, in_domain=lambda p: True
    )
    for p in result.new_points:
        assert p[1] <= 0.5 + 1e-9  # lower half only


def test_patch_refine_respects_in_domain():
    pts = _grid_points(4)
    owner = BoundingBox(0, 0, 1, 1)
    # Domain excludes everything: nothing is ever bad.
    result = patch_refine(
        pts, [], uniform_sizing(0.05), owner, in_domain=lambda p: False
    )
    assert result.new_points == []
    assert result.clean


def test_patch_refine_splits_boundary_segments():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.4)]
    segs = [((0.0, 0.0), (1.0, 0.0))]
    owner = BoundingBox(0, 0, 1, 1)
    result = patch_refine(
        pts, segs, uniform_sizing(0.2), owner, in_domain=lambda p: True
    )
    assert result.boundary_splits
    for pu, pv, mid in result.boundary_splits:
        assert mid == ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)


def test_patch_refine_too_few_points_is_clean():
    result = patch_refine(
        [(0.0, 0.0)], [], uniform_sizing(0.1),
        BoundingBox(0, 0, 1, 1), in_domain=lambda p: True,
    )
    assert result.clean and not result.new_points


def test_patch_refine_min_length_floor():
    pts = _grid_points(2)
    result = patch_refine(
        pts, [], uniform_sizing(0.01), BoundingBox(0, 0, 1, 1),
        in_domain=lambda p: True, min_length=0.4,
    )
    # Floor close to grid spacing: barely anything can be refined.
    assert len(result.new_points) <= 4


# ------------------------------------- bad-triangle heap vs the full rescan
def _same_result(fast, slow):
    assert fast.new_points == slow.new_points  # same points, same order
    assert fast.boundary_splits == slow.boundary_splits
    assert fast.foreign_splits == slow.foreign_splits
    assert fast.clean == slow.clean


def test_patch_refine_memo_matches_full_rescan_on_a_grid():
    pts = _grid_points(6)
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    segments = list(zip(square, square[1:] + square[:1]))
    boxes = [BoundingBox(0.0, 0.0, 0.5, 0.5), BoundingBox(0.5, 0.0, 1.0, 0.5)]
    for owner in (boxes[0], boxes):
        args = (pts, segments, uniform_sizing(0.06), owner)
        inside = unit_square().contains
        _same_result(
            patch_refine(*args, in_domain=inside),
            patch_refine_rescan(*args, in_domain=inside),
        )


@pytest.mark.parametrize("method", ["updr", "nupdr"])
def test_patch_refine_memo_matches_full_rescan_in_real_runs(method, monkeypatch):
    """Every patch a PDR run refines — boundary segments, buffer zones,
    foreign splits, min-length floors — goes through both versions."""
    from repro.pumg import objects, run_nupdr, run_updr

    compared = []  # the rescan's results: only a full scan counts these

    def both(*args, **kwargs):
        fast = patch_refine(*args, **kwargs)
        slow = patch_refine_rescan(*args, **kwargs)
        _same_result(fast, slow)
        compared.append(slow)
        return fast

    monkeypatch.setattr(objects, "patch_refine", both)
    if method == "updr":
        run_updr(unit_square(), h=0.08, nx=3, ny=3, validate=False)
    else:
        graded = ("point_source", [((0.0, 0.0), 0.03)], 0.25, 0.3)
        run_nupdr(unit_square(), graded, granularity=6.0, validate=False)
    assert len(compared) > 10
    assert sum(r.triangles_seen for r in compared) > 500
    assert any(r.deferred for r in compared)
    assert any(r.boundary_splits for r in compared)
