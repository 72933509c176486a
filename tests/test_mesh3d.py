"""Tests for the 3D extruded-prism PUMG variant (repro.mesh3d).

Prism predicates (volume/size/quality, bisection conservation), the
layered 3D sizing, the block decomposition, end-to-end refinement
on the unmodified MRTS (uniform and anisotropic layered sizing), the
2:1 face-balance invariant, morton3 locality keys, and the serve-layer
mesh3d job.
"""

import math
import random

import pytest

from repro.core.packfile import morton3
from repro.mesh3d import (
    Prism,
    bisect_prism,
    initial_prisms,
    prism_quality,
    prism_size,
    prism_volume,
    run_mesh3d,
    sizing3_from_spec,
)
from repro.mesh3d.driver import _block_grid
from repro.serve.meshjob import JobSpec, run_job_solo
from repro.testing.invariants import check_mesh3d

UNIT = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def _random_prisms(n, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        a = (rng.uniform(0, 1), rng.uniform(0, 1))
        b = (a[0] + rng.uniform(0.05, 1), a[1] + rng.uniform(-0.5, 0.5))
        c = (a[0] + rng.uniform(-0.5, 0.5), a[1] + rng.uniform(0.05, 1))
        z0 = rng.uniform(0, 1)
        out.append(Prism(a, b, c, z0, z0 + rng.uniform(0.05, 1)))
    return out


# -------------------------------------------------------------- predicates
def test_prism_volume_and_size():
    p = Prism((0, 0), (1, 0), (0, 1), 0.0, 2.0)
    assert prism_volume(p) == pytest.approx(0.5 * 2.0)
    # Longest extent: height 2 beats the sqrt(2) hypotenuse.
    assert prism_size(p) == pytest.approx(2.0)


def test_prism_quality_penalizes_anisotropy():
    fat = Prism((0, 0), (1, 0), (0.5, math.sqrt(3) / 2), 0.0, 1.0)
    flat = Prism((0, 0), (1, 0), (0.5, math.sqrt(3) / 2), 0.0, 0.05)
    assert prism_quality(fat) < prism_quality(flat)


def test_initial_prisms_tile_the_box():
    box = (0.0, 0.0, 0.0, 2.0, 3.0, 4.0)
    cells = initial_prisms(box)
    assert len(cells) == 2
    assert sum(prism_volume(c) for c in cells) == pytest.approx(24.0)


def test_bisect_conserves_volume_exactly():
    for p in _random_prisms(50):
        lo, hi = bisect_prism(p)
        assert lo.level == p.level + 1 and hi.level == p.level + 1
        # Exact conservation (not approx): the invariant check relies
        # on bisection introducing no volume drift.
        assert prism_volume(lo) + prism_volume(hi) == pytest.approx(
            prism_volume(p), rel=1e-12
        )


def test_bisect_tall_prism_splits_height():
    p = Prism((0, 0), (0.1, 0), (0, 0.1), 0.0, 1.0)
    lo, hi = bisect_prism(p)
    assert lo.z1 == hi.z0 == pytest.approx(0.5)
    assert lo.a == p.a and hi.a == p.a


def test_bisect_flat_prism_splits_longest_edge():
    p = Prism((0, 0), (1, 0), (0, 0.4), 0.0, 0.1)
    lo, hi = bisect_prism(p)
    assert lo.z0 == hi.z0 == 0.0 and lo.z1 == hi.z1 == 0.1
    assert prism_size(lo) < prism_size(p)


# ------------------------------------------------------------------ sizing
def test_layered_sizing_grades_in_z():
    sizing = sizing3_from_spec(("layered", 0.01, 0.5))
    assert sizing((0.5, 0.5, 0.0)) == pytest.approx(0.01)
    assert sizing((0.5, 0.5, 1.0)) == pytest.approx(0.5)
    assert 0.01 < sizing((0.5, 0.5, 0.5)) < 0.5
    # Equal ends are the uniform size, bit for bit, inside [z_lo, z_hi]
    # and clamped outside it: the mesh3d-uniform golden relies on this.
    h = 0.3
    uniform = sizing3_from_spec(("layered", h, h))
    for z in (0.0, 0.5, 1.0, -0.25, 1.75):
        assert uniform((0.5, 0.5, z)) == h


def test_unknown_sizing3_spec_rejected():
    with pytest.raises(ValueError):
        sizing3_from_spec(("spherical", 0.1))


# ----------------------------------------------------------- block grid
def test_block_grid_adjacency_and_colors():
    blocks = _block_grid(UNIT, 2, 2, 2)
    assert len(blocks) == 8
    assert sorted(b["color"] for b in blocks) == list(range(8))
    corner = blocks[0]
    assert corner["ijk"] == (0, 0, 0)
    assert sorted(corner["neighbors"]) == [1, 2, 4]
    middle_run = _block_grid(UNIT, 3, 3, 3)
    center = next(b for b in middle_run if b["ijk"] == (1, 1, 1))
    assert len(center["neighbors"]) == 6


def test_morton3_locality_key():
    assert morton3(0, 0, 0) == 0
    assert morton3(1, 0, 0) == 1
    assert morton3(0, 1, 0) == 2
    assert morton3(0, 0, 1) == 4
    assert morton3(3, 3, 3) == 63
    # Z-order: grid neighbors land near each other on the curve.
    assert abs(morton3(2, 3, 1) - morton3(3, 3, 1)) < 8


# ------------------------------------------------------------- end to end
def test_mesh3d_uniform_run_converges():
    res = run_mesh3d(("layered", 0.3, 0.3), nx=2, ny=2, nz=2)
    assert res.total_volume == pytest.approx(1.0, rel=1e-9)
    assert res.n_cells > 16
    assert math.isfinite(res.worst_quality)
    assert res.extras["phases"] >= 2
    assert check_mesh3d(res.extras["patch_objects"], bounds=UNIT) == []


def test_mesh3d_layered_run_is_anisotropic():
    res = run_mesh3d(("layered", 0.08, 0.6), nx=2, ny=2, nz=2)
    assert res.total_volume == pytest.approx(1.0, rel=1e-9)
    # The bottom layer refines far harder than the top: the per-patch
    # cell skew is the anisotropic workload the scheduler must absorb.
    assert res.extras["cells_per_patch_max"] >= 4 * res.extras[
        "cells_per_patch_min"
    ]
    assert check_mesh3d(res.extras["patch_objects"], bounds=UNIT) == []


def test_mesh3d_face_balance_holds():
    res = run_mesh3d(("layered", 0.08, 0.6), nx=2, ny=2, nz=2)
    patches = res.extras["patch_objects"]
    from repro.mesh3d.objects import BALANCE_RATIO

    by_id = {p.patch_id: p for p in patches}
    checked = 0
    for p in patches:
        for rid in p.neighbor_ids:
            mine = p.face_min_size(rid)
            theirs = by_id[rid].face_min_size(p.patch_id)
            if math.isinf(mine) or math.isinf(theirs):
                continue
            assert mine <= BALANCE_RATIO * theirs + 1e-9
            checked += 1
    assert checked > 0


def test_check_mesh3d_flags_imbalance():
    res = run_mesh3d(("layered", 0.4, 0.4), nx=2, ny=1, nz=1)
    patches = res.extras["patch_objects"]
    # Over-refine one patch behind the invariant checker's back.
    victim = patches[0]
    for _ in range(5):
        victim.cells = [
            half for c in victim.cells for half in bisect_prism(c)
        ]
    problems = check_mesh3d(patches)
    assert any("balance violated" in p for p in problems)


# ------------------------------------------------------------ serve layer
def test_serve_mesh3d_job_runs_and_validates():
    spec = JobSpec.from_request(
        dict(method="mesh3d", h=0.25, nx=2, ny=2, nz=2,
             memory_bytes=256 * 1024)
    )
    job = run_job_solo(spec)
    assert job.violations == []
    assert job.result_summary()["n_points"] > 16


def test_serve_mesh3d_job_is_deterministic():
    spec = JobSpec.from_request(
        dict(method="mesh3d", h=0.25, nx=2, ny=2, nz=1,
             memory_bytes=256 * 1024)
    )
    a, b = run_job_solo(spec), run_job_solo(spec)
    assert a.state_digest() == b.state_digest()


def test_jobspec_mesh3d_round_trips():
    spec = JobSpec.from_request(
        dict(method="mesh3d", h=0.3, nx=2, ny=2, nz=3,
             memory_bytes=256 * 1024)
    )
    assert spec.nz == 3
    assert JobSpec.from_request(spec.to_dict()) == spec
