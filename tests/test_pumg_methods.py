"""End-to-end tests for UPDR, NUPDR, PCDM and their out-of-core variants.

These are the integration tests of the whole stack: decomposition + MRTS +
patch meshing.  Scale is kept small (hundreds of triangles) so the suite
stays fast; the paper-scale behaviour is exercised by `repro.evalsim`.
"""

import math

import pytest

from repro.core import MRTSConfig, FileBackend
from repro.geometry import unit_square, pipe_cross_section
from oracles import find_bad_triangles
from repro.mesh.sizing import sizing_from_spec
from repro.pumg import (
    ONUPDROptions,
    default_cluster,
    run_nupdr,
    run_pcdm,
    run_updr,
    sequential_mesh,
)

GRADED = ("point_source", [((0.0, 0.0), 0.03)], 0.25, 0.3)


# ---------------------------------------------------------------------- UPDR
def test_updr_meets_sizing_and_quality():
    res = run_updr(unit_square(), h=0.1, nx=3, ny=3)
    assert res.quality.min_angle_deg > 18.0
    assert find_bad_triangles(
        res.final_mesh, sizing=sizing_from_spec(("uniform", 0.1))
    ) == []
    assert res.quality.total_area == pytest.approx(1.0, rel=1e-6)


def test_updr_comparable_to_sequential():
    seq = sequential_mesh(unit_square(), ("uniform", 0.1))
    res = run_updr(unit_square(), h=0.1, nx=3, ny=3)
    # Parallel refinement produces a similar-size mesh (within 2.5x; the
    # patchwork inserts somewhat more points than the greedy sequential).
    assert seq.n_vertices * 0.5 <= res.n_points <= seq.n_vertices * 2.5


def test_updr_uses_color_phases():
    res = run_updr(unit_square(), h=0.12, nx=2, ny=2)
    assert res.extras["phases"] >= 2
    assert res.extras["launches"] >= 4


def test_updr_runs_multinode():
    res = run_updr(
        unit_square(), h=0.12, nx=3, ny=3, cluster=default_cluster(n_nodes=3)
    )
    assert res.stats.messages_sent > 0
    assert res.quality.min_angle_deg > 18.0


# --------------------------------------------------------------------- NUPDR
def test_nupdr_graded_mesh_complete():
    res = run_nupdr(unit_square(), GRADED, granularity=6.0)
    assert find_bad_triangles(
        res.final_mesh, sizing=sizing_from_spec(GRADED)
    ) == []
    assert res.quality.min_angle_deg > 18.0
    assert res.extras["n_leaves"] > 1


def test_nupdr_leaf_count_tracks_granularity():
    coarse = run_nupdr(unit_square(), GRADED, granularity=8.0)
    fine = run_nupdr(unit_square(), GRADED, granularity=4.0)
    assert fine.extras["n_leaves"] > coarse.extras["n_leaves"]


def test_nupdr_multicast_variant_matches():
    plain = run_nupdr(unit_square(), GRADED, granularity=6.0)
    mcast = run_nupdr(
        unit_square(), GRADED, granularity=6.0,
        options=ONUPDROptions(multicast=True),
    )
    assert find_bad_triangles(
        mcast.final_mesh, sizing=sizing_from_spec(GRADED)
    ) == []
    # Same order of work regardless of collection mechanism.
    assert abs(mcast.n_points - plain.n_points) <= max(10, plain.n_points)


def test_nupdr_optimizations_off_still_correct():
    options = ONUPDROptions(
        lock_queue=False,
        direct_calls=False,
        reorder_queue=False,
        priorities=False,
    )
    res = run_nupdr(unit_square(), GRADED, granularity=6.0, options=options)
    assert find_bad_triangles(
        res.final_mesh, sizing=sizing_from_spec(GRADED)
    ) == []


def test_nupdr_queue_protocol_counters():
    res = run_nupdr(unit_square(), GRADED, granularity=6.0)
    assert res.extras["dispatches"] == res.extras["updates"]
    assert res.extras["dispatches"] >= res.extras["n_leaves"]


# ---------------------------------------------------------------------- PCDM
def test_pcdm_subdomains_meet_quality():
    res = run_pcdm(unit_square(), h=0.08, n_parts=4)
    assert res.extras["min_angle_deg"] > 18.0
    assert res.n_triangles > 50


def test_pcdm_interfaces_conform():
    """The defining property: both sides of an interface share identical
    subsegment sets (hence identical vertices) after refinement."""
    res = run_pcdm(unit_square(), h=0.08, n_parts=4)
    objs = res.extras["subdomain_objects"]
    by_pair = {}
    for obj in objs:
        for key, neighbor in obj.interface.items():
            pair = (min(obj.part_id, neighbor), max(obj.part_id, neighbor))
            by_pair.setdefault(pair, {}).setdefault(obj.part_id, set()).add(key)
    assert by_pair, "expected at least one interface"
    for pair, sides in by_pair.items():
        assert len(sides) == 2, f"interface {pair} tracked on one side only"
        a, b = pair
        assert sides[a] == sides[b], f"interface {pair} does not conform"


def test_pcdm_sends_split_messages():
    res = run_pcdm(unit_square(), h=0.06, n_parts=4)
    assert res.extras["splits_sent"] > 0


def test_pcdm_total_size_comparable_to_sequential():
    seq = sequential_mesh(unit_square(), ("uniform", 0.08))
    res = run_pcdm(unit_square(), h=0.08, n_parts=4)
    assert seq.n_triangles * 0.5 <= res.n_triangles <= seq.n_triangles * 2.5


def test_pcdm_on_pipe_geometry():
    res = run_pcdm(pipe_cross_section(24), h=0.15, n_parts=4)
    assert res.extras["min_angle_deg"] > 15.0
    area = math.pi * (1.0**2 - 0.45**2)
    # Sum of subdomain triangle counts must cover the annulus roughly.
    assert res.n_triangles > 50


# -------------------------------------------------------------- out-of-core
def test_onupdr_out_of_core_spills_and_completes():
    """The headline capability: same app, tiny memory, must spill to disk
    and still produce the complete mesh."""
    cluster = default_cluster(n_nodes=2, cores=1, memory_bytes=20_000)
    res = run_nupdr(
        unit_square(), GRADED, granularity=4.0, cluster=cluster
    )
    assert res.stats.objects_stored > 0
    assert res.stats.objects_loaded > 0
    assert find_bad_triangles(
        res.final_mesh, sizing=sizing_from_spec(GRADED)
    ) == []


def test_oupdr_out_of_core_with_real_files(tmp_path):
    backends = {}

    def factory(rank):
        backends[rank] = FileBackend(tmp_path / f"node{rank}")
        return backends[rank]

    cluster = default_cluster(n_nodes=2, cores=1, memory_bytes=30_000)
    res = run_updr(
        unit_square(), h=0.1, nx=3, ny=3, cluster=cluster,
        storage_factory=factory,
    )
    assert res.stats.objects_stored > 0
    assert res.quality.min_angle_deg > 18.0


def test_opcdm_out_of_core():
    cluster = default_cluster(n_nodes=2, cores=1, memory_bytes=40_000)
    res = run_pcdm(unit_square(), h=0.08, n_parts=6, cluster=cluster)
    assert res.stats.objects_stored > 0
    assert res.extras["min_angle_deg"] > 18.0


def test_out_of_core_result_matches_in_core():
    """Spilling must not change the computation's *outcome*: the mesh is
    complete and of comparable size.  (Exact point sets may differ — swap
    timing legitimately reorders refinements, like thread timing would.)"""
    in_core = run_nupdr(unit_square(), GRADED, granularity=6.0)
    ooc = run_nupdr(
        unit_square(), GRADED, granularity=6.0,
        cluster=default_cluster(n_nodes=2, cores=2, memory_bytes=20_000),
    )
    assert ooc.stats.objects_stored > 0
    assert find_bad_triangles(
        ooc.final_mesh, sizing=sizing_from_spec(GRADED)
    ) == []
    assert abs(ooc.n_points - in_core.n_points) <= max(15, in_core.n_points // 2)
