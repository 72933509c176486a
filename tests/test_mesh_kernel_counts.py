"""Count gates on the patch mesher.

A stopwatch in tier-1 would be noise; how much geometry a mesh run does
and how many triangles its searches look at are exact functions of the
input.  Counted from outside, as ``tests/test_planning_scaling.py`` does —
kernel methods and the predicate names ``repro.mesh.triangulation`` calls
are wrapped, nothing in ``src/`` counts for us — on one UPDR run of the
``updr_mesh_ooc`` bench input: the unit square at h = 0.05 on 4 x 4
blocks, 2 nodes x 1 core x 64 KiB, ``FixedCostModel(1e-4)``.

* The geometric work is pinned: insertions and predicate calls equal the
  counts the run made before the bad-triangle heap (a change there moves
  the mesh, and every digest with it).
* A segment that is already an edge is only marked, so the vertex scan for
  points on a segment never runs here.
* The bad-triangle search looks at each triangle a bounded number of
  times: per ``patch_refine`` call, the live triangles it scans or whose
  star it classifies are at most twice the triangles alive after the
  build plus those created after it.  (Exactly once each now: 12 116
  visits for 10 998 + 1 118.  The rescan made 23 612, up to 5.6 times the
  bound's base on one call.)
"""

import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.geometry import unit_square
from repro.mesh import triangulation
from repro.mesh.triangulation import Triangulation
from repro.pumg import objects, patch, run_updr
from repro.sim.cluster import ClusterSpec
from repro.sim.node import NodeSpec
from repro.testing.harness import FixedCostModel

KiB = 1024
PATCH_FILE = patch.__file__

# What the run did before the heap, the one-pass fan and the existing-edge
# shortcut (the parent kernel on this very input).
PINNED = {"insert_point": 5_786, "incircle": 42_190, "orient2d": 80_552}


@dataclass
class Refine:
    """One ``patch_refine`` call."""

    alive_after_build: int = -1   # set by the first scan from patch.py
    created: int = 0              # triangles made after the build
    visited: int = 0              # triangles the search looked at


def _count(monkeypatch) -> tuple[Counter, list[Refine]]:
    calls: Counter = Counter()
    refines: list[Refine] = []
    current: list = [None]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("incircle", "orient2d"):
        monkeypatch.setattr(
            triangulation, name, counted(name, getattr(triangulation, name)))
    for name in ("insert_point", "_vertices_on_segment"):
        monkeypatch.setattr(
            Triangulation, name, counted(name, getattr(Triangulation, name)))

    def tally(it, r):
        for tid in it:
            r.visited += 1
            yield tid

    alive_triangles = Triangulation.alive_triangles
    triangles_around = Triangulation._triangles_around
    new_triangle = Triangulation._new_triangle

    def counted_alive(self):
        r = current[0]
        if r is None:
            return alive_triangles(self)
        if r.alive_after_build < 0:
            if sys._getframe(1).f_code.co_filename != PATCH_FILE:
                return alive_triangles(self)  # still building
            r.alive_after_build = sum(self._alive)
        return tally(alive_triangles(self), r)

    def counted_around(self, vid):
        r = current[0]
        if (r is None or r.alive_after_build < 0
                or sys._getframe(1).f_code.co_filename != PATCH_FILE):
            return triangles_around(self, vid)  # edge lookups, not search
        return tally(triangles_around(self, vid), r)

    def counted_new(self, *args):
        r = current[0]
        if r is not None and r.alive_after_build >= 0:
            r.created += 1
        return new_triangle(self, *args)

    patch_refine = objects.patch_refine

    def counted_refine(*args, **kwargs):
        current[0] = Refine()
        try:
            return patch_refine(*args, **kwargs)
        finally:
            refines.append(current[0])
            current[0] = None

    monkeypatch.setattr(Triangulation, "alive_triangles", counted_alive)
    monkeypatch.setattr(Triangulation, "_triangles_around", counted_around)
    monkeypatch.setattr(Triangulation, "_new_triangle", counted_new)
    monkeypatch.setattr(objects, "patch_refine", counted_refine)
    return calls, refines


@pytest.fixture(scope="module")
def counts():
    with pytest.MonkeyPatch.context() as mp:
        calls, refines = _count(mp)
        cluster = ClusterSpec(
            n_nodes=2, node=NodeSpec(cores=1, memory_bytes=64 * KiB))
        result = run_updr(unit_square(), h=0.05, nx=4, ny=4, cluster=cluster,
                          cost_model=FixedCostModel(1e-4), validate=False)
    assert result.n_points > 0.3 / 0.05 ** 2
    assert sum(n.ooc.evictions for n in result.runtime.nodes) > 0  # spilled
    return calls, refines


@pytest.mark.parametrize("name", sorted(PINNED))
def test_geometric_work_is_pinned(counts, name):
    calls, _ = counts
    assert calls[name] == PINNED[name]


def test_existing_edges_skip_the_vertex_scan(counts):
    calls, _ = counts
    assert calls["_vertices_on_segment"] == 0


def test_bad_triangle_search_visits_each_triangle_a_bounded_number_of_times(
        counts):
    _, refines = counts
    assert len(refines) > 50
    for r in refines:
        if r.alive_after_build < 0:
            continue  # too few points: returned before building
        assert r.visited <= 2 * (r.alive_after_build + r.created)
