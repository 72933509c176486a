"""Patch meshing helpers shared by the PUMG methods.

Two building blocks:

* :func:`mesh_subdomain` — PCDM-style: build the constrained Delaunay mesh
  of one subdomain from its boundary PSLG, keeping only the regions that
  contain a seed point (subdomains may be non-convex, with other parts or
  domain holes adjacent).
* :func:`patch_refine` — UPDR/NUPDR-style: given the *points* of a leaf or
  block plus its buffer zone and the domain-boundary subsegments crossing
  the region, rebuild the local Delaunay patch and refine it, inserting
  only points owned by the region (circumcenter / split midpoint inside
  the owner box).  This is the buffer-zone trick of the PDR family: a wide
  enough buffer makes the patch interior identical to the global mesh, so
  per-leaf refinement composes into a valid global refinement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.geometry.predicates import Point, circumcenter, dist_sq
from repro.geometry.pslg import PSLG, BoundingBox
from repro.mesh.sizing import SizingFunction
from repro.mesh.triangulation import NO_TRI, Triangulation

__all__ = ["mesh_subdomain", "PatchResult", "build_patch", "patch_refine"]


def mesh_subdomain(sub_pslg: PSLG, seeds: Sequence[Point]) -> Triangulation:
    """CDT of a subdomain boundary PSLG, restricted to seeded regions.

    Regions are maximal sets of triangles connected across non-constrained
    edges; a region survives iff it contains one of ``seeds`` (centroids of
    the part's coarse triangles).
    """
    if len(sub_pslg.vertices) < 3:
        raise ValueError("subdomain boundary needs at least 3 vertices")
    tri = Triangulation(sub_pslg.bounding_box())
    vids = [tri.insert_point(p) for p in sub_pslg.vertices]
    for i, j in sub_pslg.segments:
        tri.insert_segment(vids[i], vids[j])
    # Region labelling by flood fill across non-constrained edges.
    region: dict[int, int] = {}
    n_regions = 0
    for tid in tri.alive_triangles():
        if tid in region:
            continue
        label = n_regions
        n_regions += 1
        stack = [tid]
        region[tid] = label
        while stack:
            t = stack.pop()
            a, b, c = tri.triangle_vertices(t)
            for edge, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                nbr = tri.triangle_neighbors(t)[edge]
                if nbr == NO_TRI or nbr in region:
                    continue
                if tri.is_constrained(u, v):
                    continue
                region[nbr] = label
                stack.append(nbr)
    keep: set[int] = set()
    for seed in seeds:
        try:
            tid = tri.locate(seed)
        except KeyError:
            continue
        if any(tri.is_super_vertex(v) for v in tri.triangle_vertices(tid)):
            continue  # seed landed outside the boundary loops
        keep.add(region[tid])
    if not keep:
        raise ValueError("no seed fell inside the subdomain boundary")
    tri.remove_triangles([
        tid for tid in tri.alive_triangles()
        if region[tid] not in keep
        or any(tri.is_super_vertex(v) for v in tri.triangle_vertices(tid))
    ])
    return tri


@dataclass
class PatchResult:
    """Outcome of one patch refinement pass."""

    new_points: list[Point] = field(default_factory=list)
    # Each split: (endpoint_a, endpoint_b, midpoint) of a constrained
    # domain-boundary subsegment the pass divided.
    boundary_splits: list[tuple[Point, Point, Point]] = field(default_factory=list)
    # Midpoints of constrained segments that must be split to make progress
    # but belong to another region — the caller dirties their owner.
    foreign_splits: list[Point] = field(default_factory=list)
    clean: bool = True          # no *owned* bad triangles remain unresolved


def _in_box(box: BoundingBox, p: Point) -> bool:
    return box.xmin <= p[0] <= box.xmax and box.ymin <= p[1] <= box.ymax


def build_patch(
    points: Sequence[Point], boundary_segments: Sequence[tuple[Point, Point]]
) -> Optional[Triangulation]:
    """``points`` in order, then the boundary subsegments (an endpoint not
    among the points is inserted first); None if there is nothing to mesh
    (fewer than three points, or a flat bounding box)."""
    pts = list(points)
    if len(pts) < 3:
        return None
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    bbox = BoundingBox(min(xs), min(ys), max(xs), max(ys))
    if bbox.width == 0 or bbox.height == 0:
        return None
    tri = Triangulation(bbox)
    for p in pts:
        tri.insert_point(p)
    for pu, pv in boundary_segments:
        u = tri.find_vertex(pu)
        v = tri.find_vertex(pv)
        if u is None:
            u = tri.insert_point(pu)
        if v is None:
            v = tri.insert_point(pv)
        if u != v:
            tri.insert_segment(u, v)
    return tri


def patch_refine(
    points: Sequence[Point],
    boundary_segments: Sequence[tuple[Point, Point]],
    sizing: SizingFunction,
    owner_box: BoundingBox | Sequence[BoundingBox],
    in_domain: Callable[[Point], bool],
    quality_bound: float = math.sqrt(2.0),
    min_length: float = 0.0,
    max_inserts: int = 200_000,
) -> PatchResult:
    """Refine the local patch, inserting only points inside ``owner_box``.

    ``points`` are the vertices of the leaf plus its buffer zone;
    ``boundary_segments`` the current domain-boundary subsegments whose
    both endpoints fall within the patch; ``owner_box`` — one box (strict
    ownership: UPDR blocks) or several (leaf + buffer boxes: NUPDR, whose
    protocol returns buffer-resident points to their owners afterwards) —
    limits which insertions this pass may perform; ``in_domain`` classifies
    patch triangles (patches carry no exterior removal — triangles outside
    the domain are simply ignored).
    """
    boxes = (
        [owner_box] if isinstance(owner_box, BoundingBox) else list(owner_box)
    )

    def owned(p: Point) -> bool:
        return any(_in_box(b, p) for b in boxes)

    tri = build_patch(points, boundary_segments)
    if tri is None:
        return PatchResult(clean=True)

    result = PatchResult()
    quality_sq = quality_bound * quality_bound
    min_length_sq = min_length * min_length

    skipped: set[Point] = set()
    # (tid, vertex tuple, circumcenter) of every owned bad in-domain
    # triangle, lowest tid first.  A triangle's verdict depends on its
    # vertices alone and only insertions make triangles, so each one is
    # classified once: all of them after the build, then the star of each
    # new vertex.  Tids are recycled; an entry is current only while the
    # triangle still holds the very tuple it was made from (the entry keeps
    # that tuple alive, so ``is`` cannot be fooled).
    bad: list[tuple[int, tuple[int, int, int], Point]] = []

    def classify(tids: Iterable[int]) -> None:
        for tid in tids:
            verts = tri.triangle_vertices(tid)
            if min(verts) < 3:
                continue  # a super-triangle vertex
            a, b, c = tri.coords(verts)
            centroid = ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
            if not in_domain(centroid):
                continue
            shortest_sq = min(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
            if shortest_sq <= min_length_sq:
                continue
            try:
                cc = circumcenter(a, b, c)
            except ZeroDivisionError:
                continue
            r_sq = dist_sq(cc, a)
            h = sizing(cc)
            if (r_sq > quality_sq * shortest_sq or r_sq > h * h) and owned(cc):
                heapq.heappush(bad, (tid, verts, cc))

    def owned_bad_triangle() -> Optional[tuple[int, Point]]:
        """The lowest-tid current entry not blocked on a foreign split."""
        while bad:
            tid, verts, cc = bad[0]
            if (tri.is_alive(tid) and tri.triangle_vertices(tid) is verts
                    and cc not in skipped):
                return tid, cc
            heapq.heappop(bad)  # dead, replaced, or skipped for good
        return None

    def encroached_owned_segment() -> Optional[tuple[int, int]]:
        for u, v in list(tri.constrained):
            pu, pv = tri.vertex(u), tri.vertex(v)
            mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
            if not owned(mid):
                continue
            if dist_sq(pu, pv) <= 4.0 * min_length_sq:
                continue
            # Encroached by an adjacent apex?
            tid = tri._find_triangle_with_edge(u, v)
            if tid is None:
                continue
            r_sq = dist_sq(mid, pu)
            for t in (
                tid,
                tri.triangle_neighbors(tid)[tri._edge_index(tid, u, v)],
            ):
                if t == NO_TRI:
                    continue
                for w in tri.triangle_vertices(t):
                    if w in (u, v) or tri.is_super_vertex(w):
                        continue
                    if dist_sq(mid, tri.vertex(w)) < r_sq * (1.0 - 1e-12):
                        return (u, v)
        return None

    def split(u: int, v: int) -> None:
        pu, pv = tri.vertex(u), tri.vertex(v)
        mid_vid = tri.split_segment(u, v)
        mid = tri.vertex(mid_vid)
        result.new_points.append(mid)
        result.boundary_splits.append((pu, pv, mid))
        classify(tri._triangles_around(mid_vid))

    classify(tri.alive_triangles())
    inserts = 0
    while True:
        if inserts > max_inserts:
            raise RuntimeError("patch refinement exceeded insertion cap")
        seg = encroached_owned_segment()
        if seg is not None:
            split(*seg)
            inserts += 1
            continue
        found = owned_bad_triangle()
        if found is None:
            break
        tid, cc = found
        # The circumcenter may encroach a constrained segment: split that
        # instead (only if we own the split; otherwise skip this triangle —
        # the owner leaf will handle it when its pass runs).
        cavity, boundary = tri.cavity_of(cc, hint=tid)
        encroached = None
        for u, v, _outer in boundary:
            if not tri.is_constrained(u, v):
                continue
            pu, pv = tri.vertex(u), tri.vertex(v)
            mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
            if dist_sq(mid, cc) < dist_sq(mid, pu) * (1.0 - 1e-12):
                encroached = (u, v, mid)
                break
        if encroached is not None:
            u, v, mid = encroached
            protected = dist_sq(
                tri.vertex(u), tri.vertex(v)
            ) <= 4.0 * min_length_sq
            if protected:
                # Nobody may split this (min-length floor): give up on the
                # triangle, exactly as plain Ruppert would.
                skipped.add(cc)
                continue
            if not owned(mid):
                # The split belongs to a neighboring region: report it so
                # the driver dirties that region, and move on.
                skipped.add(cc)
                result.foreign_splits.append(mid)
                continue
            split(u, v)
            inserts += 1
            continue
        vid = tri.insert_point(cc, hint=tid)
        if vid == len(tri.points) - 1:
            result.new_points.append(cc)
            inserts += 1
            classify(tri._triangles_around(vid))
        else:
            skipped.add(cc)  # duplicate vertex; cannot make progress here

    # Owned bad triangles blocked on a foreign split remain unresolved:
    # not clean, but progress resumes when the owner splits and re-dirties
    # this region.
    result.clean = not result.foreign_splits
    return result
