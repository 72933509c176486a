"""Ruppert-style Delaunay refinement.

This is the guaranteed-quality meshing loop at the heart of every PUMG
method in the paper: repeatedly insert circumcenters of poor-quality (or
oversized) triangles, deferring to midpoint splits of *encroached*
constrained subsegments so the boundary stays conforming.

Rules (Ruppert '95, as engineered in Shewchuk's Triangle):

1. A constrained subsegment is *encroached* if a vertex (or a candidate
   insertion point) lies strictly inside its diametral circle.
2. Encroached subsegments are split at their midpoint, with priority over
   triangle work.
3. A triangle is *bad* if its circumradius-to-shortest-edge ratio exceeds
   ``quality_bound`` (guaranteeing a minimum angle) or its circumradius
   exceeds the sizing function at its circumcenter.
4. A bad triangle is fixed by inserting its circumcenter — unless the
   circumcenter would encroach some subsegment, in which case that
   subsegment is split instead and the triangle is retried later.

Termination: for quality_bound >= sqrt(2) and domains without acute input
angles Ruppert's analysis guarantees termination.  We additionally support
a ``min_length`` floor (triangles/segments below it are left alone) and an
insertion cap as engineering safety nets for hostile inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.geometry.predicates import (
    Point,
    circumcenter,
    dist_sq,
)
from repro.mesh.sizing import SizingFunction
from repro.mesh.triangulation import NO_TRI, Triangulation

__all__ = ["RefinementResult", "refine"]

DEFAULT_QUALITY_BOUND = math.sqrt(2.0)

# Full-mesh scans below this triangle count stay on the scalar path: numpy
# dispatch overhead beats the loop for tiny meshes.
_BATCH_MIN = 64


@dataclass
class RefinementResult:
    """What the refinement loop did.

    ``steiner_points`` counts inserted vertices; ``segment_splits`` the
    subset that split constrained subsegments; ``touched`` collects vertex
    ids inserted (the PUMG layers use it to track inter-subdomain impact).
    """

    steiner_points: int = 0
    segment_splits: int = 0
    circumcenters: int = 0
    rejected_centers: int = 0
    touched: list[int] = field(default_factory=list)


def _is_encroached(tri: Triangulation, u: int, v: int, p: Point) -> bool:
    """Is ``p`` strictly inside the diametral circle of subsegment (u, v)?"""
    pu, pv = tri.vertex(u), tri.vertex(v)
    center = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
    return dist_sq(center, p) < dist_sq(center, pu) * (1.0 - 1e-12)


def _segment_encroached_by_mesh(tri: Triangulation, u: int, v: int) -> bool:
    """Is (u, v) encroached by the apex of an adjacent triangle?

    In a constrained Delaunay triangulation it suffices to test the apexes
    of the one or two triangles sharing the subsegment: if any vertex lies
    in the diametral circle then in particular the nearest one does, and the
    nearest visible vertex is an adjacent apex.
    """
    tid = tri._find_triangle_with_edge(u, v)
    if tid is None:
        return False
    seen = False
    for t in (tid, tri.triangle_neighbors(tid)[tri._edge_index(tid, u, v)]):
        if t == NO_TRI:
            continue
        for w in tri.triangle_vertices(t):
            if w in (u, v):
                continue
            if _is_encroached(tri, u, v, tri.vertex(w)):
                seen = True
    return seen


def _triangle_badness(
    tri: Triangulation,
    verts: tuple[int, int, int],
    quality_sq: float,
    sizing: Optional[SizingFunction],
    min_length_sq: float,
) -> bool:
    a, b, c = (tri.vertex(v) for v in verts)
    shortest_sq = min(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
    if shortest_sq <= min_length_sq:
        return False  # protected: refining further would not terminate
    try:
        cc = circumcenter(a, b, c)
    except ZeroDivisionError:
        return False  # degenerate; nothing sane to do
    r_sq = dist_sq(cc, a)
    if r_sq > quality_sq * shortest_sq:
        return True
    if sizing is not None:
        h = sizing(cc)
        if r_sq > h * h:
            return True
    return False


def circumcenter_batch(a, b, c):
    """Circumcenters of n triangles given as (n, 2) float64 arrays.

    Degenerate rows (zero doubled area in float) come back as NaN.
    """
    import numpy as np

    acx, acy = a[:, 0] - c[:, 0], a[:, 1] - c[:, 1]
    bcx, bcy = b[:, 0] - c[:, 0], b[:, 1] - c[:, 1]
    d = 2.0 * (acx * bcy - acy * bcx)
    a2, b2 = acx ** 2 + acy ** 2, bcx ** 2 + bcy ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.stack([c[:, 0] + (a2 * bcy - b2 * acy) / d,
                        c[:, 1] + (b2 * acx - a2 * bcx) / d], axis=1)
    out[d == 0.0] = np.nan
    return out


def shortest_edge_sq_batch(a, b, c):
    """Squared shortest edge of n triangles given as (n, 2) arrays."""
    import numpy as np

    ab, bc, ca = ((p - q) ** 2 for p, q in ((a, b), (b, c), (c, a)))
    return np.minimum(np.minimum(ab.sum(axis=1), bc.sum(axis=1)),
                      ca.sum(axis=1))


def _bad_mask_batch(
    pts_idx,
    pts,
    quality_sq: float,
    sizing: Optional[SizingFunction],
    min_length_sq: float,
):
    """Vectorized badness over n triangles; returns (bad, recheck) masks.

    ``pts_idx`` is an (n, 3) vertex-index array into ``pts`` (m, 2).
    Rows flagged ``recheck`` (circumcenter underflowed/degenerate in
    float) must be settled by the exact scalar :func:`_triangle_badness`,
    mirroring the filter/exact split of the scalar predicates.
    """
    import numpy as np

    a = pts[pts_idx[:, 0]]
    b = pts[pts_idx[:, 1]]
    c = pts[pts_idx[:, 2]]
    short_sq = shortest_edge_sq_batch(a, b, c)
    protected = short_sq <= min_length_sq
    cc = circumcenter_batch(a, b, c)
    with np.errstate(invalid="ignore"):
        r_sq = (cc[:, 0] - a[:, 0]) ** 2 + (cc[:, 1] - a[:, 1]) ** 2
    finite = np.isfinite(r_sq)
    bad = np.zeros(len(pts_idx), dtype=bool)
    with np.errstate(invalid="ignore"):
        bad[finite] = r_sq[finite] > quality_sq * short_sq[finite]
    if sizing is not None:
        h = np.empty(len(pts_idx))
        h.fill(np.inf)
        rows = np.flatnonzero(finite)
        h[rows] = [sizing((x, y)) for x, y in cc[rows]]
        bad |= finite & (r_sq > h * h)
    bad &= ~protected
    recheck = ~finite & ~protected
    return bad, recheck


def _scan_bad_triangles(
    tri: Triangulation,
    quality_sq: float,
    sizing: Optional[SizingFunction],
    min_length_sq: float,
) -> list[tuple[int, tuple[int, int, int]]]:
    """(tid, verts) of every alive non-super triangle violating the criteria.

    The full-mesh scan is the hot loop of every sweep; above
    :data:`_BATCH_MIN` triangles it runs through :func:`_bad_mask_batch`
    and only falls back to the scalar test for rows the float filter
    cannot decide — the scalar and batch paths are property-tested equal.
    """
    entries = [
        (tid, verts)
        for tid in tri.alive_triangles()
        for verts in (tri.triangle_vertices(tid),)
        if not any(tri.is_super_vertex(v) for v in verts)
    ]
    if len(entries) < _BATCH_MIN:
        return [
            e for e in entries
            if _triangle_badness(tri, e[1], quality_sq, sizing, min_length_sq)
        ]
    import numpy as np

    pts = np.asarray(tri.points, dtype=np.float64)
    idx = np.asarray([verts for _, verts in entries], dtype=np.intp)
    bad, recheck = _bad_mask_batch(idx, pts, quality_sq, sizing, min_length_sq)
    out = []
    for i, entry in enumerate(entries):
        if bad[i] or (
            recheck[i]
            and _triangle_badness(
                tri, entry[1], quality_sq, sizing, min_length_sq
            )
        ):
            out.append(entry)
    return out


def refine(
    tri: Triangulation,
    quality_bound: float = DEFAULT_QUALITY_BOUND,
    sizing: Optional[SizingFunction] = None,
    min_length: float = 0.0,
    max_steiner: int = 2_000_000,
    on_split=None,
) -> RefinementResult:
    """Refine ``tri`` in place until no bad triangles remain.

    Parameters mirror Triangle's: ``quality_bound`` is the circumradius /
    shortest-edge bound B (minimum angle = arcsin(1/2B)); ``sizing`` caps
    circumradius locally; ``min_length`` is a safety floor below which
    nothing is split; ``max_steiner`` bounds total insertions (RuntimeError
    beyond it — a sign of an input with sharp angles needing preprocessing).
    """
    if quality_bound < 1.0:
        raise ValueError("quality bound below 1 is unachievable")
    result = RefinementResult()
    quality_sq = quality_bound * quality_bound
    min_length_sq = min_length * min_length

    seg_queue: deque[tuple[int, int]] = deque()
    queued_segs: set[tuple[int, int]] = set()

    def queue_segment(u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if key in tri.constrained and key not in queued_segs:
            queued_segs.add(key)
            seg_queue.append(key)

    tri_queue: deque[tuple[int, tuple[int, int, int]]] = deque()

    def queue_triangle(tid: int, verts: tuple[int, int, int]) -> None:
        tri_queue.append((tid, verts))

    def scan_all() -> None:
        for u, v in list(tri.constrained):
            if _segment_encroached_by_mesh(tri, u, v):
                queue_segment(u, v)
        for tid, verts in _scan_bad_triangles(
            tri, quality_sq, sizing, min_length_sq
        ):
            queue_triangle(tid, verts)

    def after_insert(vid: int) -> None:
        """Re-examine the neighborhood of a fresh vertex."""
        result.steiner_points += 1
        result.touched.append(vid)
        p = tri.vertex(vid)
        # New triangles are exactly those incident to vid.
        for tid in tri._triangles_around(vid):
            verts = tri.triangle_vertices(tid)
            if _triangle_badness(tri, verts, quality_sq, sizing, min_length_sq):
                queue_triangle(tid, verts)
            a, b, c = verts
            for u, v in ((b, c), (c, a), (a, b)):
                if tri.is_constrained(u, v) and _is_encroached(tri, u, v, p):
                    queue_segment(u, v)

    def split_queued_segment(key: tuple[int, int]) -> None:
        u, v = key
        queued_segs.discard(key)
        if key not in tri.constrained:
            return  # already split via another path
        pu, pv = tri.vertex(u), tri.vertex(v)
        if dist_sq(pu, pv) <= 4.0 * min_length_sq:
            return  # too short to split further
        mid = tri.split_segment(u, v)
        result.segment_splits += 1
        if on_split is not None:
            on_split(pu, pv, tri.vertex(mid))
        after_insert(mid)
        for half in ((u, mid), (mid, v)):
            if _segment_encroached_by_mesh(tri, *half):
                queue_segment(*half)

    scan_all()
    while seg_queue or tri_queue:
        if result.steiner_points > max_steiner:
            raise RuntimeError(
                f"refinement exceeded {max_steiner} insertions; "
                "input may have unmeshable sharp features"
            )
        if seg_queue:
            split_queued_segment(seg_queue.popleft())
            continue
        tid, verts = tri_queue.popleft()
        # Staleness check: the triangle may have died since queueing.
        try:
            if tri.triangle_vertices(tid) != verts:
                continue
        except KeyError:
            continue
        if not _triangle_badness(tri, verts, quality_sq, sizing, min_length_sq):
            continue
        a, b, c = (tri.vertex(v) for v in verts)
        center = circumcenter(a, b, c)
        # Dry-run the insertion cavity; reject if the center would encroach
        # any constrained edge on or inside the cavity.
        def splittable(u: int, v: int) -> bool:
            # Segments at/below twice the floor cannot be split further; a
            # triangle whose relief depends on them is protected, else the
            # reject-requeue cycle would never terminate.
            return dist_sq(tri.vertex(u), tri.vertex(v)) > 4.0 * min_length_sq

        try:
            cavity, boundary = tri.cavity_of(center, hint=tid)
        except (KeyError, RuntimeError):
            # Walk left the domain: the center lies beyond some boundary
            # subsegment, which is therefore encroached.  Find and split
            # the nearest constrained edge of this triangle's region.
            encroached = [
                (u, v)
                for u, v in _constrained_edges_near(tri, tid, center)
                if splittable(u, v)
            ]
            if not encroached:
                continue
            for u, v in encroached:
                queue_segment(u, v)
            queue_triangle(tid, verts)
            result.rejected_centers += 1
            continue
        encroached = [
            (u, v)
            for u, v, _outer in boundary
            if tri.is_constrained(u, v) and _is_encroached(tri, u, v, center)
        ]
        if encroached:
            worth_splitting = [s for s in encroached if splittable(*s)]
            if not worth_splitting:
                continue  # protected by the min-length floor; give up
            for u, v in worth_splitting:
                queue_segment(u, v)
            queue_triangle(tid, verts)
            result.rejected_centers += 1
            continue
        vid = tri.insert_point(center, hint=tid)
        if vid < len(tri.points) - 1:
            continue  # duplicate of an existing vertex; give up on this one
        result.circumcenters += 1
        after_insert(vid)
    return result


def _constrained_edges_near(
    tri: Triangulation, tid: int, target: Point
) -> list[tuple[int, int]]:
    """Constrained edges crossed walking from triangle ``tid`` to ``target``.

    Used when a circumcenter falls outside the (sub)domain: the boundary
    edge the walk would cross is encroached by construction.
    """
    from repro.geometry.predicates import orient2d, segments_intersect

    hits = []
    a, b, c = tri.triangle_vertices(tid)
    pa, pb, pc = tri.vertex(a), tri.vertex(b), tri.vertex(c)
    interior = (
        (pa[0] + pb[0] + pc[0]) / 3.0,
        (pa[1] + pb[1] + pc[1]) / 3.0,
    )
    for u, v in ((b, c), (c, a), (a, b)):
        if tri.is_constrained(u, v) and segments_intersect(
            interior, target, tri.vertex(u), tri.vertex(v)
        ):
            hits.append((u, v))
    if not hits:
        # Fall back: any constrained edge of this triangle.
        for u, v in ((b, c), (c, a), (a, b)):
            if tri.is_constrained(u, v):
                hits.append((u, v))
    return hits
