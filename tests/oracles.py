"""Reference implementations the fast kernels are tested against.

Slow on purpose and kept apart from ``src/``: the predicates in exact
rational arithmetic (what ``repro.geometry.predicates`` used as its
fallback before the integer stage), the triangulation kernel with a
two-pass fan stitch and a vertex scan for every segment
(``ParentTriangulation``), patch refinement over it with a full rescan
per insertion (what ``patch_refine`` did before it memoised triangle
verdicts, and later kept them in a heap), polling from a coroutine that
re-arms a ``Timeout`` per tick (what the runtime's thief did before
``Engine.poll``, ticking in the late slot a poll wakes in), and the
out-of-core planning paths as scans (the lazy pressure heap, full-sort
swap plans, the prefetch picker's plain loop and
the sorting ready-queue snapshot, as they were before they planned from
indexes), and the ``mesh-patch`` item codec one point at a time (what
``MeshPatchCodec`` did before a patch's points were a ``PointColumn``),
and the bad-triangle check a refined mesh must pass, one triangle at a
time through the scalar badness test, and the well-formedness check an
input PSLG must pass (no duplicate vertices, no crossing segments).
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from repro.core import computing, control
from repro.geometry.predicates import (
    Point, circumcenter, dist_sq, incircle, orient2d, segments_intersect)
from repro.geometry.pslg import PSLG, BoundingBox
from repro.mesh.sizing import SizingFunction
from repro.mesh.triangulation import NO_TRI, Triangulation
from repro.pumg.patch import PatchResult, _in_box
from repro.util.errors import OutOfMemory, SerializationError


def sign(x) -> int:
    return (x > 0) - (x < 0)


def orient2d_fraction(a: Point, b: Point, c: Point) -> int:
    """Orientation sign in rational arithmetic: -1, 0, or +1."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle_fraction(a: Point, b: Point, c: Point, d: Point) -> int:
    """Incircle sign in rational arithmetic: -1, 0, or +1."""
    ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
    bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
    cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
    return sign(
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )


class ParentTriangulation(Triangulation):
    """:class:`~repro.mesh.triangulation.Triangulation` with its point
    location, cavity search, point insertion, neighbour update and segment
    insertion as they were before the one-pass fan (verbatim): the fan is
    built, then stitched through a ``by_edge`` dict, and every segment —
    an existing edge too — scans all live triangles for vertices on it.
    Everything else is inherited, so the two must hold equal state after
    every operation.
    """

    def _set_neighbor(self, tid: int, edge: int, nbr: int) -> None:
        n = list(self._tri_n[tid])
        n[edge] = nbr
        self._tri_n[tid] = (n[0], n[1], n[2])

    def locate(self, p: Point, hint: Optional[int] = None) -> int:
        tid = hint if hint is not None and self._alive[hint] else self._last_tri
        if not self._alive[tid]:
            tid = next(self.alive_triangles())
        visited = 0
        limit = 4 * len(self._tri_v) + 16
        while True:
            visited += 1
            if visited > limit:
                raise RuntimeError("point location walk did not terminate")
            a, b, c = self._tri_v[tid]
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            moved = False
            # Edge order randomization is unnecessary: a straight walk in a
            # Delaunay triangulation cannot cycle.
            for edge, (p1, p2) in enumerate(((pb, pc), (pc, pa), (pa, pb))):
                if orient2d(p1, p2, p) < 0:
                    nbr = self._tri_n[tid][edge]
                    if nbr == NO_TRI:
                        raise KeyError(f"point {p} lies outside the mesh")
                    tid = nbr
                    moved = True
                    break
            if not moved:
                self._last_tri = tid
                return tid

    def cavity_of(
        self, p: Point, hint: Optional[int] = None, start: Optional[int] = None
    ) -> tuple[set[int], list[tuple[int, int, int]]]:
        start = self.locate(p, hint) if start is None else start
        cavity = {start}
        stack = [start]
        while stack:
            tid = stack.pop()
            a, b, c = self._tri_v[tid]
            for edge, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                nbr = self._tri_n[tid][edge]
                if nbr == NO_TRI or nbr in cavity:
                    continue
                if self.is_constrained(u, v):
                    continue
                na, nb, nc = self._tri_v[nbr]
                if incircle(
                    self.points[na], self.points[nb], self.points[nc], p
                ) > 0:
                    cavity.add(nbr)
                    stack.append(nbr)
        boundary: list[tuple[int, int, int]] = []
        for tid in cavity:
            a, b, c = self._tri_v[tid]
            for edge, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                nbr = self._tri_n[tid][edge]
                if nbr not in cavity:
                    boundary.append((u, v, nbr))
        return cavity, boundary

    def insert_point(
        self,
        p: Point,
        hint: Optional[int] = None,
        _skip_collinear_boundary: Optional[tuple[int, int]] = None,
        _start: Optional[int] = None,
    ) -> int:
        start = self.locate(p, hint) if _start is None else _start
        for v in self._tri_v[start]:
            if self.points[v] == p:
                return v

        cavity, boundary = self.cavity_of(p, start=start)
        vid = len(self.points)
        self.points.append(p)
        self._vertex_tri.append(NO_TRI)  # set by the fan construction below
        for tid in cavity:
            self._kill(tid)

        # Fan: one new triangle (vid, u, v) per boundary edge.
        new_tris: list[int] = []
        by_edge: dict[tuple[int, int], tuple[int, int]] = {}
        for u, v, outer in boundary:
            if (
                _skip_collinear_boundary is not None
                and outer == NO_TRI
                and {u, v} == set(_skip_collinear_boundary)
            ):
                continue
            tid = self._new_triangle((vid, u, v), (NO_TRI, NO_TRI, NO_TRI))
            new_tris.append(tid)
            # Edge 0 of (vid,u,v) is (u,v): faces the outside.
            self._set_neighbor(tid, 0, outer)
            if outer != NO_TRI:
                back = self._edge_index(outer, u, v)
                self._set_neighbor(outer, back, tid)
            by_edge[(u, v)] = (tid, 0)
            by_edge[(v, vid)] = (tid, 1)   # edge 1 = (v, vid)
            by_edge[(vid, u)] = (tid, 2)   # edge 2 = (vid, u)
        # Stitch the fan: edge (vid,u) of one triangle pairs with (u,vid)
        # of its neighbor in the fan.
        for (u, v), (tid, edge) in by_edge.items():
            if edge == 0:
                continue
            mate = by_edge.get((v, u))
            if mate is not None:
                self._set_neighbor(tid, edge, mate[0])

        if not new_tris:
            raise RuntimeError(f"insertion of {p} produced no triangles")
        self._last_tri = new_tris[0]
        return vid

    def insert_segment(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("degenerate segment")
        on_path = self._vertices_on_segment(u, v)
        chain = [u] + on_path + [v]
        for a, b in zip(chain, chain[1:]):
            self._insert_subsegment(a, b)


@dataclass
class RescanResult(PatchResult):
    """:class:`~repro.pumg.patch.PatchResult` plus what only a full scan
    can count."""

    deferred: int = 0           # bad triangles owned by someone else
    triangles_seen: int = 0     # in-domain triangles the scans looked at


def patch_refine_rescan(
    points: Sequence[Point],
    boundary_segments: Sequence[tuple[Point, Point]],
    sizing: SizingFunction,
    owner_box: BoundingBox | Sequence[BoundingBox],
    in_domain: Callable[[Point], bool],
    quality_bound: float = math.sqrt(2.0),
    min_length: float = 0.0,
    max_inserts: int = 200_000,
) -> RescanResult:
    """:func:`repro.pumg.patch.patch_refine` as it was before the verdict
    memo, on :class:`ParentTriangulation`: ``owned_bad_triangle``
    re-derives every live triangle's verdict on every scan.  Same
    arguments; the :class:`PatchResult` fields must come out equal.
    """
    boxes = (
        [owner_box] if isinstance(owner_box, BoundingBox) else list(owner_box)
    )

    def owned(p: Point) -> bool:
        return any(_in_box(b, p) for b in boxes)

    pts = list(points)
    if len(pts) < 3:
        return RescanResult(clean=True)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    bbox = BoundingBox(min(xs), min(ys), max(xs), max(ys))
    if bbox.width == 0 or bbox.height == 0:
        return RescanResult(clean=True)
    tri = ParentTriangulation(bbox)
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

    result = RescanResult()
    quality_sq = quality_bound * quality_bound
    min_length_sq = min_length * min_length

    skipped: set[Point] = set()

    def owned_bad_triangle() -> Optional[tuple[int, Point]]:
        """Find a bad in-domain triangle whose circumcenter we own."""
        for tid in tri.alive_triangles():
            verts = tri.triangle_vertices(tid)
            if any(tri.is_super_vertex(v) for v in verts):
                continue
            a, b, c = (tri.vertex(v) for v in verts)
            centroid = ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
            if not in_domain(centroid):
                continue
            result.triangles_seen += 1
            shortest_sq = min(dist_sq(a, b), dist_sq(b, c), dist_sq(c, a))
            if shortest_sq <= min_length_sq:
                continue
            try:
                cc = circumcenter(a, b, c)
            except ZeroDivisionError:
                continue
            if cc in skipped:
                continue  # blocked on a split another region owns
            r_sq = dist_sq(cc, a)
            h = sizing(cc)
            bad = r_sq > quality_sq * shortest_sq or r_sq > h * h
            if not bad:
                continue
            if not owned(cc):
                result.deferred += 1
                continue
            return tid, cc
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

    inserts = 0
    while True:
        if inserts > max_inserts:
            raise RuntimeError("patch refinement exceeded insertion cap")
        seg = encroached_owned_segment()
        if seg is not None:
            u, v = seg
            pu, pv = tri.vertex(u), tri.vertex(v)
            mid_vid = tri.split_segment(u, v)
            mid = tri.vertex(mid_vid)
            result.new_points.append(mid)
            result.boundary_splits.append((pu, pv, mid))
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
            center = mid
            if dist_sq(center, cc) < dist_sq(center, pu) * (1.0 - 1e-12):
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
            pu, pv = tri.vertex(u), tri.vertex(v)
            mid_vid = tri.split_segment(u, v)
            result.new_points.append(tri.vertex(mid_vid))
            result.boundary_splits.append((pu, pv, tri.vertex(mid_vid)))
            inserts += 1
            continue
        vid = tri.insert_point(cc, hint=tid)
        if vid == len(tri.points) - 1:
            result.new_points.append(cc)
            inserts += 1
        else:
            skipped.add(cc)  # duplicate vertex; cannot make progress here

    # Owned bad triangles blocked on a foreign split remain unresolved:
    # not clean, but progress resumes when the owner splits and re-dirties
    # this region.
    result.clean = not result.foreign_splits
    return result


def poll_with_timeouts(
    engine, interval: float, ready: Callable[[], object], rank: int = 0
):
    """``yield from`` this where the new code does ``yield engine.poll(...)``:
    one :class:`~repro.sim.engine.Timeout` per tick, in the poll's late
    slot, the predicate checked in the coroutine.  Returns the first truthy
    ``ready()``.
    """
    while True:
        yield engine.timeout(interval, rank=rank)
        value = ready()
        if value:
            return value


def coroutine_thief(rt, nrt):
    """``MRTS._thief`` as it was before ``Engine.poll`` (PR 14's body,
    verbatim but for ``self`` -> ``rt`` and the names that moved to
    ``repro.core.computing`` / ``repro.core.control``, and the tick moved to
    the node's late slot, the tie rule the sleeping thief wakes by); patch
    it over ``repro.core.runtime.node_thief``.
    """
    while True:
        yield rt.engine.timeout(computing.STEAL_INTERVAL_S, rank=nrt.rank)
        if nrt.active_handlers > 0 or nrt.queued_msgs > 0:
            continue
        backlogs = [0 if n is nrt else len(n.ready) for n in rt.nodes]
        victim_rank = computing.select_victim(
            backlogs, computing.STEAL_MIN_VICTIM_QUEUE
        )
        if victim_rank is None:
            continue
        oid = computing.pick_steal_candidate(rt, nrt, rt.nodes[victim_rank])
        if oid is None:
            continue
        rt.stats.node(nrt.rank).steals += 1
        # Hold a credit across the move: the steal itself must keep
        # the run alive even if the victim's queues drain meanwhile.
        rt.termination.add(1)
        yield from control.migrate_and_done(rt, oid, victim_rank, nrt.rank)


class LazyHeapPressureTier:
    """``repro.core.ooc._PressureTier`` as it was before the sorted list
    (verbatim): a lazy min-heap of ``(effective, score, oid, stamp)``,
    stale entries skipped at iteration time, compacted when they dominate.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}
        self._stamp = 0

    def __contains__(self, oid: int) -> bool:
        return oid in self._live

    def __len__(self) -> int:
        return len(self._live)

    def live_ids(self) -> list[int]:
        return list(self._live)

    def set(self, oid: int, effective: float, score: float) -> None:
        self._stamp += 1
        self._live[oid] = (effective, score, self._stamp)
        heapq.heappush(self._heap, (effective, score, oid, self._stamp))
        self._maybe_compact()

    def discard(self, oid: int) -> None:
        self._live.pop(oid, None)
        self._maybe_compact()

    def iter_in_order(self) -> Iterator[tuple[float, float, int]]:
        """Yield live ``(effective, score, oid)`` in ascending key order."""
        heap = list(self._heap)  # snapshot: iteration must not consume state
        while heap:
            effective, score, oid, stamp = heapq.heappop(heap)
            entry = self._live.get(oid)
            if entry is not None and entry[2] == stamp:
                yield effective, score, oid

    def _maybe_compact(self) -> None:
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._live):
            self._heap = [
                (eff, score, oid, stamp)
                for (eff, score, oid, stamp) in self._heap
                if self._live.get(oid, (0.0, 0.0, -1))[2] == stamp
            ]
            heapq.heapify(self._heap)


def _ranked_evictable(ooc, protect: Container[int]) -> list:
    """Every evictable record, full sort on the reference rank.

    Lower evicts sooner: priority (user hints + queued-message pressure)
    dominates, and the swap scheme's score breaks ties among objects of
    equal priority — the order ``OOCLayer.iter_eviction_candidates``
    produces incrementally.
    """
    return sorted(
        (
            rec for rec in ooc.table.values()
            if rec.resident and not rec.locked and rec.oid not in protect
        ),
        key=lambda rec: (
            ooc._effective(rec), ooc.scheme._score(rec.oid), rec.oid),
    )


def advise_swap_full_sort(ooc, protect: Container[int] = ()) -> list[int]:
    """``OOCLayer.advise_swap`` by brute force: rank everything, filter."""
    if ooc.degraded:
        want = ooc.memory_used - ooc.budget
    elif ooc.below_soft_threshold():
        want = ooc.soft_threshold() - ooc.memory_free
    else:
        return []
    if want <= 0:
        return []
    victims, freed = [], 0
    for rec in _ranked_evictable(ooc, protect):
        if rec.queued_messages > 0:
            continue
        victims.append(rec.oid)
        freed += rec.nbytes
        if freed >= want:
            break
    return victims


def plan_free_full_sort(
    ooc, need: int, protect: Container[int] = ()
) -> list[int]:
    """``OOCLayer._plan_free`` over a full sort, with the parent's two
    phases spelled out: victims in rank order until ``need`` fits, then
    only unused objects until the hard-threshold headroom.  Leaves the
    layer's counters alone.
    """
    target_free = need + ooc.hard_threshold()
    if ooc.memory_free >= target_free:
        return []
    ranked = _ranked_evictable(ooc, protect)
    victims, freed = [], 0
    while ranked and ooc.memory_free + freed < need:
        rec = ranked.pop(0)
        victims.append(rec.oid)
        freed += rec.nbytes
    if ooc.memory_free + freed < need:
        raise OutOfMemory(f"need {need} B")
    for rec in ranked:
        if ooc.memory_free + freed >= target_free:
            break
        if rec.queued_messages > 0 or rec.priority > 0:
            continue
        victims.append(rec.oid)
        freed += rec.nbytes
    return victims


def prefetch_candidates_scan(
    ooc,
    upcoming: Iterable[int],
    skip: Container[int] = (),
    limit: Optional[int] = None,
) -> list[int]:
    """``OOCLayer.prefetch_candidates`` as it was before the early exits
    (the parent's loop, verbatim): every hint is looked at until the
    limit is reached.
    """
    picks: list[int] = []
    seen: set[int] = set()
    if limit is None:
        limit = ooc.config.prefetch_depth
    budget = ooc.memory_free - ooc.hard_threshold()
    for oid in upcoming:
        if len(picks) >= limit:
            break
        if oid in seen or oid in skip:
            continue
        seen.add(oid)
        rec = ooc.table.get(oid)
        if rec is None or rec.resident:
            continue
        if rec.nbytes <= budget:
            picks.append(oid)
            budget -= rec.nbytes
    return picks


def sorted_snapshot(queue) -> list[int]:
    """``ReadyQueue.snapshot`` as it was (verbatim): sort members by seq."""
    return sorted(queue._entries, key=lambda oid: queue._entries[oid][0])


def mesh_patch_encode_per_point(items) -> bytes:
    """``MeshPatchCodec.encode_items`` as it was (verbatim): one length
    check and two ``float()`` calls per point."""
    flat = array("d")
    for p in items:
        if len(p) != 2:
            raise SerializationError(
                f"mesh-patch points must be 2-D, got {p!r}"
            )
        flat.append(float(p[0]))
        flat.append(float(p[1]))
    return flat.tobytes()


def mesh_patch_decode_per_point(data: bytes) -> list:
    """``MeshPatchCodec.decode_items`` as it was (verbatim): a list of
    ``(x, y)`` tuples built point by point."""
    flat = array("d")
    if len(data) % flat.itemsize:
        raise SerializationError(
            f"coordinate array of {len(data)} B is not a whole "
            "number of float64s"
        )
    flat.frombytes(bytes(data))
    if len(flat) % 2:
        raise SerializationError("odd coordinate count in mesh patch")
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def find_bad_triangles(
    tri: Triangulation,
    quality_bound: float = math.sqrt(2.0),
    sizing: Optional[SizingFunction] = None,
    min_length: float = 0.0,
) -> list[tuple[int, int, int]]:
    """Vertex triples of every live triangle violating the quality/size
    criteria, by the scalar test alone (no batch scan)."""
    from repro.mesh.refine import _triangle_badness

    quality_sq = quality_bound * quality_bound
    min_length_sq = min_length * min_length
    return [
        verts
        for tid in tri.alive_triangles()
        for verts in (tri.triangle_vertices(tid),)
        if not any(tri.is_super_vertex(v) for v in verts)
        and _triangle_badness(tri, verts, quality_sq, sizing, min_length_sq)
    ]


def validate_pslg(pslg: PSLG) -> None:
    """Check an input PSLG's well-formedness; raises ValueError on problems.

    * no duplicate vertices (within 1e-12 of each other),
    * no segment indices out of range,
    * no two segments crossing at interior points (shared endpoints ok).
    """
    n = len(pslg.vertices)
    for k, p in enumerate(pslg.vertices):
        for m in range(k + 1, n):
            if dist_sq(p, pslg.vertices[m]) < 1e-24:
                raise ValueError(f"duplicate vertices {k} and {m} at {p}")
    for i, j in pslg.segments:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"segment ({i},{j}) out of range")
    for a in range(len(pslg.segments)):
        i1, j1 = pslg.segments[a]
        for b in range(a + 1, len(pslg.segments)):
            i2, j2 = pslg.segments[b]
            if {i1, j1} & {i2, j2}:
                continue  # sharing an endpoint is legal
            if segments_intersect(
                pslg.vertices[i1], pslg.vertices[j1],
                pslg.vertices[i2], pslg.vertices[j2],
            ):
                raise ValueError(
                    f"segments {a} and {b} intersect away from endpoints"
                )
