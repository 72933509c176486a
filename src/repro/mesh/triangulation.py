"""Incremental constrained Delaunay triangulation (Bowyer–Watson).

This is the sequential meshing kernel every PUMG method builds on — the
role Triangle and the authors' in-house meshers play in the paper.  It is
written from scratch:

* incremental point insertion via cavity retriangulation (Bowyer–Watson),
* point location by remembering-walk,
* constraint segment insertion by cavity re-triangulation of the two
  pseudo-polygons flanking the segment (Anglada-style),
* exterior/hole removal by flood fill across non-constrained edges,
* a full Delaunay validity checker used by the tests.

Data structure: triangle soup with adjacency.  Triangle ``t`` stores its
three vertex ids counterclockwise; edge ``i`` is the edge *opposite* vertex
``i``; ``neighbor(t, i)`` is the triangle across edge ``i`` (or -1).
Constrained edges block both cavity growth and flips, which keeps the
triangulation *constrained* Delaunay at all times.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.geometry.predicates import Point, incircle, orient2d
from repro.geometry.pslg import PSLG, BoundingBox

__all__ = ["Triangulation", "UnsplittableSegment", "triangulate_pslg"]

NO_TRI = -1


class UnsplittableSegment(RuntimeError):
    """The midpoint of a subsegment rounds to one of its endpoints."""


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Triangulation:
    """A mutable 2D constrained Delaunay triangulation.

    Create one from a bounding box (a super-triangle enclosing it is added
    automatically), insert points and constraint segments, then optionally
    :meth:`remove_exterior`.  The three super-triangle vertices occupy ids
    0, 1, 2 and are excluded from the reported mesh.
    """

    def __init__(self, bbox: BoundingBox) -> None:
        margin = max(bbox.diagonal, 1.0) * 16.0
        cx, cy = bbox.center
        # A triangle comfortably containing the expanded box.
        self.points: list[Point] = [
            (cx - 3.0 * margin, cy - margin),
            (cx + 3.0 * margin, cy - margin),
            (cx, cy + 3.0 * margin),
        ]
        self._super = (0, 1, 2)
        # Parallel arrays: vertices (ccw triples), neighbors, liveness.
        self._tri_v: list[tuple[int, int, int]] = [(0, 1, 2)]
        self._tri_n: list[tuple[int, int, int]] = [(NO_TRI, NO_TRI, NO_TRI)]
        self._alive: list[bool] = [True]
        self._free: list[int] = []
        self._last_tri = 0  # walk hint
        # One (possibly stale) incident triangle per vertex: makes star
        # enumeration O(degree) instead of O(#triangles).
        self._vertex_tri: list[int] = [0, 0, 0]
        self.constrained: set[tuple[int, int]] = set()
        self._exterior_removed = False

    # ------------------------------------------------------------- accessors
    @property
    def n_vertices(self) -> int:
        """Number of real (non-super) vertices."""
        return len(self.points) - 3

    def vertex(self, vid: int) -> Point:
        return self.points[vid]

    def is_super_vertex(self, vid: int) -> bool:
        return vid < 3

    def is_alive(self, tid: int) -> bool:
        return self._alive[tid]

    def triangle_vertices(self, tid: int) -> tuple[int, int, int]:
        if not self._alive[tid]:
            raise KeyError(f"triangle {tid} is dead")
        return self._tri_v[tid]

    def triangle_neighbors(self, tid: int) -> tuple[int, int, int]:
        if not self._alive[tid]:
            raise KeyError(f"triangle {tid} is dead")
        return self._tri_n[tid]

    def alive_triangles(self) -> Iterator[int]:
        for tid, alive in enumerate(self._alive):
            if alive:
                yield tid

    def triangles(self) -> Iterator[tuple[int, int, int]]:
        """Vertex triples of real triangles (no super vertices)."""
        for tid in self.alive_triangles():
            tri = self._tri_v[tid]
            if not any(v < 3 for v in tri):
                yield tri

    @property
    def n_triangles(self) -> int:
        """Number of real triangles."""
        return sum(1 for _ in self.triangles())

    def coords(self, tri: tuple[int, int, int]) -> tuple[Point, Point, Point]:
        return (self.points[tri[0]], self.points[tri[1]], self.points[tri[2]])

    def is_constrained(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self.constrained

    # ------------------------------------------------------------ allocation
    def _new_triangle(
        self, verts: tuple[int, int, int], nbrs: tuple[int, int, int]
    ) -> int:
        if self._free:
            tid = self._free.pop()
            self._tri_v[tid] = verts
            self._tri_n[tid] = nbrs
            self._alive[tid] = True
        else:
            tid = len(self._tri_v)
            self._tri_v.append(verts)
            self._tri_n.append(nbrs)
            self._alive.append(True)
        for v in verts:
            self._vertex_tri[v] = tid
        return tid

    def _kill(self, tid: int) -> None:
        self._alive[tid] = False
        self._free.append(tid)

    def _set_neighbor(self, tid: int, edge: int, nbr: int) -> None:
        n0, n1, n2 = self._tri_n[tid]
        self._tri_n[tid] = (
            (nbr, n1, n2) if edge == 0 else
            (n0, nbr, n2) if edge == 1 else (n0, n1, nbr)
        )

    def _edge_index(self, tid: int, u: int, v: int) -> int:
        """Index of the edge {u, v} in triangle ``tid``."""
        a, b, c = self._tri_v[tid]
        if {b, c} == {u, v}:
            return 0
        if {c, a} == {u, v}:
            return 1
        if {a, b} == {u, v}:
            return 2
        raise KeyError(f"edge ({u},{v}) not in triangle {tid}={self._tri_v[tid]}")

    def _hook_up(self, tid: int, edge: int, nbr: int) -> None:
        """Point ``tid.edge`` at ``nbr`` and fix the back pointer."""
        self._set_neighbor(tid, edge, nbr)
        if nbr != NO_TRI:
            a, b, c = self._tri_v[tid]
            edge_verts = ((b, c), (c, a), (a, b))[edge]
            back = self._edge_index(nbr, *edge_verts)
            self._set_neighbor(nbr, back, tid)

    # -------------------------------------------------------- point location
    def locate(self, p: Point, hint: Optional[int] = None) -> int:
        """Return a live triangle containing ``p`` (boundary counts as in).

        Straight walk with orientation tests; guaranteed to terminate in a
        Delaunay triangulation.  Raises KeyError if the walk exits the mesh
        (possible only after exterior removal, for points outside the
        domain).
        """
        alive, tri_v, tri_n, points = (
            self._alive, self._tri_v, self._tri_n, self.points)
        orient = orient2d
        tid = hint if hint is not None and alive[hint] else self._last_tri
        if not alive[tid]:
            tid = next(self.alive_triangles())
        # Edge order randomization is unnecessary: a straight walk in a
        # Delaunay triangulation cannot cycle.
        for _ in range(4 * len(tri_v) + 16):
            a, b, c = tri_v[tid]
            pa, pb, pc = points[a], points[b], points[c]
            if orient(pb, pc, p) < 0:
                tid = tri_n[tid][0]
            elif orient(pc, pa, p) < 0:
                tid = tri_n[tid][1]
            elif orient(pa, pb, p) < 0:
                tid = tri_n[tid][2]
            else:
                self._last_tri = tid
                return tid
            if tid == NO_TRI:
                raise KeyError(f"point {p} lies outside the mesh")
        raise RuntimeError("point location walk did not terminate")

    def find_vertex(self, p: Point, hint: Optional[int] = None) -> Optional[int]:
        """Return the id of an existing vertex at exactly ``p``, if any."""
        try:
            tid = self.locate(p, hint)
        except KeyError:
            return None
        for v in self._tri_v[tid]:
            if self.points[v] == p:
                return v
        return None

    # ------------------------------------------------------- point insertion
    def cavity_of(
        self, p: Point, hint: Optional[int] = None, start: Optional[int] = None
    ) -> tuple[set[int], list[tuple[int, int, int]]]:
        """Dry-run Bowyer–Watson cavity for ``p``.

        Returns ``(cavity_tids, boundary)`` where boundary entries are
        directed edges ``(u, v, outer_tid)`` counterclockwise around the
        cavity.  Cavity growth never crosses constrained edges.  Used both
        by :meth:`insert_point` and by the refiner's encroachment check.
        ``start`` bypasses point location when the caller already knows a
        triangle whose circumcircle contains ``p`` (segment splits pass the
        triangle adjacent to the split edge, which also makes boundary
        midpoints that round epsilon-outside the domain safe).
        """
        start = self.locate(p, hint) if start is None else start
        tri_v, tri_n, points = self._tri_v, self._tri_n, self.points
        constrained, in_circle = self.constrained, incircle
        cavity = {start}
        stack = [start]
        while stack:
            tid = stack.pop()
            a, b, c = tri_v[tid]
            n0, n1, n2 = tri_n[tid]
            # Edge i is opposite vertex i; a constrained edge blocks growth.
            for nbr, u, v in ((n0, b, c), (n1, c, a), (n2, a, b)):
                if nbr != NO_TRI and nbr not in cavity and (
                        (u, v) if u < v else (v, u)) not in constrained:
                    x, y, z = tri_v[nbr]
                    if in_circle(points[x], points[y], points[z], p) > 0:
                        cavity.add(nbr)
                        stack.append(nbr)
        boundary: list[tuple[int, int, int]] = []
        for tid in cavity:
            a, b, c = tri_v[tid]
            n0, n1, n2 = tri_n[tid]
            if n0 not in cavity:
                boundary.append((b, c, n0))
            if n1 not in cavity:
                boundary.append((c, a, n1))
            if n2 not in cavity:
                boundary.append((a, b, n2))
        return cavity, boundary

    def insert_point(
        self,
        p: Point,
        hint: Optional[int] = None,
        _skip_collinear_boundary: Optional[tuple[int, int]] = None,
        _start: Optional[int] = None,
    ) -> int:
        """Insert ``p``; returns its vertex id (existing id if duplicate).

        Bowyer–Watson: collect the cavity of triangles whose circumcircle
        contains ``p`` (never expanding across constrained edges), delete
        it, and fan-retriangulate around the new vertex.  The result is
        constrained Delaunay again.

        ``_skip_collinear_boundary`` supports :meth:`split_segment` on a
        domain-boundary edge: the named cavity-boundary edge gets no fan
        triangle (it would be degenerate, as ``p`` lies on it); the two fan
        edges flanking ``p`` become new domain boundary instead.
        """
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

        # Fan: one new triangle (vid, u, v) per boundary edge, allocated in
        # boundary order.  Its edge 0 (u, v) faces ``outer``, edge 1
        # (v, vid) the fan triangle starting at v, edge 2 (vid, u) the one
        # ending at u.
        skip = _skip_collinear_boundary
        fan: list[tuple[int, int, int, int]] = []
        starts: dict[int, int] = {}
        ends: dict[int, int] = {}
        for u, v, outer in boundary:
            if skip is not None and outer == NO_TRI and {u, v} == set(skip):
                continue
            tid = self._new_triangle((vid, u, v), (outer, NO_TRI, NO_TRI))
            fan.append((tid, u, v, outer))
            starts[u] = tid
            ends[v] = tid
        if not fan:
            raise RuntimeError(f"insertion of {p} produced no triangles")
        tri_n = self._tri_n
        for tid, u, v, outer in fan:
            tri_n[tid] = (outer, starts.get(v, NO_TRI), ends.get(u, NO_TRI))
            if outer != NO_TRI:
                self._set_neighbor(outer, self._edge_index(outer, u, v), tid)
        self._last_tri = fan[0][0]
        return vid

    def split_segment(self, u: int, v: int) -> int:
        """Split constrained subsegment (u, v) at its midpoint.

        Returns the new vertex id.  The constraint is replaced by two
        constrained halves; works both for interior constraints and for
        domain-boundary edges (one side already removed).  A subsegment
        so short that its midpoint rounds to an endpoint raises
        :class:`UnsplittableSegment` and leaves the mesh as it was.
        """
        key = _edge_key(u, v)
        if key not in self.constrained:
            raise KeyError(f"({u},{v}) is not a constrained edge")
        pu, pv = self.points[u], self.points[v]
        mid = ((pu[0] + pv[0]) / 2.0, (pu[1] + pv[1]) / 2.0)
        if mid == pu or mid == pv:
            raise UnsplittableSegment(
                f"subsegment ({u},{v}) {pu}-{pv} is too short to split")
        tid = self._find_triangle_with_edge(u, v)
        if tid is None:
            raise KeyError(f"constrained edge ({u},{v}) has no live triangle")
        edge = self._edge_index(tid, u, v)
        on_boundary = self._tri_n[tid][edge] == NO_TRI
        self.constrained.discard(key)
        try:
            mid_vid = self.insert_point(
                mid,
                _skip_collinear_boundary=(u, v) if on_boundary else None,
                _start=tid,
            )
        except Exception:
            # Restore the mark so the triangulation stays consistent.
            self.constrained.add(key)
            raise
        self.constrained.add(_edge_key(u, mid_vid))
        self.constrained.add(_edge_key(mid_vid, v))
        return mid_vid

    # ----------------------------------------------------- segment insertion
    def insert_segment(self, u: int, v: int) -> None:
        """Force edge (u, v) into the triangulation and mark it constrained.

        If the edge is already present we just mark it: an edge of a
        triangulation has no vertex in its interior.  Otherwise remove the
        corridor of triangles the segment crosses and re-triangulate the
        two flanking pseudo-polygons.  Existing vertices exactly on the
        segment's interior split it into chained constrained subsegments.
        """
        if u == v:
            raise ValueError("degenerate segment")
        if self._edge_exists(u, v):
            self.constrained.add(_edge_key(u, v))
            return
        chain = [u, *self._vertices_on_segment(u, v), v]
        for a, b in zip(chain, chain[1:]):
            self._insert_subsegment(a, b)

    def _vertices_on_segment(self, u: int, v: int) -> list[int]:
        """Existing vertices lying strictly inside segment (u, v), ordered."""
        pu, pv = self.points[u], self.points[v]
        xmin, xmax = min(pu[0], pv[0]), max(pu[0], pv[0])
        ymin, ymax = min(pu[1], pv[1]), max(pu[1], pv[1])
        hits: list[tuple[float, int]] = []
        seen: set[int] = set()
        for tid in self.alive_triangles():
            for w in self._tri_v[tid]:
                if w in (u, v) or w in seen:
                    continue
                seen.add(w)
                pw = self.points[w]
                # A point on the segment is inside its bounding box.
                if not (xmin <= pw[0] <= xmax and ymin <= pw[1] <= ymax):
                    continue
                if orient2d(pu, pv, pw) == 0:
                    t = self._param_on_segment(pu, pv, pw)
                    if 0.0 < t < 1.0:
                        hits.append((t, w))
        hits.sort()
        return [w for _, w in hits]

    @staticmethod
    def _param_on_segment(pu: Point, pv: Point, pw: Point) -> float:
        dx, dy = pv[0] - pu[0], pv[1] - pu[1]
        length_sq = dx * dx + dy * dy
        if length_sq == 0.0:
            return -1.0
        return ((pw[0] - pu[0]) * dx + (pw[1] - pu[1]) * dy) / length_sq

    def _insert_subsegment(self, u: int, v: int) -> None:
        if self._edge_exists(u, v):
            self.constrained.add(_edge_key(u, v))
            return
        corridor, upper, lower = self._collect_corridor(u, v)
        corridor_set = set(corridor)
        # Remember the triangle outside each corridor-region boundary edge
        # so the retriangulated interior can be stitched back in.
        outer_map: dict[tuple[int, int], int] = {}
        for tid in corridor:
            a, b, c = self._tri_v[tid]
            for edge, (x, y) in enumerate(((b, c), (c, a), (a, b))):
                nbr = self._tri_n[tid][edge]
                if nbr not in corridor_set:
                    outer_map[_edge_key(x, y)] = nbr
        for tid in corridor:
            self._kill(tid)
        self.constrained.add(_edge_key(u, v))
        # Triangulate the two pseudo-polygons; both get (u, v) as an edge.
        # Both chains were collected walking u -> v.  The upper (left-of-uv)
        # region is counterclockwise as v -> reversed(upper) -> u; the lower
        # region as u -> lower -> v.
        new_tris: list[int] = []
        up_root = self._triangulate_pseudopolygon([v] + upper[::-1] + [u], new_tris)
        lo_root = self._triangulate_pseudopolygon([u] + lower + [v], new_tris)
        # The two roots share edge (u, v).
        if up_root != NO_TRI and lo_root != NO_TRI:
            e_up = self._edge_index(up_root, u, v)
            e_lo = self._edge_index(lo_root, u, v)
            self._set_neighbor(up_root, e_up, lo_root)
            self._set_neighbor(lo_root, e_lo, up_root)
        # Stitch region-boundary edges of the new triangles to the outside.
        for tid in new_tris:
            a, b, c = self._tri_v[tid]
            for edge, (x, y) in enumerate(((b, c), (c, a), (a, b))):
                if self._tri_n[tid][edge] != NO_TRI:
                    continue
                outer = outer_map.get(_edge_key(x, y))
                if outer is None:
                    continue
                self._set_neighbor(tid, edge, outer)
                if outer != NO_TRI:
                    back = self._edge_index(outer, x, y)
                    self._set_neighbor(outer, back, tid)

    def _edge_exists(self, u: int, v: int) -> bool:
        tid = self._find_triangle_with_edge(u, v)
        return tid is not None

    def _find_triangle_with_edge(self, u: int, v: int) -> Optional[int]:
        for tid in self._triangles_around(u):
            a, b, c = self._tri_v[tid]
            if v in (a, b, c):
                return tid
        return None

    def _seed_triangle(self, vid: int) -> Optional[int]:
        """A live triangle containing ``vid``, repairing a stale hint."""
        hint = self._vertex_tri[vid]
        if 0 <= hint < len(self._tri_v) and self._alive[hint] and vid in self._tri_v[hint]:
            return hint
        for tid in self.alive_triangles():
            if vid in self._tri_v[tid]:
                self._vertex_tri[vid] = tid
                return tid
        return None

    def _triangles_around(self, vid: int) -> Iterator[int]:
        """All live triangles incident to ``vid``.

        BFS over the vertex star via adjacency, starting from the per-vertex
        hint triangle — O(degree), robust to boundary gaps (NO_TRI edges)
        because both incident edges of each star triangle are explored.
        """
        seed = self._seed_triangle(vid)
        if seed is None:
            return
        seen = {seed}
        stack = [seed]
        while stack:
            tid = stack.pop()
            yield tid
            verts = self._tri_v[tid]
            i = verts.index(vid)
            for edge in ((i + 1) % 3, (i + 2) % 3):
                nbr = self._tri_n[tid][edge]
                if (
                    nbr != NO_TRI
                    and nbr not in seen
                    and self._alive[nbr]
                    and vid in self._tri_v[nbr]
                ):
                    seen.add(nbr)
                    stack.append(nbr)

    def _collect_corridor(
        self, u: int, v: int
    ) -> tuple[list[int], list[int], list[int]]:
        """Triangles crossed by open segment (u,v) plus flanking chains.

        Returns (corridor_tids, upper_chain, lower_chain): the vertices
        strictly left of u->v in order, and strictly right in order.
        """
        pu, pv = self.points[u], self.points[v]
        # Find the triangle at u whose opposite edge the segment enters.
        start = None
        for tid in self._triangles_around(u):
            a, b, c = self._tri_v[tid]
            others = [w for w in (a, b, c) if w != u]
            w1, w2 = others
            if self.is_constrained(w1, w2):
                continue
            o1 = orient2d(pu, pv, self.points[w1])
            o2 = orient2d(pu, pv, self.points[w2])
            # Segment leaves u strictly between w1 and w2 ...
            if o1 == 0 or o2 == 0 or (o1 > 0) == (o2 > 0):
                continue
            # ... and v lies beyond the opposite edge (u and v on opposite
            # sides of the line through w1, w2 — sign convention free).
            s_u = orient2d(self.points[w1], self.points[w2], pu)
            s_v = orient2d(self.points[w1], self.points[w2], pv)
            if s_u != 0 and s_v != 0 and (s_u > 0) != (s_v > 0):
                start = tid
                break
        if start is None:
            raise RuntimeError(
                f"cannot find corridor start for segment ({u},{v}); "
                "is it blocked by a constrained edge?"
            )
        corridor = [start]
        upper: list[int] = []
        lower: list[int] = []
        a, b, c = self._tri_v[start]
        others = [w for w in (a, b, c) if w != u]
        w1, w2 = others
        if orient2d(pu, pv, self.points[w1]) > 0:
            left, right = w1, w2
        else:
            left, right = w2, w1
        upper.append(left)
        lower.append(right)
        current = start
        exit_edge = (left, right)
        while True:
            nbr = self._tri_n[current][self._edge_index(current, *exit_edge)]
            if nbr == NO_TRI:
                raise RuntimeError("segment corridor exited the mesh")
            if self.is_constrained(*exit_edge):
                raise RuntimeError(
                    f"segment ({u},{v}) crosses constrained edge {exit_edge}"
                )
            corridor.append(nbr)
            apex = next(
                w for w in self._tri_v[nbr] if w not in exit_edge
            )
            if apex == v:
                break
            side = orient2d(pu, pv, self.points[apex])
            if side == 0:
                raise RuntimeError(
                    f"vertex {apex} lies on segment ({u},{v}) interior"
                )
            if side > 0:
                upper.append(apex)
                exit_edge = (apex, exit_edge[1])
            else:
                lower.append(apex)
                exit_edge = (exit_edge[0], apex)
            current = nbr
        return corridor, upper, lower

    def _triangulate_pseudopolygon(
        self, chain: list[int], collect: Optional[list[int]] = None
    ) -> int:
        """Triangulate a pseudo-polygon given as a ccw vertex chain.

        ``chain[0]..chain[-1]`` is the base edge; interior vertices are the
        chain between.  Returns the triangle adjacent to the base edge and
        appends every created triangle id to ``collect``.  Standard Anglada
        recursion: pick the interior vertex whose circumcircle with the
        base edge contains no other chain vertex.
        """
        if len(chain) < 3:
            return NO_TRI
        a, b = chain[0], chain[-1]
        interior = chain[1:-1]
        if len(interior) == 1:
            c = interior[0]
            tid = self._new_triangle((a, c, b), (NO_TRI, NO_TRI, NO_TRI))
            if collect is not None:
                collect.append(tid)
            return tid
        pa, pb = self.points[a], self.points[b]
        best = 0
        for k in range(1, len(interior)):
            # Current best's circumcircle contains candidate k => k is better.
            if incircle(
                pa, self.points[interior[best]], pb, self.points[interior[k]]
            ) > 0:
                best = k
        c = interior[best]
        left_root = self._triangulate_pseudopolygon([a] + interior[: best + 1], collect)
        right_root = self._triangulate_pseudopolygon(interior[best:] + [b], collect)
        tid = self._new_triangle((a, c, b), (NO_TRI, NO_TRI, NO_TRI))
        if collect is not None:
            collect.append(tid)
        if left_root != NO_TRI:
            self._hook_up(tid, self._edge_index(tid, a, c), left_root)
        if right_root != NO_TRI:
            self._hook_up(tid, self._edge_index(tid, c, b), right_root)
        return tid

    # ------------------------------------------------------ exterior removal
    def remove_exterior(self, holes: Iterable[Point] = ()) -> None:
        """Delete triangles outside the constrained boundary and in holes.

        Flood fills from the super-triangle corners (outside) and from each
        hole seed point, never crossing constrained edges, and deletes all
        reached triangles.
        """
        doomed: set[int] = set()
        stack: list[int] = []
        for tid in self.alive_triangles():
            if any(v < 3 for v in self._tri_v[tid]):
                if tid not in doomed:
                    doomed.add(tid)
                    stack.append(tid)
        for hole in holes:
            try:
                tid = self.locate(hole)
            except KeyError:
                continue
            if tid not in doomed:
                doomed.add(tid)
                stack.append(tid)
        while stack:
            tid = stack.pop()
            a, b, c = self._tri_v[tid]
            for edge, (x, y) in enumerate(((b, c), (c, a), (a, b))):
                nbr = self._tri_n[tid][edge]
                if nbr == NO_TRI or nbr in doomed:
                    continue
                if self.is_constrained(x, y):
                    continue
                doomed.add(nbr)
                stack.append(nbr)
        self.remove_triangles(doomed)

    def remove_triangles(self, doomed: Iterable[int]) -> None:
        """Delete the triangles ``doomed``, in its iteration order.

        A neighbour still alive when a triangle goes gets a boundary
        (``NO_TRI``) edge in its place.  Raises RuntimeError if nothing
        survives.
        """
        for tid in doomed:
            a, b, c = self._tri_v[tid]
            for edge, nbr in enumerate(self._tri_n[tid]):
                if nbr != NO_TRI and self._alive[nbr]:
                    back = self._edge_index(nbr, *((b, c), (c, a), (a, b))[edge])
                    self._set_neighbor(nbr, back, NO_TRI)
            self._kill(tid)
        self._exterior_removed = True
        live = next(self.alive_triangles(), None)
        if live is None:
            raise RuntimeError("exterior removal deleted the whole mesh")
        self._last_tri = live

    # ----------------------------------------------------------- validation
    def check_delaunay(self) -> list[str]:
        """Return a list of violations (empty = valid constrained Delaunay).

        Checks: ccw orientation of every triangle, symmetric adjacency, and
        the empty-circumcircle property against the opposite vertex of each
        non-constrained edge (the constrained Delaunay criterion).
        """
        problems: list[str] = []
        for tid in self.alive_triangles():
            a, b, c = self._tri_v[tid]
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            if orient2d(pa, pb, pc) <= 0:
                problems.append(f"triangle {tid}=({a},{b},{c}) not ccw")
                continue
            for edge, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                nbr = self._tri_n[tid][edge]
                if nbr == NO_TRI:
                    continue
                if not self._alive[nbr]:
                    problems.append(f"triangle {tid} points at dead {nbr}")
                    continue
                if self._tri_n[nbr][self._edge_index(nbr, u, v)] != tid:
                    problems.append(f"asymmetric adjacency {tid}<->{nbr}")
                if self.is_constrained(u, v):
                    continue
                opp = next(w for w in self._tri_v[nbr] if w not in (u, v))
                if incircle(pa, pb, pc, self.points[opp]) > 0:
                    problems.append(
                        f"edge ({u},{v}) of {tid} not locally Delaunay"
                    )
        return problems


def triangulate_pslg(pslg: PSLG) -> Triangulation:
    """Build the constrained Delaunay triangulation of a PSLG.

    Inserts all vertices, forces all segments, and removes the exterior and
    holes.  The PSLG must describe a closed boundary (every domain needs
    one for exterior removal to be meaningful).
    """
    if len(pslg.vertices) < 3:
        raise ValueError("PSLG needs at least 3 vertices")
    tri = Triangulation(pslg.bounding_box())
    vid_map = [tri.insert_point(p) for p in pslg.vertices]
    for i, j in pslg.segments:
        tri.insert_segment(vid_map[i], vid_map[j])
    tri.remove_exterior(pslg.holes)
    return tri
