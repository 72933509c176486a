"""Mobile objects shared by the PUMG methods.

* :class:`RegionObject` — a leaf (NUPDR) or block (UPDR) of the data
  distribution: owns the mesh points inside its box and implements the
  paper's §III message protocol (``construct buffer`` / ``add to buffer``
  / refine / ``update`` back to the coordinator).
* :class:`BoundaryRegistry` — the current set of domain-boundary
  subsegments; small, chatty, and locked in core (like the paper's
  refinement queue object).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.codec import PointColumn, get_codec
from repro.core.mobile import MobileObject
from repro.core.packfile import morton2
from repro.core.runtime import handler
from repro.geometry.predicates import Point, dist_sq
from repro.geometry.pslg import PSLG, BoundingBox
from repro.mesh.sizing import sizing_from_spec
from repro.pumg.ghost import GhostTable, boundary_strips, strip_nbytes
from repro.pumg.patch import patch_refine

__all__ = ["RegionObject", "BoundaryRegistry", "edge_canon"]


def edge_canon(p: Point, q: Point) -> tuple[Point, Point]:
    """Canonical (sorted) form of an undirected edge between two points."""
    return (p, q) if p <= q else (q, p)


class BoundaryRegistry(MobileObject):
    """Tracks the evolving constrained domain boundary.

    Each PUMG run creates one registry; region refinements that split
    boundary subsegments report the splits here, and refinements query the
    subsegments intersecting their patch.  The run drivers lock this object
    in core — the paper's treatment of the refinement queue ("we locked it
    in memory meaning it will never be unloaded out-of-core") applies to
    exactly this kind of small, hot object.
    """

    def __init__(self, pointer, segments: list[tuple[Point, Point]]) -> None:
        super().__init__(pointer)
        self.segments: set[tuple[Point, Point]] = {
            edge_canon(p, q) for p, q in segments
        }

    def segments_in(self, box: BoundingBox) -> list[tuple[Point, Point]]:
        """Subsegments with both endpoints inside ``box``."""
        out = []
        for p, q in self.segments:
            if box.contains(p) and box.contains(q):
                out.append((p, q))
        return out

    @handler
    def apply_splits(self, ctx, splits: list[tuple[Point, Point, Point]]) -> None:
        """Replace each split subsegment by its two halves."""
        for pu, pv, mid in splits:
            key = edge_canon(pu, pv)
            if key not in self.segments:
                continue  # double report (two leaves sharing a border edge)
            self.segments.discard(key)
            self.segments.add(edge_canon(pu, mid))
            self.segments.add(edge_canon(mid, pv))

    @handler
    def request_segments(self, ctx, box_tuple, reply_to) -> None:
        """Send the subsegments within the given box to ``reply_to``."""
        box = BoundingBox(*box_tuple)
        segs = self.segments_in(box)
        if not ctx.call_direct(reply_to, "segments_reply", segs):
            ctx.post(reply_to, "segments_reply", segs)


class RegionObject(MobileObject):
    """One leaf/block of the data distribution.

    Holds the mesh points inside its box plus the wiring (coordinator,
    registry, neighbor pointers) and per-refinement transient state.  The
    refinement conversation follows the paper:

    1. coordinator sends ``construct_buffer(leaf_ptr, n_buf)`` to the leaf
       and each buffer member;
    2. buffer members send ``add_to_buffer(points)`` to the leaf (direct
       call when co-resident — the §III optimization);
    3. when the leaf's counter reaches zero it fetches the boundary
       subsegments for its patch and refines;
    4. the leaf reports ``update(region_id, dirty_ids)`` to the coordinator.

    ``points`` is strictly append-only (refinement inserts, recreate
    ships points in — nothing ever removes one), so it is a
    :class:`PointColumn` under the mesh-patch codec: the flat float64
    array it holds is its packed form, and re-spills after refinement
    carry only the appended points.  Messages still ship plain lists.
    """

    serializer = get_codec("mesh-patch")

    def __init__(
        self,
        pointer,
        region_id: int,
        box: tuple[float, float, float, float],
        points: list[Point],
        neighbor_ids: list[int],
        sizing_spec: tuple,
        quality_bound: float = math.sqrt(2.0),
        min_length: float = 0.0,
    ) -> None:
        super().__init__(pointer)
        self.region_id = region_id
        self.box = tuple(box)
        self.points = PointColumn(points)
        self.neighbor_ids = list(neighbor_ids)
        self.sizing_spec = sizing_spec
        self.quality_bound = quality_bound
        self.min_length = min_length
        # Wiring (set by the driver through `wire`).
        self.coordinator = None
        self.registry = None
        self.neighbor_ptrs = {}
        self.neighbor_boxes = {}
        self.domain: Optional[PSLG] = None
        self.use_peek_buffers = False
        self.insert_in_buffer = False
        # Ghost-layer exchange (optional boundary-sync mode, see
        # repro.pumg.ghost): ghost copies of neighbor boundary strips,
        # owner-side push versioning, and push accounting.
        self.ghost_sync = False
        self.ghosts = GhostTable()
        self.ghost_version = 0
        self.ghost_pushes = 0
        self.ghost_bytes_pushed = 0
        # Transient per-refinement state.
        self._pending = 0
        self._buffer_pts: list[Point] = []
        self.refinements = 0

    def locality_key(self) -> Optional[int]:
        """Morton index of the patch's grid cell (PR 7).

        The decomposition is a uniform box grid, so the cell coordinates
        recover from the box origin divided by the box extent; spills of
        geometrically adjacent patches then share pack segments.
        """
        x0, y0, x1, y1 = self.box
        w, h = x1 - x0, y1 - y0
        if w <= 0 or h <= 0:
            return None
        return morton2(max(0, int(round(x0 / w))), max(0, int(round(y0 / h))))

    # ----------------------------------------------------------------- wiring
    @handler
    def wire(self, ctx, coordinator, registry, neighbors, domain,
             use_peek_buffers=False, insert_in_buffer=False,
             ghost_sync=False) -> None:
        """Install wiring: ``neighbors`` maps region id -> (pointer, box).

        ``insert_in_buffer`` enables the NUPDR flow: the refining leaf may
        insert points anywhere in leaf+buffer, then return buffer-resident
        points to their owners (the paper's ``recreate`` messages).  UPDR
        keeps strict per-block ownership (its color schedule only
        guarantees disjoint *owner* regions between concurrent blocks).

        ``ghost_sync`` switches boundary context from the pull protocol to
        ghost copies: ``construct_buffer`` reads the local ghost table and
        never messages buffer members; after refining, the region pushes
        its fresh boundary strips to all neighbors with one fanout
        multicast (see :mod:`repro.pumg.ghost`).
        """
        self.coordinator = coordinator
        self.registry = registry
        self.neighbor_ptrs = {rid: ptr for rid, (ptr, _box) in neighbors.items()}
        self.neighbor_boxes = {rid: box for rid, (_ptr, box) in neighbors.items()}
        self.domain = domain
        self.use_peek_buffers = use_peek_buffers
        self.insert_in_buffer = insert_in_buffer
        self.ghost_sync = ghost_sync

    # ------------------------------------------------------- ghost exchange
    def ghost_strips(self) -> dict[int, list[Point]]:
        """Per-neighbor boundary strips of this region's current points."""
        return boundary_strips(
            self.points,
            self.neighbor_boxes,
            sizing=sizing_from_spec(self.sizing_spec),
        )

    def _push_ghosts(self, ctx, want_ack: bool) -> None:
        """Push fresh strips to every neighbor in one fanout multicast.

        The payload (the full strip dict, version-stamped) is identical
        for every subscriber, so the control layer ships it **once per
        destination node**; each receiver installs only its own slice.
        ``want_ack`` marks pushes on the refinement path — receivers ack
        those to the coordinator, which is how the color/busy barrier
        knows every ghost is fresh before dependent work launches.
        """
        if not self.neighbor_ptrs:
            return
        self.ghost_version += 1
        strips = self.ghost_strips()
        targets = [self.neighbor_ptrs[rid] for rid in sorted(self.neighbor_ptrs)]
        ctx.post_multicast(
            targets, "ghost_push", 1,
            self.region_id, self.ghost_version, strips, want_ack,
            mode="fanout",
        )
        self.ghost_pushes += 1
        self.ghost_bytes_pushed += strip_nbytes(strips)
        self.mark_dirty()

    @handler
    def ghost_seed(self, ctx) -> None:
        """Initial exchange: publish strips before the first refinement."""
        self._push_ghosts(ctx, want_ack=False)

    @handler
    def ghost_push(self, ctx, owner_rid: int, version: int, strips,
                   want_ack: bool) -> None:
        """An owner pushed fresh strips; install our slice, ack if asked.

        The ack flows to the *coordinator* (not the owner): the barrier
        advancing colors/busy-sets is what must not release dependent
        refinements until every subscriber of the pushed strip is fresh.
        """
        self.ghosts.install(owner_rid, version, strips.get(self.region_id, []))
        self.mark_dirty()
        if want_ack and self.coordinator is not None:
            if not ctx.call_direct(
                self.coordinator, "ghost_ack", owner_rid, self.region_id
            ):
                ctx.post(self.coordinator, "ghost_ack", owner_rid, self.region_id)

    # ------------------------------------------------------------ the protocol
    @handler
    def construct_buffer(self, ctx, leaf_ptr, n_buf: int) -> None:
        if leaf_ptr.oid == self.oid:
            self._pending = n_buf
            self._buffer_pts = []
            if self.ghost_sync:
                # Ghost mode: the boundary context is already here — read
                # the local ghost copies, message nobody.
                self._buffer_pts = self.ghosts.points_of(self.neighbor_ids)
                self._pending = 0
            elif self.use_peek_buffers:
                # Multicast mode: all buffer members are co-resident and in
                # core (the runtime collected them); read them directly.
                gathered = []
                for rid in self.neighbor_ids:
                    ptr = self.neighbor_ptrs.get(rid)
                    if ptr is None:
                        continue
                    other = ctx.peek(ptr)
                    if other is not None:
                        gathered.extend(other.points)
                self._buffer_pts = gathered
                self._pending = 0
            if self._pending == 0:
                self._request_segments(ctx)
        else:
            # We are a buffer member: ship our points to the leaf.
            pts = list(self.points)
            if not ctx.call_direct(leaf_ptr, "add_to_buffer", pts):
                ctx.post(leaf_ptr, "add_to_buffer", pts)

    @handler
    def add_to_buffer(self, ctx, pts: list[Point]) -> None:
        self._buffer_pts.extend(pts)
        self._pending -= 1
        if self._pending == 0:
            self._request_segments(ctx)

    def _request_segments(self, ctx) -> None:
        patch_box = self._patch_box()
        box_tuple = (patch_box.xmin, patch_box.ymin, patch_box.xmax, patch_box.ymax)
        if not ctx.call_direct(
            self.registry, "request_segments", box_tuple, self.pointer
        ):
            ctx.post(self.registry, "request_segments", box_tuple, self.pointer)

    def _patch_box(self) -> BoundingBox:
        pts = [*self.points, *self._buffer_pts]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if not xs:
            b = self.box
            return BoundingBox(b[0], b[1], b[2], b[3])
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    @handler
    def add_points(self, ctx, pts: list[Point]) -> None:
        """Receive points another leaf inserted inside our box (recreate)."""
        self.points.extend(pts)
        self.mark_dirty()
        if self.ghost_sync:
            # Our strips changed outside a refinement; re-publish so the
            # phase-boundary freshness contract holds (no ack: the sweep's
            # quiescence barrier absorbs these).
            self._push_ghosts(ctx, want_ack=False)

    @handler
    def segments_reply(self, ctx, segments) -> None:
        """Boundary data arrived: do the actual refinement (paper: refine)."""
        owner = BoundingBox(*self.box)
        domain = self.domain
        sizing = sizing_from_spec(self.sizing_spec)
        if self.insert_in_buffer:
            insert_region = [owner] + [
                BoundingBox(*self.neighbor_boxes[rid])
                for rid in self.neighbor_ids
                if rid in self.neighbor_boxes
            ]
        else:
            insert_region = owner
        result = patch_refine(
            [*self.points, *self._buffer_pts],
            segments,
            sizing,
            insert_region,
            in_domain=domain.contains,
            quality_bound=self.quality_bound,
            min_length=self.min_length,
        )
        # Keep points that fall in our box; return the rest to their owners
        # (the paper's recreate flow).
        returned: dict[int, list[Point]] = {}
        for p in result.new_points:
            if owner.contains(p):
                self.points.append(p)
                continue
            for rid in self.neighbor_ids:
                box = self.neighbor_boxes.get(rid)
                if box is not None and box[0] <= p[0] <= box[2] and box[1] <= p[1] <= box[3]:
                    returned.setdefault(rid, []).append(p)
                    break
            else:
                self.points.append(p)  # fallback: keep it rather than lose it
        extra_dirty = []
        for rid, pts in returned.items():
            extra_dirty.append(rid)
            ptr = self.neighbor_ptrs[rid]
            if not ctx.call_direct(ptr, "add_points", pts):
                ctx.post(ptr, "add_points", pts)
        self.refinements += 1
        if result.boundary_splits:
            if not ctx.call_direct(
                self.registry, "apply_splits", result.boundary_splits
            ):
                ctx.post(self.registry, "apply_splits", result.boundary_splits)
        dirty = self._dirty_neighbors(result, sizing)
        dirty.extend(extra_dirty)
        # Splits we need but don't own: dirty the owning neighbor; its split
        # will produce points near our border, which re-dirties us in turn.
        for mid in result.foreign_splits:
            for rid, box in self.neighbor_boxes.items():
                if box[0] <= mid[0] <= box[2] and box[1] <= mid[1] <= box[3]:
                    dirty.append(rid)
        self._buffer_pts = []
        self._pending = 0
        self.mark_dirty()
        if self.ghost_sync:
            # Owner→ghost push *before* the update: the coordinator's
            # barrier counts one ack per neighbor, so dependent work only
            # launches against fresh ghosts.
            self._push_ghosts(ctx, want_ack=True)
        ctx.post(self.coordinator, "update", self.region_id, sorted(set(dirty)))

    def _dirty_neighbors(self, result, sizing) -> list[int]:
        """Neighbors whose region a new point may have invalidated.

        A fresh vertex only disturbs the Delaunay structure within a few
        multiples of the local element size, so a neighbor is dirtied only
        when a new point falls that close to its box.
        """
        dirty: list[int] = []
        if not result.new_points:
            return dirty
        for rid in self.neighbor_ids:
            box = self.neighbor_boxes.get(rid)
            if box is None:
                continue
            for p in result.new_points:
                margin = 2.0 * sizing(p)
                if (
                    box[0] - margin <= p[0] <= box[2] + margin
                    and box[1] - margin <= p[1] <= box[3] + margin
                ):
                    dirty.append(rid)
                    break
        return dirty

    def nbytes(self) -> int:
        # A mesh vertex in a production mesher carries coordinates plus its
        # incident-element star (~0.5 KB with element records); report that
        # so the out-of-core layer sees realistic pressure even though the
        # sharded representation stores only the points.
        return 512 * max(len(self.points), 1) + 1024
