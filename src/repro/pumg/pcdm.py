"""Parallel Constrained Delaunay Meshing on the MRTS (PCDM / OPCDM).

PCDM (paper §I.A) uses *domain decomposition*: the mesh conforms exactly
to subdomain boundaries, and the only communication is small asynchronous
messages announcing splits of shared interface edges, which can be
aggregated.  The communication graph is the unstructured subdomain
adjacency; there is no global synchronization.

Each subdomain is a mobile object owning its own constrained Delaunay
triangulation.  Refinement splits of interface subsegments are batched per
neighbor and posted as ``remote_splits`` messages; the receiving subdomain
applies the identical splits (midpoints are bit-identical, computed from
the shared edge endpoints) and schedules another refinement pass of its
own if that created work.

With ``ghost_sync`` the per-neighbor posts collapse into one
**fanout multicast** (:mod:`repro.pumg.ghost` transport): a single
version-stamped ``remote_splits_batch`` carries the whole per-neighbor
split dict, the control layer emits one wire send per destination *node*
however many subdomains subscribe there, and each receiver applies its
own slice.  Stale versions (redelivery after recovery) are dropped.
"""

from __future__ import annotations

import math

from repro.core.mobile import MobileObject
from repro.core.runtime import handler
from repro.geometry.predicates import Point
from repro.mesh.refine import refine
from repro.mesh.sizing import sizing_from_spec
from repro.pumg.objects import edge_canon
from repro.pumg.patch import mesh_subdomain

__all__ = ["SubdomainObject"]


class SubdomainObject(MobileObject):
    """One PCDM subdomain: boundary PSLG, seeds, and its evolving CDT."""

    def __init__(
        self,
        pointer,
        part_id: int,
        sub_pslg,
        seeds,
        sizing_spec,
        quality_bound: float = math.sqrt(2.0),
        min_length: float = 0.0,
        ghost_sync: bool = False,
    ) -> None:
        super().__init__(pointer)
        self.part_id = part_id
        self.sub_pslg = sub_pslg
        self.seeds = list(seeds)
        self.sizing_spec = sizing_spec
        self.quality_bound = quality_bound
        self.min_length = min_length
        self.tri = None
        # interface: canonical edge -> neighbor part id
        self.interface: dict[tuple[Point, Point], int] = {}
        self.neighbor_ptrs: dict[int, object] = {}
        self.ghost_sync = bool(ghost_sync)
        self.splits_sent = 0
        self.splits_received = 0
        self.splits_ignored = 0
        self.passes = 0
        self._pass_queued = False
        # ghost_sync: monotone version stamp on outgoing batches, and the
        # last version applied from each neighbor (stale replays dropped).
        self.split_version = 0
        self.seen_versions: dict[int, int] = {}
        self.ghost_batches = 0
        self.ghost_bytes_pushed = 0

    @handler
    def wire(self, ctx, neighbor_ptrs, interface_edges) -> None:
        """Install neighbor pointers and this part's interface edges.

        ``interface_edges`` is a list of ``(edge_key, neighbor_part)``.
        """
        self.neighbor_ptrs = dict(neighbor_ptrs)
        self.interface = {tuple(k): v for k, v in interface_edges}

    @handler
    def mesh_initial(self, ctx) -> None:
        """Build the subdomain CDT and schedule the first refinement pass."""
        self.tri = mesh_subdomain(self.sub_pslg, self.seeds)
        self.mark_dirty()
        self._schedule_pass(ctx)

    def _schedule_pass(self, ctx) -> None:
        if not self._pass_queued:
            self._pass_queued = True
            ctx.post(self.pointer, "refine_pass")

    def _record_own_split(self, outgoing, pu, pv, mid) -> None:
        key = edge_canon(pu, pv)
        neighbor = self.interface.pop(key, None)
        if neighbor is None:
            return  # ordinary domain-boundary edge: nobody else cares
        self.interface[edge_canon(pu, mid)] = neighbor
        self.interface[edge_canon(mid, pv)] = neighbor
        outgoing.setdefault(neighbor, []).append((pu, pv, mid))

    @handler
    def refine_pass(self, ctx) -> None:
        """Run Ruppert refinement; announce interface splits to neighbors."""
        self._pass_queued = False
        if self.tri is None:
            raise RuntimeError("refine_pass before mesh_initial")
        outgoing: dict[int, list] = {}
        refine(
            self.tri,
            quality_bound=self.quality_bound,
            sizing=sizing_from_spec(self.sizing_spec),
            min_length=self.min_length,
            on_split=lambda pu, pv, mid: self._record_own_split(
                outgoing, pu, pv, mid
            ),
        )
        self.passes += 1
        self.mark_dirty()
        if not outgoing:
            return
        if self.ghost_sync:
            # Ghost transport: one version-stamped fanout multicast carries
            # the whole per-neighbor dict; the control layer sends it once
            # per destination node, and each receiver takes its own slice.
            self.split_version += 1
            targets = [
                self.neighbor_ptrs[n] for n in sorted(outgoing)
            ]
            self.splits_sent += sum(len(s) for s in outgoing.values())
            ctx.post_multicast(
                targets, "remote_splits_batch", 1,
                self.part_id, self.split_version, outgoing,
                mode="fanout",
            )
            self.ghost_batches += 1
            self.ghost_bytes_pushed += sum(
                48 * len(s) + 24 for s in outgoing.values()
            )
            return
        # PCDM's signature: small asynchronous messages, aggregated per
        # neighbor to amortize startup overheads.
        for neighbor, splits in sorted(outgoing.items()):
            self.splits_sent += len(splits)
            ctx.post(self.neighbor_ptrs[neighbor], "remote_splits", splits)

    @handler
    def remote_splits_batch(self, ctx, owner_part, version, batch) -> None:
        """Fanout-multicast delivery: apply our slice of an owner's batch."""
        if version <= self.seen_versions.get(owner_part, 0):
            self.splits_ignored += len(batch.get(self.part_id, []))
            return  # redelivered (recovery replay); already applied
        self.seen_versions[owner_part] = version
        self._apply_splits(ctx, batch.get(self.part_id, []))

    @handler
    def remote_splits(self, ctx, splits) -> None:
        """Apply splits a neighbor performed on our shared interface edges."""
        self._apply_splits(ctx, splits)

    def _apply_splits(self, ctx, splits) -> None:
        changed = False
        for pu, pv, mid in splits:
            key = edge_canon(pu, pv)
            neighbor = self.interface.get(key)
            if neighbor is None:
                # We already split this edge ourselves (messages crossed);
                # midpoints agree bit-for-bit, so the meshes still conform.
                self.splits_ignored += 1
                continue
            u = self.tri.find_vertex(pu)
            v = self.tri.find_vertex(pv)
            if u is None or v is None or not self.tri.is_constrained(u, v):
                self.splits_ignored += 1
                continue
            self.interface.pop(key)
            self.interface[edge_canon(pu, mid)] = neighbor
            self.interface[edge_canon(mid, pv)] = neighbor
            mid_vid = self.tri.split_segment(u, v)
            assert self.tri.vertex(mid_vid) == mid, "midpoint mismatch"
            self.splits_received += 1
            changed = True
        self.mark_dirty()
        if changed:
            # The new boundary vertices may create bad triangles locally.
            self._schedule_pass(ctx)

    def nbytes(self) -> int:
        # Memory of a production CDT: the paper's PCDM needed ~64 GB for
        # 238M elements, i.e. ~270 B/element.  Report that so the OOC layer
        # sees realistic pressure (the pickled toy mesh is smaller).
        n = self.tri.n_triangles if self.tri is not None else 8
        return 270 * max(n, 8) + 2048

    # -- post-run inspection ----------------------------------------------
    def n_triangles(self) -> int:
        return self.tri.n_triangles if self.tri is not None else 0
