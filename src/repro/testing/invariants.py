"""Executable cross-layer invariants of the MRTS runtime.

The four layers each keep their own bookkeeping of the same facts — where
an object is, how big it is, how many messages it owes.  Bugs show up as
*disagreement* between layers long before they show up as wrong meshes.
These checkers walk a live runtime at an event boundary and return every
disagreement they find as a human-readable violation string.

Invariants checked (``check_runtime``):

* **memory accounting** — each node's ``memory_used`` equals the sum of
  its resident objects' sizes; budget overruns are only tolerated when the
  OOC layer recorded them;
* **residency agreement** — the OOC layer and the control layer track the
  same object set; an object is spilled (``obj is None``) iff the OOC
  layer says non-resident, and spilled objects' bytes exist in storage;
* **directory truth** — the directory's authoritative location for every
  live object is exactly the node holding it, and no object lives on two
  nodes;
* **lock sanity** — lock counts are non-negative and, at quiescence, zero
  (every runtime-internal pin must have been released);
* **dirty consistency** — a dirty record is always resident (eviction
  either writes the divergence back or there was none), and a clean
  resident object has a storage copy backing the write-back it would skip;
* **quiescence** — at quiescence no messages are queued, no handlers are
  in flight, and the termination detector agrees;
* **planning indexes** — what plans read instead of scanning (spillable
  set, sorted pressure tier, smallest-stored floor, ready-queue arrival
  order) equals what a scan finds: a missed update site fails here, not
  as a drifted victim order somewhere.

``check_ooc_layer`` applies the memory/lock subset to a bare
:class:`~repro.core.ooc.OOCLayer` (unit tests), ``check_node_residency``
adds residency and dirty agreement for one node.  ``check_dist`` applies
the same discipline to the distributed coordinator (shard map, replicated
directory, delivery ledger).  ``check_mesh`` validates
a :class:`~repro.mesh.Triangulation`: constrained-Delaunay conformity plus
positive areas and an optional minimum-angle floor.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.mesh.quality import triangle_angles, triangle_area
from repro.util.errors import MRTSError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ooc import OOCLayer
    from repro.core.runtime import MRTS
    from repro.mesh.triangulation import Triangulation

__all__ = [
    "InvariantViolation",
    "check_ooc_layer",
    "check_node_residency",
    "check_runtime",
    "check_dist",
    "check_mesh",
    "check_ghosts",
    "check_mesh3d",
    "assert_invariants",
]


class InvariantViolation(MRTSError):
    """A cross-layer invariant does not hold; carries all violations found."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"{len(violations)} invariant violation(s): {preview}{more}")


def check_ooc_layer(ooc: "OOCLayer", label: str = "ooc") -> list[str]:
    """Internal-consistency violations of one out-of-core layer."""
    problems: list[str] = []
    resident_bytes = sum(r.nbytes for r in ooc.table.values() if r.resident)
    if resident_bytes != ooc.memory_used:
        problems.append(
            f"{label}: memory_used={ooc.memory_used} but resident objects "
            f"sum to {resident_bytes}"
        )
    if ooc.memory_used > ooc.budget and ooc.overruns == 0:
        problems.append(
            f"{label}: over budget ({ooc.memory_used}/{ooc.budget}) "
            "with no recorded overrun"
        )
    if ooc.high_water < ooc.memory_used:
        problems.append(
            f"{label}: high_water={ooc.high_water} below "
            f"memory_used={ooc.memory_used}"
        )
    for oid, rec in ooc.table.items():
        if rec.nbytes < 0:
            problems.append(f"{label}: object {oid} has negative size")
        if rec.locked < 0:
            problems.append(f"{label}: object {oid} has negative lock count")
        if rec.locked > 0 and not rec.resident:
            problems.append(f"{label}: object {oid} locked but not resident")
        if rec.queued_messages < 0:
            problems.append(f"{label}: object {oid} negative queue length")
        if rec.dirty and not rec.resident:
            # A spilled object must have written back any divergence: a
            # dirty non-resident record means an update was lost (the
            # eviction path skipped a store it should have paid).
            problems.append(
                f"{label}: object {oid} dirty but not resident (lost update)"
            )
    problems.extend(_check_planning_indexes(ooc, label))
    return problems


def _check_planning_indexes(ooc: "OOCLayer", label: str) -> list[str]:
    """The indexes OOC plans read, against a scan of the residency table."""
    records = ooc.table.values()
    keys = list(ooc._pressure.iter_in_order())
    agrees = {
        "spillable index": ooc._spillable == {
            r.oid for r in records
            if r.resident and not r.locked and not r.queued_messages},
        "pressure tier order": all(a < b for a, b in zip(keys, keys[1:])),
        "pressure tier membership": {oid: eff for eff, _, oid in keys} == {
            r.oid: ooc._effective(r) for r in records
            if r.resident and ooc._effective(r) != 0.0},
        "smallest-stored floor": all(
            ooc._smallest_stored <= r.nbytes
            for r in records if not r.resident),
    }
    return [
        f"{label}: {index} disagrees with a scan of the residency table"
        for index, ok in agrees.items() if not ok
    ]


def check_node_residency(node, label: str) -> list[str]:
    """Residency violations of one node (``locals``, ``ooc``, ``storage``):
    an MRTS node, or a ``repro.dist`` worker checking itself at shutdown."""
    problems = check_ooc_layer(node.ooc, label)
    local_ids = set(node.locals)
    tracked_ids = set(node.ooc.table)
    for oid in local_ids - tracked_ids:
        problems.append(f"{label}: object {oid} local but untracked by OOC")
    for oid in tracked_ids - local_ids:
        problems.append(f"{label}: object {oid} tracked by OOC but not local")
    for oid, rec in node.locals.items():
        resident = node.ooc.is_resident(oid)
        if resident and rec.obj is None:
            problems.append(
                f"{label}: object {oid} marked resident but has no "
                "in-core instance"
            )
        if (
            resident
            and oid in node.ooc.table
            and not node.ooc.table[oid].dirty
            and not node.storage.contains(oid)
        ):
            # Clean means "the storage copy is current" — so a copy
            # must exist; otherwise a clean eviction would skip the
            # store and the state would be unrecoverable.
            problems.append(
                f"{label}: object {oid} marked clean but storage has "
                "no copy to skip the write-back against"
            )
        if not resident:
            if rec.obj is not None:
                problems.append(
                    f"{label}: object {oid} spilled by OOC but still in core"
                )
            if not node.storage.contains(oid):
                problems.append(
                    f"{label}: spilled object {oid} missing from storage"
                )
    return problems


def check_runtime(runtime: "MRTS") -> list[str]:
    """Cross-layer violations of a full runtime at an event boundary."""
    problems: list[str] = []
    quiescent = runtime.termination.quiescent
    seen: dict[int, int] = {}  # oid -> node actually holding it

    for nrt in runtime.nodes:
        label = f"node {nrt.rank}"
        problems.extend(check_node_residency(nrt, label))

        seqs = [entry[0] for entry in nrt.ready._entries.values()]
        if seqs != sorted(seqs):
            problems.append(f"{label}: ready queue not in arrival order")

        for oid, rec in nrt.locals.items():
            if oid in seen:
                problems.append(
                    f"object {oid} lives on both node {seen[oid]} and {nrt.rank}"
                )
            seen[oid] = nrt.rank
            if rec.in_flight < 0:
                problems.append(f"{label}: object {oid} negative in_flight")
            if quiescent:
                if rec.queue:
                    problems.append(
                        f"{label}: object {oid} has {len(rec.queue)} queued "
                        "messages at quiescence"
                    )
                if rec.in_flight:
                    problems.append(
                        f"{label}: object {oid} has a handler in flight "
                        "at quiescence"
                    )
                if oid in nrt.ooc.table and nrt.ooc.table[oid].locked:
                    problems.append(
                        f"{label}: object {oid} still locked at quiescence"
                    )

    truth = runtime.directory.truth
    for oid, node in seen.items():
        if truth.get(oid) != node:
            problems.append(
                f"directory says object {oid} is on node {truth.get(oid)}, "
                f"actually on node {node}"
            )
    for oid in set(truth) - set(seen):
        problems.append(f"directory tracks object {oid} which lives nowhere")
    for oid in set(runtime.pointers) - set(seen):
        problems.append(f"pointer table has object {oid} which lives nowhere")

    if quiescent and runtime.termination.outstanding != 0:
        problems.append(
            f"termination detector quiescent with "
            f"{runtime.termination.outstanding} outstanding items"
        )
    return problems


def check_dist(runtime) -> list[str]:
    """Cross-process invariants of a :class:`~repro.dist.DistRuntime`.

    Checked at phase boundaries of the dist chaos cells: the shard map,
    the replicated directory and the delivery machinery must agree, and a
    quiescent coordinator must owe nothing to anyone.

    * **shard truth** — every directory entry's home is a live ring
      member, and the per-worker in-flight ledger sums to the in-flight
      table;
    * **replica presence** — every entry has packed state and a class
      reference the coordinator can resolve (it must be able to re-home
      the object at any moment);
    * **delivery sanity** — every outstanding message id is in flight,
      aimed at its object's current home;
    * **quiescence** — when the runtime reports quiescent, no message is
      pending or in flight.
    """
    problems: list[str] = []
    members = runtime.ring.members
    for oid, entry in runtime.directory.items():
        if entry.home not in members:
            problems.append(
                f"object {oid} homed on rank {entry.home}, not in the ring"
            )
        elif not runtime.workers[entry.home].alive:
            problems.append(
                f"object {oid} homed on dead worker {entry.home}"
            )
        if not entry.state:
            problems.append(f"object {oid} has an empty directory replica")
        try:
            from repro.dist.store import resolve_class

            resolve_class(entry.cls_path)
        except Exception as exc:
            problems.append(
                f"object {oid} class {entry.cls_path!r} unresolvable: {exc}"
            )
    ledger = sum(runtime._per_worker_inflight.values())
    if ledger != len(runtime._inflight):
        problems.append(
            f"per-worker in-flight ledger says {ledger}, "
            f"in-flight table has {len(runtime._inflight)}"
        )
    for oid, msg_id in runtime._outstanding.items():
        if msg_id is None:
            continue
        rec = runtime._inflight.get(msg_id)
        if rec is None:
            problems.append(
                f"object {oid} outstanding msg {msg_id} is not in flight"
            )
        elif rec.worker != runtime.directory[oid].home:
            problems.append(
                f"object {oid} msg {msg_id} aimed at rank {rec.worker} "
                f"but homed on {runtime.directory[oid].home}"
            )
    if runtime._quiescent():
        stuck = [
            oid for oid, msg_id in runtime._outstanding.items()
            if msg_id is not None
        ]
        if stuck:
            problems.append(
                f"quiescent but objects {stuck} still show an "
                "outstanding message"
            )
    return problems


def check_ghosts(runtime: "MRTS", pointers) -> list[str]:
    """Ghost-freshness violations at a phase boundary (empty = fresh).

    The contract of :mod:`repro.pumg.ghost`: at every phase boundary —
    after the coordinator's ack barrier, or at quiescence — every ghost
    copy a subscriber holds equals the strip its owner would compute
    from its *current* points.  ``pointers`` are the region pointers of
    one ghost-mode PUMG run; regions not in ghost mode are skipped.
    """
    problems: list[str] = []
    regions = {}
    for ptr in pointers:
        obj = runtime.get_object(ptr)
        regions[obj.region_id] = obj
    for rid, owner in regions.items():
        if not getattr(owner, "ghost_sync", False):
            continue
        strips = owner.ghost_strips()
        for nid in owner.neighbor_ids:
            sub = regions.get(nid)
            if sub is None:
                problems.append(
                    f"region {rid}: neighbor {nid} not among the pointers"
                )
                continue
            copy = sub.ghosts.copies.get(rid)
            want = sorted(strips.get(nid, []))
            have = sorted(copy.points) if copy is not None else None
            if have is None:
                if want:
                    problems.append(
                        f"region {nid} has no ghost copy of owner {rid} "
                        f"({len(want)} strip points expected)"
                    )
            elif have != want:
                problems.append(
                    f"region {nid}'s ghost of owner {rid} is stale: "
                    f"{len(have)} points held, {len(want)} expected"
                )
    return problems


def check_mesh3d(patches, bounds: Optional[tuple] = None) -> list[str]:
    """Invariant violations of a 3D prism-patch set (empty = valid).

    * every cell has positive volume and finite quality;
    * each patch's cells exactly tile its box (volume conservation under
      bisection — and, with ``bounds``, the patches tile the domain);
    * 2:1 balance holds across every shared patch face.
    """
    from repro.mesh3d.objects import BALANCE_RATIO
    from repro.mesh3d.prism import prism_quality, prism_volume

    problems: list[str] = []
    by_id = {p.patch_id: p for p in patches}
    total = 0.0
    for patch in patches:
        vol = 0.0
        for cell in patch.cells:
            v = prism_volume(cell)
            if not v > 0.0:
                problems.append(
                    f"patch {patch.patch_id}: cell with non-positive "
                    f"volume {v}"
                )
            if not math.isfinite(prism_quality(cell)):
                problems.append(
                    f"patch {patch.patch_id}: degenerate cell "
                    f"(infinite quality)"
                )
            vol += v
        x0, y0, z0, x1, y1, z1 = patch.box3
        box_vol = (x1 - x0) * (y1 - y0) * (z1 - z0)
        if abs(vol - box_vol) > 1e-9 * max(box_vol, 1.0):
            problems.append(
                f"patch {patch.patch_id}: cells sum to volume {vol}, "
                f"box has {box_vol} (bisection lost or duplicated cells)"
            )
        total += vol
        for rid in patch.neighbor_ids:
            other = by_id.get(rid)
            if other is None:
                continue
            mine = patch.face_min_size(rid)
            theirs = other.face_min_size(patch.patch_id)
            if math.isinf(mine) or math.isinf(theirs):
                continue
            if mine > BALANCE_RATIO * theirs + 1e-9:
                problems.append(
                    f"face {patch.patch_id}|{rid}: 2:1 balance violated "
                    f"({mine:.4g} vs {theirs:.4g})"
                )
    if bounds is not None:
        x0, y0, z0, x1, y1, z1 = bounds
        domain = (x1 - x0) * (y1 - y0) * (z1 - z0)
        if abs(total - domain) > 1e-9 * max(domain, 1.0):
            problems.append(
                f"patches sum to volume {total}, domain has {domain}"
            )
    return problems


def check_mesh(
    mesh: "Triangulation", min_angle_deg: Optional[float] = None
) -> list[str]:
    """Conformity violations of a triangulation (empty = valid)."""
    problems = list(mesh.check_delaunay())
    for tri in mesh.triangles():
        coords = mesh.coords(tri)
        area = triangle_area(*coords)
        if not area > 0.0:
            problems.append(f"triangle {tri} has non-positive area {area}")
            continue
        if min_angle_deg is not None:
            smallest = math.degrees(min(triangle_angles(*coords)))
            if smallest < min_angle_deg:
                problems.append(
                    f"triangle {tri} angle {smallest:.2f} deg below "
                    f"floor {min_angle_deg}"
                )
    return problems


def assert_invariants(subject, **kwargs) -> None:
    """Raise :class:`InvariantViolation` if ``subject`` violates invariants.

    Dispatches on type: an :class:`MRTS` runtime, an :class:`OOCLayer`, or
    a :class:`Triangulation` (kwargs forwarded to the specific checker).
    """
    from repro.core.ooc import OOCLayer
    from repro.core.runtime import MRTS
    from repro.mesh.triangulation import Triangulation

    if isinstance(subject, MRTS):
        problems = check_runtime(subject, **kwargs)
    elif isinstance(subject, OOCLayer):
        problems = check_ooc_layer(subject, **kwargs)
    elif isinstance(subject, Triangulation):
        problems = check_mesh(subject, **kwargs)
    else:
        raise TypeError(f"no invariant checker for {type(subject).__name__}")
    if problems:
        raise InvariantViolation(problems)
