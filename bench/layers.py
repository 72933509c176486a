"""Which public entry points carry spans, and the per-layer metrics.

Metric names are module paths.  *count* metrics are exact functions of
the seed, read from public counters on the untraced repeats; *traced*
metrics are host seconds from the traced repeat's spans.  The README
holds the table of which end-to-end metric each one should move, on
which workload, and where it is predicted flat.
"""

from __future__ import annotations

import statistics
from repro.core import storage
from repro.core.control import ReadyQueue
from repro.core.mobile import MobileObject, Serializer
from repro.core.ooc import OOCLayer
from repro.core.packfile import PackFileBackend
from repro.core.spec import SpeculationManager
from repro.geometry import predicates
from repro.mesh.triangulation import Triangulation
from repro.pumg import patch
from repro.serve.meshjob import MeshJobRunner
from repro.sim.engine import Engine

from bench.trace import CallCounter, Span, Tracer, layer_totals, self_times

__all__ = ["install_spans", "count_filtered_predicates", "span_metrics",
           "count_metrics", "percentile", "PER_LAYER_UNITS"]

# Span layers.  Application layers are the work the paper's in-core codes
# do as well; everything else is what the runtime adds.
BENCH = "bench"
DISPATCH = "sim.engine+core.runtime"
HANDLER = "core.computing.handler"
OOC = "core.ooc"
READY = "core.control.ready"
PACK = "core.codec.pack"
UNPACK = "core.codec.unpack"
SPEC = "core.spec"
PACKFILE = "core.packfile"
PATCH = "pumg.patch"
INSERT = "mesh.triangulation.insert"
LOCATE = "mesh.triangulation.locate"
EXACT = "geometry.predicates.exact"
JOB = "serve.job"
CHECKPOINT = "serve.checkpoint"
APP_LAYERS = frozenset({HANDLER, PATCH, INSERT, LOCATE, EXACT})

_STORAGE_OPS = ("store", "append", "load", "load_segments", "load_many",
                "delete", "store_frame", "append_frame", "load_segments_ex",
                "load_many_ex")
_STORAGE_LAYERS = {
    storage.CountingBackend: "core.storage.counting",
    storage.CompressingBackend: "core.storage.compressing",
    storage.ChecksummedBackend: "core.storage.checksummed",
    storage.RetryingBackend: "core.storage.retrying",
    storage.MemoryBackend: "core.storage.backend",
    storage.FileBackend: "core.storage.backend",
    PackFileBackend: PACKFILE,
}


def _subclasses(cls: type) -> list:
    found, todo = [], [cls]
    while todo:
        c = todo.pop()
        found.append(c)
        todo.extend(c.__subclasses__())
    return found


def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (imported so far)."""
    for cls in _subclasses(MobileObject):
        handlers = [a for a, v in vars(cls).items()
                    if getattr(v, "_mrts_handler", False)]
        tracer.trace_methods(cls, handlers, HANDLER)
    tracer.trace_methods(Engine, ["run"], DISPATCH)
    tracer.trace_methods(
        OOCLayer,
        ["plan_load", "admit", "resize", "advise_swap",
         "prefetch_candidates", "eviction_candidates"],
        OOC,
    )
    tracer.trace_methods(ReadyQueue, ["push", "pop", "snapshot"], READY)
    for cls in _subclasses(Serializer):
        tracer.trace_methods(cls, ["pack", "pack_delta"], PACK)
        tracer.trace_methods(cls, ["unpack", "unpack_segments"], UNPACK)
    for cls, layer in _STORAGE_LAYERS.items():
        tracer.trace_methods(cls, _STORAGE_OPS, layer)
    tracer.trace_methods(
        SpeculationManager,
        ["begin", "commit", "abort", "abort_if_pending", "resolve",
         "resolve_local"],
        SPEC,
    )
    tracer.trace_function(patch.patch_refine, PATCH)
    tracer.trace_methods(
        Triangulation, ["insert_point", "insert_segment"], INSERT)
    tracer.trace_methods(Triangulation, ["locate"], LOCATE)
    tracer.trace_function(predicates.orient2d_exact, EXACT)
    tracer.trace_function(predicates.incircle_exact, EXACT)
    tracer.trace_methods(MeshJobRunner, ["start", "step"], JOB)
    tracer.trace_methods(MeshJobRunner, ["snapshot", "resume"], CHECKPOINT)


def count_filtered_predicates() -> CallCounter:
    """Count calls of the float-filtered predicates (no spans: see
    :class:`bench.trace.CallCounter`)."""
    counter = CallCounter()
    counter.count_function(predicates.orient2d)
    counter.count_function(predicates.incircle)
    return counter


# ----------------------------------------------------------------- metrics
def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n q / 100)
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float, default: float = 0.0) -> float:
    return num / den if den else default


def _inside_region(spans: list[Span]) -> list[Span]:
    """Drop what the benchmark's own checks did after the timed region.

    On a thread that holds the repeat's root span only that root and its
    descendants count (the checks load and unpack spilled objects on the
    same thread afterwards); other threads — the server's workers — only
    live during the region.
    """
    root_tids = {s.tid for s in spans if s.layer == BENCH}
    keep, index = [], {}
    for i, s in enumerate(spans):
        inside = (
            s.tid not in root_tids or s.layer == BENCH or s.parent in index)
        if inside:
            index[i] = len(keep)
            keep.append(Span(s.name, s.layer, s.start, s.end,
                             index.get(s.parent, -1), s.tid))
    return keep


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Traced per-layer host seconds and span counts of one repeat."""
    spans = _inside_region(spans)
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)

    def sec(layer: str) -> float:
        return totals.get(layer, (0.0, 0))[0]

    def calls(layer: str) -> int:
        return totals.get(layer, (0.0, 0))[1]

    # Application time inside handlers, as against application code the
    # drivers run themselves (the sequential coarse mesh of run_updr).
    under_handler = []
    for s in spans:
        under_handler.append(
            s.layer == HANDLER
            or (s.parent >= 0 and under_handler[s.parent]))
    handler_body = sum(
        own for s, own, inside in zip(spans, selfs, under_handler)
        if inside and s.layer in APP_LAYERS) / 1e9
    app_total = sum(sec(layer) for layer in APP_LAYERS)
    # The spans the work hangs under: the repeat's root on the main
    # thread, or the job spans of the server's worker threads.
    roots = [s for s in spans if s.parent < 0]
    work = [s for s in roots if s.layer != BENCH] or roots
    work_s = sum(s.duration for s in work) / 1e9
    out = {
        "core.computing.handler_body_s": handler_body,
        "core.runtime.dispatch_self_s": sec(DISPATCH),
        "core.runtime.overhead_pct": 100.0 * _ratio(
            work_s - app_total, work_s),
        "core.control.ready_s": sec(READY),
        "core.ooc.plan_s": sec(OOC),
        "core.ooc.plan_calls": calls(OOC),
        "core.codec.traced_pack_s": sec(PACK),
        "core.codec.traced_unpack_s": sec(UNPACK),
        "core.spec.manage_s": sec(SPEC),
        "core.packfile.io_s": sec(PACKFILE),
        "pumg.patch.refine_calls": calls(PATCH),
        "pumg.patch.refine_s": sec(PATCH),
        "mesh.triangulation.insert_points": sum(
            1 for s in spans if s.name == "Triangulation.insert_point"),
        "mesh.triangulation.insert_s": sec(INSERT),
        "mesh.triangulation.locate_s": sec(LOCATE),
        "geometry.predicates.exact_calls": calls(EXACT),
        "geometry.predicates.exact_s": sec(EXACT),
        "serve.checkpoints": sum(
            1 for s in spans if s.name == "MeshJobRunner.snapshot"),
        "serve.checkpoint_s": sec(CHECKPOINT),
        "trace.spans": len(spans),
        "trace.work_s": work_s,
    }
    for decorator in ("counting", "compressing", "checksummed", "retrying"):
        out[f"core.storage.{decorator}_s"] = sec(f"core.storage.{decorator}")
    # The raw store under the decorators, whichever class it is.
    out["core.storage.backend_s"] = sec("core.storage.backend") + sec(PACKFILE)
    return out


def count_metrics(exact: dict, host: dict) -> dict[str, float]:
    """Per-layer count metrics from one untraced repeat's public counters."""
    evictions = exact.get("evictions", 0)
    resolved = exact.get("spec_committed", 0) + exact.get("spec_aborted", 0)
    raw = exact.get("payload_bytes_raw", 0)
    pack_s = host.get("pack_s", 0.0)
    unpack_s = host.get("unpack_s", 0.0)
    g = exact.get
    return {
        "sim.engine.events": g("events", 0),
        "sim.engine.events_per_handler": _ratio(
            g("events", 0), g("handlers", 0)),
        "core.runtime.handlers": g("handlers", 0),
        "core.runtime.barrier_idle_s": g("barrier_idle_s", 0.0),
        "core.computing.steals": g("steals", 0),
        "core.spec.issued": g("spec_issued", 0),
        "core.spec.committed": g("spec_committed", 0),
        "core.spec.aborted": g("spec_aborted", 0),
        "core.spec.commit_rate": _ratio(
            g("spec_committed", 0), resolved, 1.0),
        "core.control.msgs_sent": g("msgs_sent", 0),
        "core.control.bytes_sent": g("bytes_sent", 0),
        "core.control.multicast_sends": g("multicast_sends", 0),
        "core.directory.forwards": g("forwards", 0),
        "core.directory.update_messages": g("update_messages", 0),
        "core.ooc.evictions": evictions,
        "core.ooc.clean_evictions": g("clean_evictions", 0),
        "core.ooc.clean_eviction_ratio": _ratio(
            g("clean_evictions", 0), evictions),
        "core.ooc.prefetch_issued": g("prefetch_issued", 0),
        "core.ooc.prefetch_hits": g("prefetch_hits", 0),
        "core.ooc.prefetch_wasted": g("prefetch_wasted", 0),
        "core.ooc.prefetch_hit_rate": _ratio(
            g("prefetch_hits", 0), g("prefetch_issued", 0), 1.0),
        "core.codec.packs": g("packs", 0),
        "core.codec.unpacks": g("unpacks", 0),
        "core.codec.delta_spills": g("delta_spills", 0),
        "core.codec.full_spills": g("full_spills", 0),
        "core.codec.payload_bytes_raw": raw,
        "core.codec.pack_s": pack_s,
        "core.codec.unpack_s": unpack_s,
        # Packed payload per second of pack time; loads read back what
        # the stores wrote, so the same bytes stand in for the unpacks.
        "core.codec.pack_MBps": _ratio(raw / 1e6, pack_s),
        "core.codec.unpack_MBps": _ratio(
            g("bytes_loaded", 0) / 1e6, unpack_s),
        "core.storage.stores": g("stores", 0),
        "core.storage.loads": g("loads", 0),
        "core.storage.bytes_written": g("bytes_written", 0),
        "core.storage.stored_ratio": _ratio(
            g("payload_bytes_stored", 0), raw, 1.0),
        "core.storage.retries": g("retries", 0),
        "core.packfile.segments": g("pack_segments", 0),
        "core.packfile.compactions": g("pack_compactions", 0),
        "mesh.n_points": g("n_points", 0),
        "serve.jobs": g("jobs", 0),
        "serve.admission_deferrals": host.get("admission_deferrals", 0),
        "run.bytes_stored": g("bytes_stored", 0),
        "run.bytes_loaded": g("bytes_loaded", 0),
    }


def median_of(dicts: list[dict]) -> dict[str, float]:
    """Key-wise median over the traced repeats' metric dicts."""
    return {
        key: statistics.median(d[key] for d in dicts) for key in dicts[0]
    }


# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER_UNITS: dict[str, tuple[str, str]] = {
    "sim.engine.events": ("count", "lower"),
    "sim.engine.events_per_handler": ("ratio", "lower"),
    "core.runtime.handlers": ("count", "lower"),
    "core.computing.handler_body_s": ("s", "lower"),
    "core.runtime.dispatch_self_s": ("s", "lower"),
    "core.runtime.overhead_pct": ("%", "lower"),
    "core.runtime.barrier_idle_s": ("s", "lower"),
    "core.computing.steals": ("count", "higher"),
    "core.spec.issued": ("count", "higher"),
    "core.spec.committed": ("count", "higher"),
    "core.spec.aborted": ("count", "lower"),
    "core.spec.commit_rate": ("ratio", "higher"),
    "core.spec.manage_s": ("s", "lower"),
    "core.control.msgs_sent": ("count", "lower"),
    "core.control.bytes_sent": ("B", "lower"),
    "core.control.multicast_sends": ("count", "lower"),
    "core.directory.forwards": ("count", "lower"),
    "core.directory.update_messages": ("count", "lower"),
    "core.control.ready_s": ("s", "lower"),
    "core.ooc.evictions": ("count", "lower"),
    "core.ooc.clean_evictions": ("count", "higher"),
    "core.ooc.clean_eviction_ratio": ("ratio", "higher"),
    "core.ooc.prefetch_issued": ("count", "higher"),
    "core.ooc.prefetch_hits": ("count", "higher"),
    "core.ooc.prefetch_wasted": ("count", "lower"),
    "core.ooc.prefetch_hit_rate": ("ratio", "higher"),
    "core.ooc.plan_s": ("s", "lower"),
    "core.ooc.plan_calls": ("count", "lower"),
    "core.codec.packs": ("count", "lower"),
    "core.codec.unpacks": ("count", "lower"),
    "core.codec.delta_spills": ("count", "higher"),
    "core.codec.full_spills": ("count", "lower"),
    "core.codec.payload_bytes_raw": ("B", "lower"),
    "core.codec.pack_s": ("s", "lower"),
    "core.codec.unpack_s": ("s", "lower"),
    "core.codec.traced_pack_s": ("s", "lower"),
    "core.codec.traced_unpack_s": ("s", "lower"),
    "core.codec.pack_MBps": ("MB/s", "higher"),
    "core.codec.unpack_MBps": ("MB/s", "higher"),
    "core.storage.stores": ("count", "lower"),
    "core.storage.loads": ("count", "lower"),
    "core.storage.bytes_written": ("B", "lower"),
    "core.storage.stored_ratio": ("ratio", "lower"),
    "core.storage.retries": ("count", "lower"),
    "core.storage.counting_s": ("s", "lower"),
    "core.storage.compressing_s": ("s", "lower"),
    "core.storage.checksummed_s": ("s", "lower"),
    "core.storage.retrying_s": ("s", "lower"),
    "core.storage.backend_s": ("s", "lower"),
    "core.packfile.segments": ("count", "lower"),
    "core.packfile.compactions": ("count", "lower"),
    "core.packfile.io_s": ("s", "lower"),
    "pumg.patch.refine_calls": ("count", "lower"),
    "pumg.patch.refine_s": ("s", "lower"),
    "mesh.triangulation.insert_points": ("count", "lower"),
    "mesh.triangulation.insert_s": ("s", "lower"),
    "mesh.triangulation.locate_s": ("s", "lower"),
    "geometry.predicates.exact_calls": ("count", "lower"),
    "geometry.predicates.exact_s": ("s", "lower"),
    "geometry.predicates.exact_fallback_ratio": ("ratio", "lower"),
    "mesh.n_points": ("count", "lower"),
    "mesh.refine.seq_baseline_s": ("s", "lower"),
    "pumg.overhead_vs_seq_x": ("x", "lower"),
    "pumg.ooc_penalty_x": ("x", "lower"),
    "serve.jobs": ("count", "higher"),
    "serve.job_latency_p50_s": ("s", "lower"),
    "serve.job_latency_p80_s": ("s", "lower"),
    "serve.admission_deferrals": ("count", "lower"),
    "serve.checkpoints": ("count", "lower"),
    "serve.checkpoint_s": ("s", "lower"),
    "obs.bus_overhead_pct": ("%", "lower"),
    "obs.events_emitted": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.work_s": ("s", "lower"),
    "host.calib_s": ("s", "lower"),
    "host.calib_drift_pct": ("%", "lower"),
    "run.repeats": ("count", "higher"),
    "run.wall_s": ("s", "lower"),
    "run.bytes_stored": ("B", "lower"),
    "run.bytes_loaded": ("B", "lower"),
}
