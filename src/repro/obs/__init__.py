"""repro.obs — first-class observability for the MRTS runtime.

The paper's whole evaluation is about *seeing inside* the runtime:
Tables IV–VI are computation/communication/disk overlap percentages,
Figure 1 compares scheduler backends.  This package is the structured
telemetry layer that makes those views first-class instead of ad-hoc:

* :mod:`repro.obs.events` — typed events and the :class:`EventBus`.
  Every layer of the runtime carries stable emit points (computing:
  handler spans and queue depths; control: sends and migrations;
  out-of-core: loads, spills, evictions, prefetches, residency; storage:
  frame I/O, retries, corruption, compression ratios) that publish to
  zero-or-more subscribers.  With no subscriber attached the runtime
  pays a single attribute check per emit point — instrumentation is
  strictly pay-for-use.
* :mod:`repro.obs.metrics` — a labeled counter/gauge registry,
  snapshotable to JSON and rendered as the service's Prometheus scrape.
* :mod:`repro.obs.export` — Chrome-trace / Perfetto JSON export with
  per-node process tracks and per-activity thread lanes, so any run can
  be opened in https://ui.perfetto.dev.
* :mod:`repro.obs.analysis` — computes the paper's overlap percentages
  directly from the event stream (cross-checked against
  :class:`~repro.core.stats.RunStats` by property tests), per-node
  utilization, a critical-path decomposition of the makespan, and a
  run-to-run diff for ``BENCH_ooc.json``-style reports.

``mrts-bench trace <workload> --out trace.json`` and ``mrts-bench
report <old> <new>`` surface all of this from the command line.
"""

from repro.obs.analysis import (
    busy_times,
    critical_path,
    diff_reports,
    overlap_report,
    render_diff,
    utilization_report,
)
from repro.obs.events import (
    CorruptEvent,
    DiskSpan,
    EvictEvent,
    EventBus,
    HandlerSpan,
    JobEvent,
    LoadEvent,
    MigrateEvent,
    ObsEvent,
    PackEvent,
    PrefetchEvent,
    QueueDepthEvent,
    RetryEvent,
    SendSpan,
    SpillEvent,
    Subscription,
)
from repro.obs.export import LANES, to_chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    render_prometheus,
)

__all__ = [
    "CorruptEvent",
    "Counter",
    "DiskSpan",
    "EvictEvent",
    "EventBus",
    "Gauge",
    "HandlerSpan",
    "JobEvent",
    "LANES",
    "LoadEvent",
    "MetricsRegistry",
    "MigrateEvent",
    "ObsEvent",
    "PackEvent",
    "PrefetchEvent",
    "QueueDepthEvent",
    "RetryEvent",
    "SendSpan",
    "SpillEvent",
    "Subscription",
    "busy_times",
    "critical_path",
    "diff_reports",
    "overlap_report",
    "render_diff",
    "render_prometheus",
    "to_chrome_trace",
    "utilization_report",
    "write_chrome_trace",
]
