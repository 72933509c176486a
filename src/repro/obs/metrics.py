"""Labeled counters, gauges and histograms with JSON snapshots.

A production runtime reports itself through a metrics registry, not a
grab-bag of ad-hoc attributes.  This module provides the registry and two
feeders:

* :class:`MetricsCollector` — a live :class:`~repro.obs.events.EventBus`
  subscriber that turns the typed event stream into per-node metrics as
  the run executes;
* :func:`collect_run_stats` — a post-hoc feeder that dumps an existing
  :class:`~repro.core.stats.RunStats` into a registry, so the legacy
  accounting and the new metrics surface stay one JSON document apart.

Metric identity is ``name`` plus a sorted label tuple, Prometheus-style;
``snapshot()`` renders everything to plain dicts for ``json.dumps``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

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
    SpecEvent,
    SpillEvent,
    Subscription,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stats import RunStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "collect_run_stats",
    "render_prometheus",
]

_DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf")
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, label-keyed value store."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[tuple, float] = {}

    def labels(self) -> list[dict]:
        return [dict(key) for key in self._values]

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict:
        return {
            "type": self.metric_type,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Counter(_Metric):
    """Monotonically increasing total."""

    metric_type = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + value


class Gauge(_Metric):
    """A value that can go anywhere (queue depth, bytes resident)."""

    metric_type = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; the last bound is always +inf.  Each
    label set tracks per-bucket counts plus sum and count.
    """

    metric_type = "histogram"

    def __init__(self, name: str, help: str = "", buckets=None) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets else _DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds
        self._values: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        cell = self._values.get(key)
        if cell is None:
            cell = self._values[key] = [[0] * len(self.buckets), 0.0, 0]
        cell[0][bisect_left(self.buckets, value)] += 1
        cell[1] += value
        cell[2] += 1

    def value(self, **labels):  # count, for symmetry with Counter.value
        cell = self._values.get(_label_key(labels))
        return cell[2] if cell is not None else 0

    def snapshot(self) -> dict:
        return {
            "type": self.metric_type,
            "help": self.help,
            "buckets": [b if b != float("inf") else "+inf"
                        for b in self.buckets],
            "values": [
                {
                    "labels": dict(key),
                    "counts": list(counts),
                    "sum": total,
                    "count": count,
                }
                for key, (counts, total, count) in sorted(self._values.items())
            ],
        }


class MetricsRegistry:
    """Get-or-create home for metrics; snapshotable to JSON."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.metric_type}, not {cls.metric_type}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> _Metric:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class MetricsCollector:
    """Bus subscriber that folds the event stream into a registry.

    Attach with :meth:`attach`; every metric is labeled at least by
    ``node`` so per-node breakdowns (the shape of Tables IV–VI) fall out
    of the snapshot directly.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self.handlers = r.counter(
            "mrts_handlers_total", "message handlers executed")
        self.comp_seconds = r.counter(
            "mrts_comp_seconds_total", "compute seconds charged")
        self.handler_duration = r.histogram(
            "mrts_handler_duration_seconds", "handler slot occupancy")
        self.sends = r.counter("mrts_sends_total", "wire transfers sent")
        self.sent_bytes = r.counter("mrts_sent_bytes_total", "bytes sent")
        self.comm_span = r.counter(
            "mrts_comm_span_seconds_total", "PE-perceived comm spans")
        self.disk_ops = r.counter(
            "mrts_disk_ops_total", "out-of-core transfers")
        self.disk_bytes = r.counter(
            "mrts_disk_bytes_total", "out-of-core bytes moved")
        self.disk_span = r.counter(
            "mrts_disk_span_seconds_total", "PE-perceived disk spans")
        self.evictions = r.counter("mrts_evictions_total", "objects evicted")
        self.loads = r.counter("mrts_loads_total", "objects loaded")
        self.spills = r.counter("mrts_spills_total", "dirty spills persisted")
        self.spill_raw = r.counter(
            "mrts_spill_raw_bytes_total", "spill payload before compression")
        self.spill_stored = r.counter(
            "mrts_spill_stored_bytes_total", "spill payload on the medium")
        self.retries = r.counter(
            "mrts_storage_retries_total", "storage faults absorbed")
        self.corrupt = r.counter(
            "mrts_corrupt_loads_total", "frame validation failures")
        self.packs = r.counter("mrts_packs_total", "serialization ops")
        self.pack_seconds = r.counter(
            "mrts_pack_seconds_total", "serialization wall seconds")
        self.prefetch = r.counter(
            "mrts_prefetch_total", "prefetch issues and hits")
        self.spec = r.counter(
            "mrts_spec_total", "speculative execution lifecycle edges")
        self.migrations = r.counter("mrts_migrations_total", "object moves")
        self.queue_depth = r.gauge(
            "mrts_queue_depth", "object message-queue depth at last enqueue")
        self.memory_used = r.gauge(
            "mrts_memory_used_bytes", "node residency bytes at last change")
        self.jobs = r.counter(
            "mrts_jobs_total", "service job lifecycle edges")
        self.job_residency = r.gauge(
            "mrts_job_residency_bytes",
            "per-job residency at the last phase boundary")
        self.events_seen = r.counter("mrts_obs_events_total", "events consumed")

    def attach(self, bus: EventBus) -> Subscription:
        return bus.subscribe(callback=self)

    def __call__(self, event: ObsEvent) -> None:
        node = event.node
        self.events_seen.inc(kind=event.kind)
        if isinstance(event, HandlerSpan):
            self.handlers.inc(node=node)
            self.comp_seconds.inc(event.comp_s, node=node)
            self.handler_duration.observe(event.duration, node=node)
        elif isinstance(event, SendSpan):
            if event.counted:
                self.sends.inc(node=node)
                self.sent_bytes.inc(event.nbytes, node=node)
                self.comm_span.inc(event.span_s, node=node)
        elif isinstance(event, DiskSpan):
            op = "store" if event.is_store else "load"
            self.disk_ops.inc(node=node, op=op)
            self.disk_bytes.inc(event.nbytes, node=node, op=op)
            self.disk_span.inc(event.span_s, node=node)
        elif isinstance(event, EvictEvent):
            self.evictions.inc(node=node, clean=str(event.clean).lower())
            self.memory_used.set(event.memory_used, node=node)
        elif isinstance(event, LoadEvent):
            self.loads.inc(
                node=node, background=str(event.background).lower())
            self.memory_used.set(event.memory_used, node=node)
        elif isinstance(event, SpillEvent):
            self.spills.inc(node=node, mode=event.mode)
            self.spill_raw.inc(event.raw_bytes, node=node)
            self.spill_stored.inc(event.stored_bytes, node=node)
        elif isinstance(event, RetryEvent):
            self.retries.inc(node=node, op=event.op)
        elif isinstance(event, CorruptEvent):
            self.corrupt.inc(node=node)
        elif isinstance(event, PackEvent):
            self.packs.inc(node=node, op=event.op)
            self.pack_seconds.inc(event.wall_s, node=node, op=event.op)
        elif isinstance(event, PrefetchEvent):
            self.prefetch.inc(node=node, phase=event.phase)
        elif isinstance(event, SpecEvent):
            self.spec.inc(node=node, phase=event.phase)
        elif isinstance(event, MigrateEvent):
            self.migrations.inc(node=node)
        elif isinstance(event, QueueDepthEvent):
            self.queue_depth.set(event.depth, node=node, oid=event.oid)
        elif isinstance(event, JobEvent):
            self.jobs.inc(phase=event.phase, tenant=event.tenant)
            if event.phase in ("boundary", "finished"):
                self.job_residency.set(
                    event.residency_bytes,
                    job=event.job_id, tenant=event.tenant)


def collect_run_stats(
    stats: "RunStats", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Dump a finished run's :class:`RunStats` into a registry.

    The legacy accounting keeps working unchanged; this bridge renders it
    through the same snapshot surface as the live collector, so tooling
    consumes one format regardless of how the numbers were gathered.
    """
    r = registry or MetricsRegistry()
    r.gauge("mrts_run_total_time_seconds", "virtual makespan").set(
        stats.total_time)
    r.gauge("mrts_run_overlap_pct", "paper Overlap metric").set(
        stats.overlap_pct())
    r.gauge("mrts_run_comp_pct", "Comp%% of capacity").set(stats.comp_pct())
    r.gauge("mrts_run_comm_pct", "Comm%% of capacity").set(stats.comm_pct())
    r.gauge("mrts_run_disk_pct", "Disk%% of capacity").set(stats.disk_pct())
    per_node = {
        "mrts_node_comp_seconds": "comp_time",
        "mrts_node_comm_span_seconds": "comm_span",
        "mrts_node_disk_span_seconds": "disk_span",
        "mrts_node_handlers": "handlers_run",
        "mrts_node_messages_sent": "messages_sent",
        "mrts_node_bytes_stored": "bytes_stored",
        "mrts_node_bytes_loaded": "bytes_loaded",
        "mrts_node_storage_retries": "storage_retries",
        "mrts_node_corrupt_loads": "corrupt_loads",
        "mrts_node_packs": "packs",
        "mrts_node_unpacks": "unpacks",
        "mrts_node_delta_spills": "delta_spills",
        "mrts_node_full_spills": "full_spills",
    }
    for name, attr in per_node.items():
        gauge = r.gauge(name, f"NodeStats.{attr}")
        for rank, node in enumerate(stats.nodes):
            gauge.set(getattr(node, attr), node=rank)
    return r


def _prom_escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _prom_labels(key: tuple, extra: Optional[tuple] = None) -> str:
    pairs = list(key) + (list(extra) if extra else [])
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    This is what the service's ``metrics`` op (and ``GET``-over-NDJSON
    scrapes built on it) returns: ``# HELP``/``# TYPE`` headers, one
    sample per label set, histograms expanded to cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count`` — parseable by a
    stock Prometheus scraper pointed at a file.
    """
    lines: list[str] = []
    for name in registry.names():
        metric = registry[name]
        if metric.help:
            lines.append(f"# HELP {name} {_prom_escape(metric.help)}")
        lines.append(f"# TYPE {name} {metric.metric_type}")
        if isinstance(metric, Histogram):
            for key, (counts, total, count) in sorted(metric._values.items()):
                cumulative = 0
                for bound, bucket_count in zip(metric.buckets, counts):
                    cumulative += bucket_count
                    le = ("le", _prom_value(bound))
                    lines.append(
                        f"{name}_bucket{_prom_labels(key, (le,))} "
                        f"{cumulative}"
                    )
                lines.append(f"{name}_sum{_prom_labels(key)} "
                             f"{_prom_value(total)}")
                lines.append(f"{name}_count{_prom_labels(key)} {count}")
        else:
            for key, value in sorted(metric._values.items()):
                lines.append(
                    f"{name}{_prom_labels(key)} {_prom_value(value)}"
                )
    return "\n".join(lines) + "\n"
