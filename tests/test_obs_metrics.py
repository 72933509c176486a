"""Tests for the metrics registry and the live bus collector."""

import json

import pytest

from repro.obs import MetricsCollector, MetricsRegistry, collect_run_stats
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.testing.harness import RuntimeHarness
from repro.testing.workloads import WorkloadSpec


def test_counter_labels_and_monotonicity():
    c = Counter("requests_total")
    c.inc(node=0)
    c.inc(2.5, node=0)
    c.inc(node=1)
    assert c.value(node=0) == 3.5
    assert c.value(node=1) == 1.0
    assert c.value(node=7) == 0.0
    with pytest.raises(ValueError):
        c.inc(-1.0, node=0)


def test_gauge_set_and_inc():
    g = Gauge("depth")
    g.set(4, node=0)
    g.set(3, node=0)
    g.set(7, node=1)
    assert g.value(node=0) == 3.0
    assert g.value(node=1) == 7.0
    assert g.value(node=2) == 0.0


def test_histogram_buckets_sum_count():
    h = Histogram("lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == [0.1, 1.0, "+inf"]
    (cell,) = snap["values"]
    assert cell["counts"] == [1, 1, 1]
    assert cell["count"] == 3
    assert cell["sum"] == pytest.approx(5.55)
    assert h.value() == 3


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(1.0, 0.1))


def test_registry_get_or_create_and_type_conflict():
    r = MetricsRegistry()
    c1 = r.counter("x_total")
    c2 = r.counter("x_total")
    assert c1 is c2
    with pytest.raises(TypeError):
        r.gauge("x_total")
    assert "x_total" in r
    assert r["x_total"] is c1
    assert r.names() == ["x_total"]


def test_registry_snapshot_is_json():
    r = MetricsRegistry()
    r.counter("a_total", "help a").inc(node=0)
    r.gauge("b").set(1.5)
    r.histogram("c").observe(0.2)
    doc = json.loads(r.to_json())
    assert doc["a_total"]["type"] == "counter"
    assert doc["a_total"]["values"] == [
        {"labels": {"node": "0"}, "value": 1.0}
    ]
    assert doc["b"]["type"] == "gauge"
    assert doc["c"]["type"] == "histogram"


def _run_observed_storm(seed=0):
    harness = RuntimeHarness(n_nodes=2, memory_bytes=24 * 1024)
    collector = MetricsCollector()
    collector.attach(harness.bus)
    harness.run_storm(WorkloadSpec(
        n_actors=8, payload_bytes=4096, initial_pulses=2,
        hops=4, fanout=2, seed=seed,
    ))
    return harness, collector


def test_collector_matches_run_stats():
    harness, collector = _run_observed_storm()
    stats = harness.runtime.stats
    for rank, node in enumerate(stats.nodes):
        assert collector.handlers.value(node=rank) == node.handlers_run
        assert collector.comp_seconds.value(node=rank) == pytest.approx(
            node.comp_time, abs=1e-12
        )
        got_span = collector.disk_span.value(node=rank)
        assert got_span == pytest.approx(node.disk_span, abs=1e-12)
    total_events = sum(
        v["value"]
        for v in collector.events_seen.snapshot()["values"]
    )
    assert total_events > 0


def test_collector_counts_disk_ops_by_direction():
    harness, collector = _run_observed_storm()
    stats = harness.runtime.stats
    stores = sum(
        collector.disk_ops.value(node=rank, op="store")
        for rank in range(len(stats.nodes))
    )
    loads = sum(
        collector.disk_ops.value(node=rank, op="load")
        for rank in range(len(stats.nodes))
    )
    assert stores == stats.objects_stored
    assert loads == stats.objects_loaded


def test_collect_run_stats_bridges_legacy_accounting():
    harness, _ = _run_observed_storm()
    stats = harness.runtime.stats
    registry = collect_run_stats(stats)
    assert registry["mrts_run_total_time_seconds"].value() == pytest.approx(
        stats.total_time
    )
    assert registry["mrts_run_overlap_pct"].value() == pytest.approx(
        stats.overlap_pct()
    )
    for rank, node in enumerate(stats.nodes):
        assert registry["mrts_node_handlers"].value(node=rank) == (
            node.handlers_run
        )
    # The whole document survives a JSON round-trip.
    json.loads(registry.to_json())
