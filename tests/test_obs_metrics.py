"""Tests for the metrics registry."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge


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
    doc = json.loads(r.to_json())
    assert doc["a_total"]["type"] == "counter"
    assert doc["a_total"]["values"] == [
        {"labels": {"node": "0"}, "value": 1.0}
    ]
    assert doc["b"]["type"] == "gauge"
