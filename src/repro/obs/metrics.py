"""Labeled counters and gauges with JSON snapshots and a Prometheus scrape.

The service's ``metrics`` op reports through this registry: the job
manager counts job lifecycle edges, per-job residency and the admission
reservations here, and :func:`render_prometheus` renders the scrape.  Run
numbers (makespan, overlap, per-node time and bytes) live in
:class:`~repro.core.stats.RunStats`, not here.

Metric identity is ``name`` plus a sorted label tuple, Prometheus-style;
``snapshot()`` renders everything to plain dicts for ``json.dumps``.
"""

from __future__ import annotations

import json
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "render_prometheus",
]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, label-keyed value store."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[tuple, float] = {}

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


class MetricsRegistry:
    """Get-or-create home for metrics; snapshotable to JSON."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help)
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


def _prom_escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _prom_labels(key: tuple) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in key)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    This is what the service's ``metrics`` op returns: ``# HELP``/``# TYPE``
    headers and one sample per label set, parseable by a stock Prometheus
    scraper pointed at a file.
    """
    lines: list[str] = []
    for name in registry.names():
        metric = registry[name]
        if metric.help:
            lines.append(f"# HELP {name} {_prom_escape(metric.help)}")
        lines.append(f"# TYPE {name} {metric.metric_type}")
        for key, value in sorted(metric._values.items()):
            lines.append(f"{name}{_prom_labels(key)} {_prom_value(value)}")
    return "\n".join(lines) + "\n"
