"""Metrics registry: counters, gauges, and histograms with cross-rank
aggregation and JSONL export.

One ``MetricsRegistry`` is shared by every rank of a telemetry session;
each metric instance is identified by ``(name, labels)``. By convention
per-rank metrics carry a ``rank`` label, so aggregating a name across all
its label-sets (``aggregate``) yields the cross-rank min/max/mean/p95 the
straggler analysis of Sections 7/8 cares about.

Thread model: label-set creation is lock-guarded; *updates* to one metric
instance are expected to come from a single rank thread (the per-rank
``rank=`` labelling convention guarantees this in cluster runs).

Lookup model: a metric's identity is its name plus its labels sorted and
rendered with ``str()``. Building that key costs a sort and a ``str()``
per label, so it is built only when a metric is created (or first asked
for with labels in a new order); every later request is answered from a
handle table keyed by the kind, the name and the caller's labels as given,
with no sort and no lock. Label values that compare equal therefore share
a handle: ``rank=3`` and ``rank=np.int64(3)`` do, as they share one
sorted key, and so would a bool or float label equal to an integer one —
labels here are strings and integers.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass


#: schema tag carried by every exported metrics-JSONL row.
METRICS_SCHEMA = "metrics-v1"


def _labels_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (comm bytes, retries, steps)."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def observations(self) -> list[float]:
        return [self.value]


class Gauge:
    """Last-written value, with a running max (peak memory)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max_value = max(self.max_value, self.value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (convenience for peak tracking)."""
        if self.max_value == -math.inf or value > self.value:
            self.set(value)

    def observations(self) -> list[float]:
        return [self.value]


class Histogram:
    """All observed values (step times); summarized on export."""

    kind = "histogram"

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def observations(self) -> list[float]:
        return list(self.values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


@dataclass(frozen=True)
class AggregateStats:
    """Cross-instance summary of one metric name."""

    count: int
    minimum: float
    maximum: float
    mean: float
    p95: float


class MetricsRegistry:
    """Get-or-create metric instances keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        #: (kind, name, *labels in the caller's order) -> the metric
        self._handles: dict[tuple, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict[str, object]):
        try:
            return self._handles[(cls, name, *labels.items())]
        except (KeyError, TypeError):  # new, or a label value that cannot hash
            pass
        return self._create(cls, name, labels)

    def _create(self, cls, name: str, labels: dict[str, object]):
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls()
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            try:
                self._handles[(cls, name, *labels.items())] = metric
            except TypeError:
                pass  # unhashable label value: this caller keeps the sorted path
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- aggregation -------------------------------------------------------

    def instances(self, name: str, **match) -> list[tuple[dict[str, str], object]]:
        """(labels, metric) pairs for ``name`` whose labels match ``match``."""
        out = []
        with self._lock:
            items = list(self._metrics.items())
        for (n, key), metric in items:
            if n != name:
                continue
            labels = dict(key)
            if any(labels.get(k) != str(v) for k, v in match.items()):
                continue
            out.append((labels, metric))
        return out

    def aggregate(self, name: str, **match) -> AggregateStats:
        """Pool every matching instance's observations (e.g. across the
        ``rank`` label) into min/max/mean/p95."""
        values: list[float] = []
        for _, metric in self.instances(name, **match):
            values.extend(metric.observations())
        if not values:
            return AggregateStats(0, 0.0, 0.0, 0.0, 0.0)
        return AggregateStats(
            count=len(values),
            minimum=min(values),
            maximum=max(values),
            mean=sum(values) / len(values),
            p95=percentile(values, 95.0),
        )

    # -- export ------------------------------------------------------------

    def rows(self) -> list[dict]:
        """One JSON-ready dict per metric instance (schema ``metrics-v1``,
        checked by ``repro.telemetry.validate_metrics_jsonl``)."""
        out = []
        with self._lock:
            items = sorted(self._metrics.items(), key=lambda kv: kv[0])
        for (name, key), metric in items:
            row: dict = {
                "schema": METRICS_SCHEMA, "name": name, "kind": metric.kind,
                "labels": dict(key),
            }
            if isinstance(metric, Histogram):
                row.update(
                    count=metric.count,
                    min=min(metric.values) if metric.values else 0.0,
                    max=max(metric.values) if metric.values else 0.0,
                    mean=(sum(metric.values) / len(metric.values)) if metric.values else 0.0,
                    p95=metric.percentile(95.0),
                )
            elif isinstance(metric, Gauge):
                row.update(value=metric.value,
                           max=metric.max_value if metric.max_value != -math.inf else 0.0)
            else:
                row.update(value=metric.value)
            out.append(row)
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(row, sort_keys=True) for row in self.rows())

    def write_jsonl(self, path) -> None:
        text = self.to_jsonl()
        with open(path, "w") as f:
            f.write(text + ("\n" if text else ""))
