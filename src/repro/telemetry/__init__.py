"""Unified telemetry: span tracer, metrics registry, and exporters.

The observability layer of the reproduction (docs/ARCHITECTURE.md §9):

* ``Tracer`` (``telemetry.spans``) — nested phase spans on the simulated
  per-rank clock, priced with the alpha-beta ``CommCostModel``; instant
  events for fault retries and supervisor actions; counter tracks for
  memory and cumulative communication volume. Bridges ``CommLedger`` and
  ``MemoryTimeline`` instead of duplicating them.
* ``MetricsRegistry`` (``telemetry.metrics``) — counters, gauges, and
  histograms with cross-rank min/max/mean/p95 aggregation and JSONL
  export.
* Exporters (``telemetry.export``) — Chrome trace-event JSON (loadable in
  Perfetto / chrome://tracing) and a per-step ASCII summary table.
* ``TelemetrySession`` (``telemetry.session``) — the cluster-level hub:
  ``Cluster(world_size, telemetry=TelemetrySession())``.

Telemetry is strictly opt-in: without a session (``Cluster(telemetry=)``
or ``virtual_rank_context(telemetry=)``) no tracer objects are allocated
and the engines record nothing.
"""

from repro.telemetry.export import (
    ascii_summary,
    chrome_trace,
    validate_chrome_trace,
    validate_metrics_jsonl,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    METRICS_SCHEMA,
    AggregateStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.session import TelemetrySession
from repro.telemetry.spans import CounterSample, InstantEvent, Span, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "AggregateStats",
    "Counter",
    "CounterSample",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "Tracer",
    "ascii_summary",
    "chrome_trace",
    "validate_chrome_trace",
    "validate_metrics_jsonl",
    "write_chrome_trace",
]
