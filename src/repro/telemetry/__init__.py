"""Observability for the attack pipeline: metrics, traces, events, reports.

The paper's central quantitative claim is *measurement effort* — HTTP
GETs, accounts burned, throttle penalties, crawl duration (Section 4.5,
Table 3).  This package turns that bookkeeping into a first-class
subsystem:

* :mod:`.metrics` — label-aware counters/gauges/histograms plus
  Prometheus text exposition;
* :mod:`.tracing` — sim-clock-aware spans (simulated crawl seconds
  alongside wall seconds);
* :mod:`.events` — the event bus and its sinks (memory, JSONL, and a
  Prometheus snapshot folded from the events);
* :mod:`.runtime` — the :class:`Telemetry` handle one crawl session
  owns, held by its crawl client;
* :mod:`.session` / :mod:`.replay` — per-phase / per-account /
  per-category crawl-session reports, buildable live or from a trace.

A session's event stream is its only ledger: the crawl client emits
one ``request`` event per attempt at the site (plus ``throttle``,
``retry_exhausted`` and ``account_lost``), the profiler one ``span``
per methodology step, and every report and metric is a fold of that
stream.  Telemetry is strictly opt-in: the client accepts
``telemetry=None``, and nothing it calls ever holds a handle.
"""

from .events import (
    EventBus,
    JsonlSink,
    MemorySink,
    PrometheusSink,
    Sink,
    TelemetryEvent,
    read_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    render_prometheus,
)
from .replay import load_trace, replay_report
from .runtime import Telemetry
from .session import AccountStats, CrawlSessionReport, PhaseStats
from .tracing import NO_PHASE, Span, SpanRecord, Tracer

__all__ = [
    "AccountStats",
    "Counter",
    "CrawlSessionReport",
    "DEFAULT_BUCKETS",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricFamily",
    "MetricsRegistry",
    "NO_PHASE",
    "PhaseStats",
    "PrometheusSink",
    "Sink",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TelemetryEvent",
    "Tracer",
    "load_trace",
    "read_jsonl",
    "render_prometheus",
    "replay_report",
]
