"""Observability for the attack pipeline: one event list per crawl session.

The paper's central quantitative claim is *measurement effort* — HTTP
GETs, accounts burned, throttle penalties, crawl duration (Section 4.5,
Table 3).  This package turns that bookkeeping into a first-class
subsystem:

* :mod:`.runtime` — the :class:`Telemetry` handle one crawl session
  owns, held by its crawl client: the session's events in one list, a
  phase stack whose spans record simulated and wall seconds, and the
  files written from the list on close;
* :mod:`.events` — :class:`TelemetryEvent` and its JSONL line format
  (:func:`read_jsonl` reads a trace back);
* :mod:`.metrics` — :func:`fold_metrics`, the fold of an event list
  into seven Prometheus families, and :func:`render_prometheus`;
* :mod:`.session` — per-phase / per-account / per-category
  crawl-session reports, built from a live list or a read-back trace.

A session's event list is its only ledger: the crawl client emits one
``request`` event per attempt at the site (plus ``throttle``,
``retry_exhausted`` and ``account_lost``), the profiler one ``span``
per methodology step, and every report and metric is a fold of that
list.  Telemetry is strictly opt-in: the client accepts
``telemetry=None``, and nothing it calls ever holds a handle.
"""

from .events import TelemetryEvent, read_jsonl
from .metrics import fold_metrics, render_prometheus
from .runtime import Telemetry
from .session import CrawlSessionReport

__all__ = [
    "CrawlSessionReport",
    "Telemetry",
    "TelemetryEvent",
    "fold_metrics",
    "read_jsonl",
    "render_prometheus",
]
