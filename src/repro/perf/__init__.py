"""repro.perf — the bench-record schema and the regression gate.

The pipeline itself is timed by the end-to-end benchmark under
``bench/``; this package holds what the remaining ``BENCH_*.json``
records (worldgen, lint, telemetry overhead) share:

* :mod:`repro.perf.record` — the versioned ``BENCH_*.json`` schema
  (stable keys, explicit units/directions, environment fingerprint,
  durations only), the shared noise bands and :func:`peak_rss_bytes`;
* :mod:`repro.perf.compare` — the regression gate behind
  ``python -m repro bench compare`` and CI's trajectory job.
"""

from .compare import (
    ComparisonItem,
    ComparisonReport,
    DEFAULT_TOLERANCE_PCT,
    RecordSetError,
    check_budgets,
    compare_sets,
    load_record_set,
    render_markdown,
    render_text,
)
from .record import (
    BenchRecordError,
    SCHEMA_VERSION,
    atomic_write_json,
    ensure_valid,
    environment_fingerprint,
    load_record,
    metric,
    new_record,
    peak_rss_bytes,
    validate_record,
    write_record,
)

__all__ = [
    "BenchRecordError",
    "ComparisonItem",
    "ComparisonReport",
    "DEFAULT_TOLERANCE_PCT",
    "RecordSetError",
    "SCHEMA_VERSION",
    "atomic_write_json",
    "check_budgets",
    "compare_sets",
    "ensure_valid",
    "environment_fingerprint",
    "load_record",
    "load_record_set",
    "metric",
    "new_record",
    "peak_rss_bytes",
    "render_markdown",
    "render_text",
    "validate_record",
    "write_record",
]
