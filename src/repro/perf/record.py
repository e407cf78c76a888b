"""The versioned bench-record schema every ``BENCH_*.json`` follows.

One record is one point on the repo's perf trajectory.  The contract:

* **stable keys** — ``schema_version``, ``benchmark``, ``params``,
  ``environment`` and ``metrics``; producers may add extra top-level
  sections, comparators ignore them;
* **explicit units and directions** — every metric says what it is
  measured in and whether bigger is better (``higher``), smaller is
  better (``lower``), the value must be bit-identical across seeded
  runs (``exact``), or it is context only (``info``);
* **durations, never timestamps** — records carry elapsed seconds and
  counters so they stay CLOCK001-clean and diffable across machines;
  the validator rejects timestamp-shaped keys outright;
* **an environment fingerprint** — enough machine context to explain
  a trajectory step without ever gating on it.

:func:`peak_rss_bytes` lives here (shared by the worldgen and lint
records) because memory high-water marks are part of every record.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from importlib import util as importlib_util
from typing import Any, Dict, List, Mapping, Optional, Union

#: Bump when a key is renamed/removed or its meaning changes; the
#: comparator refuses to gate across versions (it warns and skips).
SCHEMA_VERSION = 1

#: Noise band for wall-clock throughput on shared runners.  Kept under
#: 20% so a one-fifth throughput loss — the kind of step a bad cache or
#: an accidental O(n^2) introduces — always gates.
THROUGHPUT_TOLERANCE_PCT = 15.0
#: Noise band for peak-RSS and byte footprints (allocator and
#: interpreter jitter).
RSS_TOLERANCE_PCT = 20.0

#: Comparison semantics a metric may declare.
DIRECTIONS = frozenset({"higher", "lower", "exact", "info"})

#: The unit vocabulary.  Closed on purpose: a typo'd unit is a schema
#: error at emit time, not a silently-uncompared metric in CI.
UNITS = frozenset(
    {
        "seconds",
        "sim_seconds",
        "pages/sec",
        "accounts/sec",
        "pairs/sec",
        "files/sec",
        "bytes",
        "count",
        "ratio",
        "percent",
    }
)

#: Required environment-fingerprint keys.
ENVIRONMENT_KEYS = ("python", "implementation", "platform", "machine", "numpy", "cpu_count")

#: Key fragments the durations-only discipline forbids anywhere.
_TIMESTAMP_FRAGMENTS = ("timestamp", "_epoch", "wall_clock_at")

#: ru_maxrss is kibibytes on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024

Scalar = Union[str, int, float, bool, None]


class BenchRecordError(ValueError):
    """A record violated the schema; carries every problem found."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_UNIT


def environment_fingerprint() -> Dict[str, Any]:
    """Where a record was measured — context for trend steps, never a gate."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": importlib_util.find_spec("numpy") is not None,
        "cpu_count": os.cpu_count() or 1,
    }


def metric(
    value: float,
    unit: str,
    direction: str = "info",
    tolerance_pct: Optional[float] = None,
    max_value: Optional[float] = None,
) -> Dict[str, Any]:
    """One metric entry.  ``tolerance_pct`` is the noise band the
    comparator allows before calling a move a regression;  ``max_value``
    is an absolute budget checked against the new record alone."""
    entry: Dict[str, Any] = {"value": value, "unit": unit, "direction": direction}
    if tolerance_pct is not None:
        entry["tolerance_pct"] = tolerance_pct
    if max_value is not None:
        entry["max_value"] = max_value
    return entry


def new_record(
    benchmark: str,
    params: Mapping[str, Scalar],
    metrics: Mapping[str, Mapping[str, Any]],
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble a schema-shaped record (validate separately on write)."""
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "params": dict(params),
        "environment": environment_fingerprint(),
        "metrics": {name: dict(entry) for name, entry in metrics.items()},
    }
    record.update(extra)
    return record


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_metric(name: str, entry: Any, problems: List[str]) -> None:
    where = f"metrics[{name!r}]"
    if not isinstance(entry, Mapping):
        problems.append(f"{where}: not a mapping")
        return
    if not _is_number(entry.get("value")):
        problems.append(f"{where}: 'value' must be a finite number")
    if entry.get("unit") not in UNITS:
        problems.append(
            f"{where}: unit {entry.get('unit')!r} not in the schema vocabulary"
        )
    if entry.get("direction") not in DIRECTIONS:
        problems.append(
            f"{where}: direction {entry.get('direction')!r} "
            f"not one of {sorted(DIRECTIONS)}"
        )
    for optional in ("tolerance_pct", "max_value"):
        if optional in entry and not _is_number(entry[optional]):
            problems.append(f"{where}: {optional!r} must be a finite number")
    if _is_number(entry.get("tolerance_pct")) and entry["tolerance_pct"] < 0:
        problems.append(f"{where}: 'tolerance_pct' must be >= 0")


def validate_record(record: Any) -> List[str]:
    """Every schema violation in ``record`` (empty list == valid)."""
    if not isinstance(record, Mapping):
        return ["record is not a JSON object"]
    problems: List[str] = []

    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(record.get("benchmark"), str) or not record.get("benchmark"):
        problems.append("'benchmark' must be a non-empty string")

    env = record.get("environment")
    if not isinstance(env, Mapping):
        problems.append("'environment' must be a mapping")
    else:
        for key in ENVIRONMENT_KEYS:
            if key not in env:
                problems.append(f"environment missing key {key!r}")

    params = record.get("params", {})
    if not isinstance(params, Mapping):
        problems.append("'params' must be a mapping")
    else:
        for key, value in params.items():
            if not isinstance(value, (str, int, float, bool, type(None))):
                problems.append(f"params[{key!r}]: not a scalar")

    metrics = record.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        problems.append("'metrics' must be a non-empty mapping")
    else:
        for name, entry in metrics.items():
            _check_metric(name, entry, problems)

    for key in record:
        lowered = str(key).lower()
        if any(fragment in lowered for fragment in _TIMESTAMP_FRAGMENTS):
            problems.append(
                f"key {key!r} looks like a timestamp; records carry durations only"
            )
    if isinstance(metrics, Mapping):
        for name in metrics:
            lowered = str(name).lower()
            if any(fragment in lowered for fragment in _TIMESTAMP_FRAGMENTS):
                problems.append(
                    f"metric {name!r} looks like a timestamp; "
                    "records carry durations only"
                )
    return problems


def ensure_valid(record: Any) -> None:
    """Raise :class:`BenchRecordError` unless ``record`` is schema-clean."""
    problems = validate_record(record)
    if problems:
        raise BenchRecordError(problems)


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------

def atomic_write_json(payload: Any, path: Union[str, "os.PathLike[str]"]) -> None:
    """Serialise then ``os.replace`` so readers never see a torn record."""
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_record(record: Any, path: Union[str, "os.PathLike[str]"]) -> None:
    """Validate then atomically write one bench record."""
    ensure_valid(record)
    atomic_write_json(record, path)


def load_record(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Load one record file; raises ``BenchRecordError`` on non-objects."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise BenchRecordError([f"{os.fspath(path)}: record is not a JSON object"])
    return payload
