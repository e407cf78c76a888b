"""Label-aware metric primitives (counters, gauges, histograms).

The paper's headline cost numbers (Table 3) are *counts* — HTTP GETs by
category, accounts burned, throttle strikes — so the observability layer
is built around a small Prometheus-flavoured metrics model:

* a :class:`MetricsRegistry` owns named metric *families*;
* each family fans out into label-keyed *series* via :meth:`labels`;
* :func:`render_prometheus` serialises the whole registry in the
  Prometheus text exposition format for scraping or offline diffing.

Everything is plain in-process Python on the simulated pipeline — there
is no background thread and no real network.  Nothing on the crawl path
writes a registry: :class:`~repro.telemetry.events.PrometheusSink` fills
one by folding a session's event stream.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for seconds-scale durations (polite
#: sleeps, backoff penalties, request wall time).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames "
            f"{sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class Counter:
    """A monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount})")
        self.value += amount


class Gauge:
    """A series that can go up and down (e.g. usable accounts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class MetricFamily:
    """A named metric plus all its label-keyed series."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError(f"duplicate label names in {labelnames!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._series: Dict[LabelKey, object] = {}

    def _make_series(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets)

    def labels(self, **labels: str):
        """The series for this exact label combination (created lazily)."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._make_series()
        return series

    def series(self) -> Dict[LabelKey, object]:
        """All live series, keyed by ``((label, value), ...)`` tuples."""
        return dict(self._series)

    # Convenience aggregates -------------------------------------------
    def total(self) -> float:
        """Sum of counter/gauge values (or observation counts) across series."""
        if self.kind == "histogram":
            return float(sum(s.count for s in self._series.values()))  # type: ignore[union-attr]
        return float(sum(s.value for s in self._series.values()))  # type: ignore[union-attr]

    def series_count(self) -> int:
        return len(self._series)


class MetricsRegistry:
    """Owns every metric family of one telemetry session."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames!r}"
                )
            return existing
        family = MetricFamily(name, help_text, kind, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, help_text, "histogram", labelnames, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def collect(self) -> Iterable[MetricFamily]:
        return list(self._families.values())


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"' for name, value in (*key, *extra)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Serialise every family in the Prometheus text format (0.0.4)."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help_text:
            lines.append(f"# HELP {family.name} {family.help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, series in sorted(family.series().items()):
            if family.kind == "histogram":
                assert isinstance(series, Histogram)
                for bound, cum in series.cumulative():
                    labels = _format_labels(key, (("le", _format_value(bound)),))
                    lines.append(f"{family.name}_bucket{labels} {cum}")
                labels = _format_labels(key)
                lines.append(f"{family.name}_sum{labels} {_format_value(series.sum)}")
                lines.append(f"{family.name}_count{labels} {series.count}")
            else:
                assert isinstance(series, (Counter, Gauge))
                labels = _format_labels(key)
                lines.append(f"{family.name}{labels} {_format_value(series.value)}")
    return "\n".join(lines) + ("\n" if lines else "")
