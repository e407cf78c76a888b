"""The Prometheus snapshot: seven metric families folded from the events.

The paper's headline cost numbers (Table 3) are *counts* — HTTP GETs by
category, accounts burned, throttle strikes — and each is a count over
a session's ``request`` events (one per frontend attempt) and its
``throttle`` events.  :func:`fold_metrics` folds an event list into the
seven families of :data:`FAMILIES`; :func:`render_prometheus` writes
them in the Prometheus text exposition format.  A session does both
once, when it closes, so nothing on the crawl path touches a metric.
Strikes and disables are the ones the session's attempts ran into.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .events import TelemetryEvent

#: Histogram buckets, tuned for seconds-scale durations (polite sleeps,
#: backoff penalties, request wall time).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: ``(name, help, type, label name or None)`` per family, in exposition order.
FAMILIES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    (
        "crawl_requests_total",
        "Successful crawl GETs by Table-3 category",
        "counter",
        "category",
    ),
    (
        "crawl_account_requests_total",
        "Successful crawl GETs per crawl account",
        "counter",
        "account",
    ),
    (
        "frontend_requests_total",
        "HTTP requests served by the OSN frontend, by outcome",
        "counter",
        "outcome",
    ),
    (
        "frontend_request_wall_seconds",
        "Wall-clock time spent serving one request",
        "histogram",
        None,
    ),
    (
        "ratelimit_strikes_total",
        "Rate-limit strikes earned, per crawl account",
        "counter",
        "account",
    ),
    (
        "ratelimit_accounts_disabled_total",
        "Accounts permanently disabled for aggressive crawling",
        "counter",
        None,
    ),
    (
        "pacer_sleep_seconds",
        "Simulated seconds slept between requests, by reason",
        "histogram",
        "reason",
    ),
)


class Histogram:
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
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


#: One family's series: label value (``None`` when the family has no
#: label) -> an ``int`` count, or a :class:`Histogram`.
Series = Dict[Optional[str], Any]


def fold_metrics(events: Iterable[TelemetryEvent]) -> Dict[str, Series]:
    """Fold an event list into the series of every family in :data:`FAMILIES`."""
    families: Dict[str, Series] = {name: {} for name, *_ in FAMILIES}

    def count(name: str, label: Optional[str]) -> None:
        series = families[name]
        series[label] = series.get(label, 0) + 1

    def observe(name: str, label: Optional[str], value: float) -> None:
        series = families[name]
        histogram = series.get(label)
        if histogram is None:
            histogram = series[label] = Histogram(DEFAULT_BUCKETS)
        histogram.observe(value)

    for event in events:
        fields = event.fields
        if event.kind == "request":
            outcome = str(fields["outcome"])
            count("frontend_requests_total", outcome)
            observe("frontend_request_wall_seconds", None, fields["wall_seconds"])
            if fields["delay"] > 0:
                observe("pacer_sleep_seconds", "polite", fields["delay"])
            if outcome == "ok":
                count("crawl_requests_total", str(fields["category"]))
                count("crawl_account_requests_total", str(fields["account"]))
            elif outcome in ("rate_limited", "account_disabled"):
                count("ratelimit_strikes_total", str(fields["account"]))
                if outcome == "account_disabled":
                    count("ratelimit_accounts_disabled_total", None)
        elif event.kind == "throttle" and fields["slept"] > 0:
            observe("pacer_sleep_seconds", "backoff", fields["slept"])
    return families


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    text = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + text + "}" if text else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(families: Dict[str, Series]) -> str:
    """Serialise folded families in the Prometheus text format (0.0.4).

    Series are sorted by label value, compared as text.
    """
    lines: List[str] = []
    for name, help_text, kind, label in FAMILIES:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for value, series in sorted(families[name].items()):
            pairs = [] if label is None else [(label, value)]
            labels = _format_labels(pairs)
            if kind == "histogram":
                for bound, cumulative in series.cumulative():
                    le = _format_labels([*pairs, ("le", _format_value(bound))])
                    lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{labels} {_format_value(series.sum)}")
                lines.append(f"{name}_count{labels} {series.count}")
            else:
                lines.append(f"{name}{labels} {series}")
    return "\n".join(lines) + "\n"
