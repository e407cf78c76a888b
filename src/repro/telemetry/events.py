"""The telemetry event stream: one typed record per noteworthy moment.

Events answer "what happened, in order", and every count is a fold of
them.  The crawl client publishes one :class:`TelemetryEvent` per
request attempt (and the profiler one per finished span) to an
:class:`EventBus`, which fans them out to pluggable sinks:

* :class:`MemorySink` — keeps events in a list (tests, live reports);
* :class:`JsonlSink` — keeps events and writes them as JSON lines on
  close, so a crawl session can be replayed later
  (``python -m repro trace``);
* :class:`PrometheusSink` — folds the events into a metrics registry
  and writes its text exposition on close.

Events are stamped with *simulated* time (the paper's unit of crawl
effort) plus a monotonic sequence number, so a JSONL trace replays into
exactly the report the live run produced.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, NamedTuple

from .metrics import MetricsRegistry, render_prometheus


def _line_encoder() -> Callable[[Dict[str, Any]], str]:
    """``json.dumps(payload, sort_keys=True)``, with its encoder built once.

    ``JSONEncoder.encode`` builds a fresh C encoder on every call, a
    fixed cost per line; this builds the same encoder once, with the
    same separators, escaping and float ``repr``.  The
    circular-reference check is off: a payload is one flat dict.
    """
    encoder = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:  # no C accelerator: the pure-Python encoder
        return encoder.encode
    encode = make(
        None,  # no circular-reference markers
        encoder.default,
        json.encoder.encode_basestring_ascii,
        None,  # no indent
        encoder.key_separator,
        encoder.item_separator,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return lambda payload: "".join(encode(payload, 0))


_encode_line = _line_encoder()


class TelemetryEvent(NamedTuple):
    """One timestamped happening in the crawl pipeline.

    A named tuple: a session emits one per request attempt, and a tuple
    is the cheapest immutable record to build.
    """

    kind: str
    seq: int
    sim_ts: float
    phase: str
    fields: Dict[str, Any]

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "seq": self.seq,
            "sim_ts": self.sim_ts,
            "phase": self.phase,
            **self.fields,
        }
        return _encode_line(payload)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        payload = json.loads(line)
        return cls(
            kind=payload.pop("kind"),
            seq=payload.pop("seq"),
            sim_ts=payload.pop("sim_ts"),
            phase=payload.pop("phase", "-"),
            fields=payload,
        )


class Sink:
    """Interface for event consumers attached to the bus."""

    def handle(self, event: TelemetryEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush any buffered output; called once when the session ends."""


class MemorySink(Sink):
    """Collects every event in memory (the default sink for tests)."""

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        self.events.append(event)


class JsonlSink(MemorySink):
    """Keeps events and writes them as JSON lines on close.

    Serialising once, at close, leaves a list append as the per-event
    cost while the crawl runs.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        self._closed = False

    @property
    def event_count(self) -> int:
        return len(self.events)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{event.to_json()}\n" for event in self.events)


class PrometheusSink(Sink):
    """Folds the event stream into metrics; writes the exposition on close.

    Every family is a count over the client's ``request`` events (one
    per frontend attempt) and its ``throttle`` events.  Strikes and
    disables are the ones this session's attempts ran into.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.registry = registry = MetricsRegistry()
        self._requests = registry.counter(
            "crawl_requests_total",
            "Successful crawl GETs by Table-3 category",
            labelnames=("category",),
        )
        self._account_requests = registry.counter(
            "crawl_account_requests_total",
            "Successful crawl GETs per crawl account",
            labelnames=("account",),
        )
        self._outcomes = registry.counter(
            "frontend_requests_total",
            "HTTP requests served by the OSN frontend, by outcome",
            labelnames=("outcome",),
        )
        self._wall = registry.histogram(
            "frontend_request_wall_seconds",
            "Wall-clock time spent serving one request",
        )
        self._strikes = registry.counter(
            "ratelimit_strikes_total",
            "Rate-limit strikes earned, per crawl account",
            labelnames=("account",),
        )
        self._disabled = registry.counter(
            "ratelimit_accounts_disabled_total",
            "Accounts permanently disabled for aggressive crawling",
        )
        self._sleeps = registry.histogram(
            "pacer_sleep_seconds",
            "Simulated seconds slept between requests, by reason",
            labelnames=("reason",),
        )

    def handle(self, event: TelemetryEvent) -> None:
        fields = event.fields
        if event.kind == "request":
            outcome = fields["outcome"]
            self._outcomes.labels(outcome=outcome).inc()
            self._wall.labels().observe(fields["wall_seconds"])
            if fields["delay"] > 0:
                self._sleeps.labels(reason="polite").observe(fields["delay"])
            if outcome == "ok":
                self._requests.labels(category=fields["category"]).inc()
                self._account_requests.labels(account=fields["account"]).inc()
            elif outcome in ("rate_limited", "account_disabled"):
                self._strikes.labels(account=fields["account"]).inc()
                if outcome == "account_disabled":
                    self._disabled.labels().inc()
        elif event.kind == "throttle" and fields["slept"] > 0:
            self._sleeps.labels(reason="backoff").observe(fields["slept"])

    def close(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(self.registry))


class EventBus:
    """Fans events out to every attached sink, in order."""

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks: List[Sink] = list(sinks)

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)

    def publish(self, event: TelemetryEvent) -> None:
        for sink in self.sinks:
            sink.handle(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_jsonl(path: str) -> List[TelemetryEvent]:
    """Load a JSONL trace back into event records (see :mod:`.replay`)."""
    events: List[TelemetryEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TelemetryEvent.from_json(line))
    return events
