"""The per-session telemetry handle a crawl session owns.

One :class:`Telemetry` object accompanies one crawl session, held by
its :class:`~repro.crawler.client.CrawlClient`.  It bundles a
:class:`Tracer` on the session's simulated clock and an
:class:`EventBus` with whatever sinks the caller attached, and stamps
every published event with simulated time, a sequence number, and the
currently open pipeline phase.

The event stream is the session's only ledger: the client emits one
event per request attempt, the profiler one ``span`` per methodology
step, and every report or metric is a fold of that stream.  Nothing
below the client (frontend, rate limiter, pacer) holds a handle, so a
closed session can gain no events.  ``telemetry=None`` on the client
means observability is off; the cost is then one ``is None`` check per
call site (the overhead benchmark holds the JSONL sink under 10%).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.osn.clock import SimClock

from .events import EventBus, JsonlSink, MemorySink, PrometheusSink, Sink, TelemetryEvent
from .tracing import NO_PHASE, Span, Tracer


class Telemetry:
    """Tracer + event bus for one crawl session."""

    def __init__(self, clock: SimClock, sinks: Iterable[Sink] = ()) -> None:
        self.clock = clock
        self.bus = EventBus(sinks)
        self.tracer = Tracer(clock, emit=self.emit)
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def in_memory(cls, clock: SimClock) -> "Telemetry":
        """A telemetry session whose events stay in a memory sink."""
        return cls(clock, sinks=[MemorySink()])

    @classmethod
    def to_jsonl(cls, clock: SimClock, path: str) -> "Telemetry":
        """A telemetry session that writes a JSONL trace on close."""
        return cls(clock, sinks=[JsonlSink(path)])

    def add_prometheus(self, path: str) -> None:
        """Also fold the events into a metrics snapshot at ``path`` on close."""
        self.bus.add_sink(PrometheusSink(path))

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        """The innermost open span's name (events are attributed to it)."""
        return self.tracer.current or NO_PHASE

    def emit(self, kind: str, **fields) -> TelemetryEvent:
        """Stamp and publish one event to every sink."""
        phase = fields.pop("phase", None)
        event = TelemetryEvent(
            kind,
            self._seq,
            self.clock.seconds(),
            phase if phase is not None else self.phase,
            fields,
        )
        self._seq += 1
        self.bus.publish(event)
        return event

    def span(self, name: str) -> Span:
        """Open a pipeline phase; closing it emits a ``span`` event."""
        return self.tracer.span(name)

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TelemetryEvent]:
        """Events kept by the first memory or JSONL sink (empty if none)."""
        for sink in self.bus.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return []

    @property
    def event_count(self) -> int:
        return self._seq

    def close(self) -> None:
        """Flush every sink exactly once."""
        if not self._closed:
            self._closed = True
            self.bus.close()
