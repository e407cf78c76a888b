"""The per-session telemetry handle a crawl session owns.

One :class:`Telemetry` object accompanies one crawl session, held by
its :class:`~repro.crawler.client.CrawlClient`.  It keeps the session's
events in one list, stamping each with simulated time, a sequence
number and the innermost open span (the pipeline *phase*), and on
close writes the JSONL trace and the Prometheus snapshot that were
asked for, each folded once from that list.

The event list is the session's only ledger: the client emits one
event per request attempt, the profiler one ``span`` per methodology
step, and every report or metric is a fold of it.  Nothing below the
client (frontend, rate limiter, pacer) holds a handle, so a closed
session can gain no events.  ``telemetry=None`` on the client means
observability is off; the cost is then one ``is None`` check per
attempt (the overhead benchmark holds the JSONL trace under 10%).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.osn.clock import SimClock

from .events import TelemetryEvent
from .metrics import fold_metrics, render_prometheus

#: Phase label of events emitted while no span is open.
NO_PHASE = "-"


class Telemetry:
    """The events of one crawl session, and the files written from them."""

    def __init__(
        self,
        clock: SimClock,
        *,
        jsonl: Optional[str] = None,
        prometheus: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.jsonl = jsonl
        self.prometheus = prometheus
        self.events: List[TelemetryEvent] = []
        # Open span names, innermost last, over the no-span phase.
        self._phases: List[str] = [NO_PHASE]
        self._closed = False

    @property
    def phase(self) -> str:
        """The innermost open span's name (events are attributed to it)."""
        return self._phases[-1]

    @property
    def event_count(self) -> int:
        return len(self.events)

    def emit(self, kind: str, **fields) -> TelemetryEvent:
        """Stamp one event and append it to the session's list."""
        events = self.events
        event = TelemetryEvent(
            kind, len(events), self.clock.seconds(), self._phases[-1], fields
        )
        events.append(event)
        return event

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a pipeline phase; closing it emits a ``span`` event.

        The phase is popped before the event is emitted, so the event is
        attributed to the parent phase; ``error`` says whether the block
        raised.  ``sim_seconds`` is simulated crawl time (the paper's
        unit of effort), ``wall_seconds`` the time it took to compute.
        """
        parent = self._phases[-1]
        sim_start = self.clock.seconds()
        wall_start = time.perf_counter()
        self._phases.append(name)
        error = True
        try:
            yield
            error = False
        finally:
            self._phases.pop()
            self.emit(
                "span",
                name=name,
                parent=parent,
                sim_start=sim_start,
                sim_seconds=self.clock.seconds() - sim_start,
                wall_seconds=time.perf_counter() - wall_start,
                error=error,
            )

    def close(self) -> None:
        """Write the JSONL trace and the Prometheus snapshot, once."""
        if self._closed:
            return
        self._closed = True
        if self.jsonl is not None:
            with open(self.jsonl, "w", encoding="utf-8") as handle:
                handle.writelines(f"{event.to_json()}\n" for event in self.events)
        if self.prometheus is not None:
            with open(self.prometheus, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(fold_metrics(self.events)))
