"""Crawl-session reports: the event stream folded into Table-3 shape.

A :class:`CrawlSessionReport` is a pure function of the telemetry event
stream — it can be built live from a session's event list or offline
from a JSONL trace read back (``python -m repro trace``), and both
constructions yield an identical report.  It breaks the session down three ways:

* **per phase** (seeds → core → candidates → scoring → threshold):
  page fetches (``ok`` attempts), raw GET attempts, throttles, backoff
  sleep, and the simulated seconds the phase consumed;
* **per account**: requests carried, throttles absorbed, strikes
  earned (``rate_limited`` attempts), and whether the site disabled
  the account (the paper's "accounts lost" cost);
* **per category**: the Table-3 request decomposition (seeds /
  profiles / friend_lists / other), cross-checkable against
  :class:`~repro.crawler.effort.EffortReport`.

It also counts what failed (``unserved`` items and ``retry_exhausted``
requests, beside the lost accounts), and takes the session's simulated
duration from its top-level spans, which cover the polite waits before
the first request; a trace without spans falls back to its first and
last events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .events import TelemetryEvent
from .runtime import NO_PHASE

_CATEGORY_ORDER = ("seeds", "profiles", "friend_lists", "other")


@dataclass
class PhaseStats:
    """What one pipeline phase cost."""

    pages: int = 0
    attempts: int = 0
    throttles: int = 0
    backoff_seconds: float = 0.0
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class AccountStats:
    """What one crawl account carried (and whether it survived)."""

    requests: int = 0
    throttles: int = 0
    strikes: int = 0
    disabled: bool = False


@dataclass
class CrawlSessionReport:
    """Per-phase / per-account / per-category breakdown of one session."""

    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    accounts: Dict[str, AccountStats] = field(default_factory=dict)
    categories: Dict[str, int] = field(default_factory=dict)
    total_requests: int = 0
    total_attempts: int = 0
    total_throttles: int = 0
    total_backoff_seconds: float = 0.0
    unserved_items: int = 0
    retries_exhausted: int = 0
    sim_duration_seconds: float = 0.0
    event_count: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[TelemetryEvent]) -> "CrawlSessionReport":
        report = cls()
        first_ts: float | None = None
        last_ts: float | None = None
        # Simulated seconds of each top-level span, in trace order.
        top_span_seconds: List[float] = []
        for event in events:
            report.event_count += 1
            first_ts = event.sim_ts if first_ts is None else first_ts
            last_ts = event.sim_ts
            kind = event.kind
            fields = event.fields
            if kind == "request":
                phase = report._phase(event.phase)
                phase.attempts += 1
                report.total_attempts += 1
                outcome = fields.get("outcome")
                if outcome == "ok":
                    phase.pages += 1
                    report._account(fields.get("account")).requests += 1
                    category = str(fields.get("category", "other"))
                    report.categories[category] = report.categories.get(category, 0) + 1
                    report.total_requests += 1
                elif outcome == "rate_limited":
                    report._account(fields.get("account")).strikes += 1
            elif kind == "throttle":
                phase = report._phase(event.phase)
                phase.throttles += 1
                slept = float(fields.get("slept", 0.0))
                phase.backoff_seconds += slept
                report._account(fields.get("account")).throttles += 1
                report.total_throttles += 1
                report.total_backoff_seconds += slept
            elif kind == "account_lost":
                report._account(fields.get("account")).disabled = True
            elif kind == "unserved":
                report.unserved_items += 1
            elif kind == "retry_exhausted":
                report.retries_exhausted += 1
            elif kind == "span":
                phase = report._phase(str(fields.get("name", event.phase)))
                sim_seconds = float(fields.get("sim_seconds", 0.0))
                phase.sim_seconds += sim_seconds
                phase.wall_seconds += float(fields.get("wall_seconds", 0.0))
                if fields.get("parent") == NO_PHASE:
                    top_span_seconds.append(sim_seconds)
        if top_span_seconds:
            report.sim_duration_seconds = sum(top_span_seconds)
        elif first_ts is not None and last_ts is not None:
            report.sim_duration_seconds = last_ts - first_ts
        return report

    def _phase(self, name: str) -> PhaseStats:
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats()
        return stats

    def _account(self, account: object) -> AccountStats:
        key = str(account)
        stats = self.accounts.get(key)
        if stats is None:
            stats = self.accounts[key] = AccountStats()
        return stats

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def accounts_used(self) -> int:
        return sum(1 for a in self.accounts.values() if a.requests > 0)

    @property
    def accounts_lost(self) -> int:
        return sum(1 for a in self.accounts.values() if a.disabled)

    def category_count(self, category: str) -> int:
        return self.categories.get(category, 0)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, title: str = "Crawl-session report") -> str:
        """The ASCII report ``python -m repro trace`` prints."""
        sections: List[str] = [title + "\n" + "=" * len(title)]

        phase_rows = [
            (
                name,
                str(stats.pages),
                str(stats.attempts),
                str(stats.throttles),
                f"{stats.backoff_seconds:.1f}",
                f"{stats.sim_seconds:.1f}",
            )
            for name, stats in self.phases.items()
        ]
        sections.append(
            _table(
                ("phase", "pages", "GETs", "throttles", "backoff s", "sim s"),
                phase_rows,
            )
        )

        account_rows = [
            (
                account,
                str(stats.requests),
                str(stats.throttles),
                str(stats.strikes),
                "lost" if stats.disabled else "ok",
            )
            for account, stats in sorted(
                self.accounts.items(), key=lambda item: _account_sort_key(item[0])
            )
        ]
        sections.append(
            _table(
                ("account", "requests", "throttles", "strikes", "status"),
                account_rows,
            )
        )

        ordered = [c for c in _CATEGORY_ORDER if c in self.categories]
        ordered += sorted(set(self.categories) - set(_CATEGORY_ORDER))
        sections.append(
            _table(
                ("category", "requests"),
                [(c, str(self.categories[c])) for c in ordered],
            )
        )

        sections.append(
            "\n".join(
                [
                    f"total requests (effort): {self.total_requests}",
                    f"raw GET attempts:        {self.total_attempts}",
                    f"throttles:               {self.total_throttles}",
                    f"backoff slept:           {self.total_backoff_seconds:.1f} s",
                    f"accounts used/lost:      {self.accounts_used}/{self.accounts_lost}",
                    f"unserved items:          {self.unserved_items}",
                    f"retries exhausted:       {self.retries_exhausted}",
                    f"sim crawl duration:      {self.sim_duration_seconds:.1f} s",
                    f"events:                  {self.event_count}",
                ]
            )
        )
        return "\n\n".join(sections) + "\n"


def _account_sort_key(account: str) -> Tuple[int, object]:
    try:
        return (0, int(account))
    except ValueError:
        return (1, account)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal fixed-width table (first column left-, rest right-aligned)."""
    if not rows:
        rows = [tuple("-" for _ in header)]
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = [str(cells[0]).ljust(widths[0])]
        parts += [str(cell).rjust(width) for cell, width in zip(cells[1:], widths[1:])]
        return "  ".join(parts).rstrip()

    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), rule, *(fmt(row) for row in rows)])
