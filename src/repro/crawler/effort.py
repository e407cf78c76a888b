"""Measurement-effort accounting (paper, Section 4.5 and Table 3).

Anti-crawling defences make the number of HTTP GETs the attack's real
cost.  The paper decomposes effort as ``A·R + |S| + |C|·f/p``: requests
to gather seeds, requests for profile pages, and requests for paginated
friend lists.  :class:`EffortCounter` measures the same categories from
the live request stream, so Table 3 can be regenerated from observed
counts, and :func:`predicted_requests` implements the analytic formula
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.telemetry.metrics import MetricsRegistry


#: Request categories matching Table 3's columns.
CATEGORY_SEEDS = "seeds"
CATEGORY_PROFILES = "profiles"
CATEGORY_FRIEND_LISTS = "friend_lists"
CATEGORY_OTHER = "other"

_CATEGORIES = (CATEGORY_SEEDS, CATEGORY_PROFILES, CATEGORY_FRIEND_LISTS, CATEGORY_OTHER)


@dataclass
class EffortReport:
    """A frozen summary of crawl effort, one row of Table 3."""

    accounts_used: int
    seed_requests: int
    profile_requests: int
    friend_list_requests: int
    other_requests: int = 0

    @property
    def total(self) -> int:
        return (
            self.seed_requests
            + self.profile_requests
            + self.friend_list_requests
            + self.other_requests
        )

    def __add__(self, other: "EffortReport") -> "EffortReport":
        return EffortReport(
            accounts_used=max(self.accounts_used, other.accounts_used),
            seed_requests=self.seed_requests + other.seed_requests,
            profile_requests=self.profile_requests + other.profile_requests,
            friend_list_requests=self.friend_list_requests + other.friend_list_requests,
            other_requests=self.other_requests + other.other_requests,
        )


class EffortCounter:
    """Counts HTTP GETs by category as the crawl proceeds.

    Implemented on the telemetry metrics model: the per-category and
    per-account tallies live in label-keyed counter families, so a
    crawl session that shares its :class:`MetricsRegistry` (via
    ``EffortCounter(registry=telemetry.registry)``) exposes Table 3
    through the same registry the rest of the pipeline reports into —
    one source of truth for the effort numbers.  Without a registry the
    counter owns a private one and behaves exactly as before.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            "crawl_requests_total",
            "Successful crawl GETs by Table-3 category",
            labelnames=("category",),
        )
        self._account_requests = self.registry.counter(
            "crawl_account_requests_total",
            "Successful crawl GETs per crawl account",
            labelnames=("account",),
        )

    def record(self, category: str, account_id: int) -> None:
        if category not in _CATEGORIES:
            category = CATEGORY_OTHER
        self._requests.labels(category=category).inc()
        self._account_requests.labels(account=str(account_id)).inc()

    def count(self, category: str) -> int:
        return int(self._requests.labels(category=category).value)

    @property
    def total(self) -> int:
        return int(sum(self.count(c) for c in _CATEGORIES))

    def by_account(self) -> Dict[int, int]:
        """Successful GETs per crawl account id."""
        return {
            int(key[0][1]): int(series.value)
            for key, series in self._account_requests.series().items()
        }

    def report(self) -> EffortReport:
        return EffortReport(
            accounts_used=self._account_requests.series_count(),
            seed_requests=self.count(CATEGORY_SEEDS),
            profile_requests=self.count(CATEGORY_PROFILES),
            friend_list_requests=self.count(CATEGORY_FRIEND_LISTS),
            other_requests=self.count(CATEGORY_OTHER),
        )


def predicted_requests(
    accounts: int,
    requests_per_account_for_seeds: float,
    seed_count: int,
    core_size: int,
    mean_friends: float,
    page_size: int = 20,
) -> float:
    """The paper's analytic effort estimate ``A·R + |S| + |C|·f/p``."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    return (
        accounts * requests_per_account_for_seeds
        + seed_count
        + core_size * (mean_friends / page_size)
    )
