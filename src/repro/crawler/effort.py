"""Measurement-effort accounting (paper, Section 4.5 and Table 3).

Anti-crawling defences make the number of HTTP GETs the attack's real
cost.  The paper decomposes effort as ``A·R + |S| + |C|·f/p``: requests
to gather seeds, requests for profile pages, and requests for paginated
friend lists.  :class:`EffortCounter` measures the same categories from
the live request stream, so Table 3 can be regenerated from observed
counts, and :func:`predicted_requests` implements the analytic formula
for cross-checking.

The counter is plain bookkeeping that runs whether or not a session is
instrumented; telemetry derives the same counts from the client's
``request`` events instead of sharing this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


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
    """Counts successful HTTP GETs by category and by crawl account."""

    def __init__(self) -> None:
        self._by_category: Dict[str, int] = dict.fromkeys(_CATEGORIES, 0)
        self._by_account: Dict[int, int] = {}

    def record(self, category: str, account_id: int) -> None:
        if category not in _CATEGORIES:
            category = CATEGORY_OTHER
        self._by_category[category] += 1  # repro-lint: shared(EffortCounter) -- Table 3 is one tally across sessions; run_sessions resumes one session at a time
        self._by_account[account_id] = self._by_account.get(account_id, 0) + 1  # repro-lint: shared(EffortCounter) -- Table 3 is one tally across sessions; run_sessions resumes one session at a time

    def count(self, category: str) -> int:
        return self._by_category.get(category, 0)

    @property
    def total(self) -> int:
        return sum(self._by_category.values())

    def by_account(self) -> Dict[int, int]:
        """Successful GETs per crawl account id."""
        return dict(self._by_account)

    def report(self) -> EffortReport:
        return EffortReport(
            accounts_used=len(self._by_account),
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
