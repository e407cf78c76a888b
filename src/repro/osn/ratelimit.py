"""Anti-crawling defence: per-account request rate limiting.

Real OSNs temporarily or permanently disable accounts that fetch too
many pages too quickly (paper, Section 4.5); the attacker must therefore
pace requests and spread them over multiple accounts.  We model this
with a sliding-window limiter driven by the simulated clock:

* more than ``max_requests`` GETs inside ``window_seconds`` earns a
  *strike* and a :class:`~repro.osn.errors.RateLimitedError`;
* ``strikes_to_disable`` strikes permanently disables the account
  (:class:`~repro.osn.errors.AccountDisabledError` thereafter).

A polite crawler that sleeps between requests (simulated time) never
trips it; an aggressive one loses its accounts, exactly the trade-off
the paper's "measurement effort" discussion is about.

Concurrency shape: all sliding-window state lives on
:class:`AccountRateLimiter`, one instance per account, handed out by
``RateLimiter._limiter_for`` — so concurrent sessions on different
accounts never touch each other's windows, and the only cross-account
write is the registry insert (annotated for SHARE001).

The limiter answers an over-budget request with an exception and
records nothing else: the crawl client sees every throttle and ban as
the outcome of its own attempt, and telemetry counts strikes from those
outcomes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, NamedTuple

from .clock import SimClock
from .errors import AccountDisabledError, RateLimitedError


@dataclass(frozen=True)
class RateLimitConfig:
    """Tuning knobs for the sliding-window limiter."""

    max_requests: int = 30
    window_seconds: float = 60.0
    strikes_to_disable: int = 3

    def validate(self) -> None:
        if self.max_requests <= 0:
            raise ValueError("max_requests must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.strikes_to_disable <= 0:
            raise ValueError("strikes_to_disable must be positive")


class ChargeOutcome(NamedTuple):
    """Result of charging one request against one account's window.

    A named tuple: immutable and cheap to build, since every GET and
    POST builds one, with the ``repr`` and hash of its fields.
    """

    status: str  # "ok" | "throttled" | "disabled" | "already_disabled"
    retry_after: float = 0.0
    strikes: int = 0


class AccountRateLimiter:
    """Sliding-window state for *one* account.

    Everything mutable in the rate-limit path lives here, keyed per
    account by :class:`RateLimiter`, so sessions crawling with
    different accounts share no window/strike state.
    """

    def __init__(self, clock: SimClock, config: RateLimitConfig) -> None:
        self.clock = clock
        self.config = config
        self.timestamps: Deque[float] = deque()
        self.strikes = 0
        self.disabled = False
        self.served = 0

    def charge(self) -> ChargeOutcome:
        """Charge one request against this account's window."""
        if self.disabled:
            return ChargeOutcome("already_disabled", 0.0, self.strikes)
        now = self.clock.seconds()
        horizon = now - self.config.window_seconds
        stamps = self.timestamps
        while stamps and stamps[0] <= horizon:
            stamps.popleft()
        if len(stamps) >= self.config.max_requests:
            self.strikes += 1
            if self.strikes >= self.config.strikes_to_disable:
                self.disabled = True
                return ChargeOutcome("disabled", 0.0, self.strikes)
            retry_after = max((stamps[0] + self.config.window_seconds) - now, 0.1)
            return ChargeOutcome("throttled", retry_after, self.strikes)
        stamps.append(now)
        self.served += 1
        return ChargeOutcome("ok", 0.0, self.strikes)

    def requests_in_window(self) -> int:
        horizon = self.clock.seconds() - self.config.window_seconds
        return sum(1 for t in self.timestamps if t > horizon)


class RateLimiter:
    """Per-account sliding-window limiters over simulated time."""

    def __init__(
        self,
        clock: SimClock,
        config: RateLimitConfig | None = None,
    ) -> None:
        self.clock = clock
        self.config = config or RateLimitConfig()
        self.config.validate()
        self._accounts: Dict[int, AccountRateLimiter] = {}

    def _limiter_for(self, account_id: int) -> AccountRateLimiter:
        """The per-account limiter, created on first sight."""
        limiter = self._accounts.get(account_id)
        if limiter is None:
            limiter = AccountRateLimiter(self.clock, self.config)
            self._accounts[account_id] = limiter  # repro-lint: shared(RateLimiter) -- first-sight registry insert; per-account windows live on the inserted object
        return limiter

    def check(self, account_id: int) -> None:
        """Record one request; raise if the account is over its budget."""
        outcome = self._limiter_for(account_id).charge()
        if outcome.status == "ok":
            return
        if outcome.status == "already_disabled":
            raise AccountDisabledError(
                f"account {account_id} disabled for aggressive crawling"
            )
        if outcome.status == "disabled":
            raise AccountDisabledError(
                f"account {account_id} disabled after {outcome.strikes} strikes"
            )
        raise RateLimitedError(
            f"account {account_id} over rate limit", retry_after=outcome.retry_after
        )

    @property
    def total_served(self) -> int:
        """Requests that passed the limiter, across every account."""
        return sum(limiter.served for limiter in self._accounts.values())

    def is_disabled(self, account_id: int) -> bool:
        limiter = self._accounts.get(account_id)
        return limiter is not None and limiter.disabled

    def strikes(self, account_id: int) -> int:
        limiter = self._accounts.get(account_id)
        return 0 if limiter is None else limiter.strikes

    def requests_in_window(self, account_id: int) -> int:
        limiter = self._accounts.get(account_id)
        return 0 if limiter is None else limiter.requests_in_window()
