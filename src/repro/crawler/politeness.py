"""Crawl pacing ("sleeping functions", paper Section 3.2).

The paper's crawlers deliberately slept between requests so as not to
perturb Facebook or trip its anti-crawling defences.  We reproduce the
behaviour against the simulated clock: a policy decides how long to
sleep before each request and how to back off when the site throttles.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.osn.clock import SimClock

#: Legacy shared-jitter seed; still the default for a bare ``Pacer()``
#: so single-pacer tests stay draw-for-draw identical.
DEFAULT_PACER_SEED = 0xC0FFEE


def pacer_rng(seed: int, account_id: int) -> random.Random:
    """A per-account jitter RNG stream, derived deterministically.

    ``SeedSequence([seed, account_id])`` semantics without the numpy
    dependency: the pair is hashed through SHA-256 so streams for
    neighbouring account ids are statistically independent, and the
    derivation is stable across processes and ``PYTHONHASHSEED``
    (unlike ``hash()``-based schemes).  Multi-account runs stay
    deterministic because each account's draws depend only on
    ``(seed, account_id)``, never on request interleaving.
    """
    material = hashlib.sha256(
        b"repro.pacer:%d:%d" % (seed, account_id)
    ).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


@dataclass(frozen=True)
class PolitenessPolicy:
    """How long to pause between requests.

    ``base_delay_seconds`` plus uniform jitter is slept before every
    GET; ``backoff_factor`` scales the penalty sleep after each
    rate-limit response; ``max_backoff_seconds`` caps it.
    """

    base_delay_seconds: float = 2.0
    jitter_seconds: float = 1.0
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 300.0

    def validate(self) -> None:
        if self.base_delay_seconds < 0 or self.jitter_seconds < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_seconds < 0:
            raise ValueError(
                f"max_backoff_seconds must be non-negative, "
                f"got {self.max_backoff_seconds}"
            )
        if self.max_backoff_seconds < self.base_delay_seconds:
            raise ValueError(
                f"max_backoff_seconds ({self.max_backoff_seconds}) must not be "
                f"smaller than base_delay_seconds ({self.base_delay_seconds}); "
                "the backoff cap would undercut the polite inter-request delay"
            )


class Pacer:
    """Applies a :class:`PolitenessPolicy` against the simulated clock."""

    def __init__(
        self,
        clock: SimClock,
        policy: PolitenessPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.clock = clock
        self.policy = policy or PolitenessPolicy()
        self.policy.validate()
        self.rng = rng or random.Random(DEFAULT_PACER_SEED)
        self._consecutive_throttles = 0
        self.total_slept = 0.0

    def next_polite_delay(self) -> float:
        """Draw the next polite inter-request delay without sleeping it.

        Advances the jitter RNG; the crawl engine uses this to
        compute a wake-up instant instead of advancing the shared clock
        (which would double-count overlapping sessions' waits).
        """
        delay = self.policy.base_delay_seconds
        if self.policy.jitter_seconds > 0:
            delay += self.rng.uniform(0.0, self.policy.jitter_seconds)
        return delay

    def next_throttle_penalty(self, retry_after: float) -> float:
        """Advance the backoff streak and return the penalty, unslept."""
        self._consecutive_throttles += 1
        penalty = retry_after * (
            self.policy.backoff_factor ** (self._consecutive_throttles - 1)
        )
        return min(penalty, self.policy.max_backoff_seconds)

    def before_request(self) -> None:
        """Sleep the polite inter-request delay (simulated time)."""
        self._sleep(self.next_polite_delay())

    def on_throttle(self, retry_after: float) -> float:
        """Back off after a rate-limit response, escalating geometrically.

        Returns the penalty actually slept (simulated seconds), so the
        caller can attribute the backoff cost on its telemetry events.
        """
        penalty = self.next_throttle_penalty(retry_after)
        self._sleep(penalty)
        return penalty

    def on_success(self) -> None:
        self._consecutive_throttles = 0

    def note_slept(self, seconds: float) -> None:
        """Account a sleep performed on the pacer's behalf.

        The concurrent scheduler advances the clock itself (overlapped
        across accounts); this keeps ``total_slept`` meaningful per
        account either way.
        """
        if seconds > 0:
            self.total_slept += seconds

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.clock.sleep(seconds)
            self.note_slept(seconds)
