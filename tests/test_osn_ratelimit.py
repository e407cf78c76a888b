"""Unit tests for the sliding-window rate limiter."""

import pytest

from repro.osn.clock import SimClock
from repro.osn.errors import AccountDisabledError, RateLimitedError
from repro.osn.ratelimit import AccountRateLimiter, ChargeOutcome, RateLimitConfig, RateLimiter


@pytest.fixture()
def limiter():
    clock = SimClock()
    return clock, RateLimiter(
        clock, RateLimitConfig(max_requests=3, window_seconds=10, strikes_to_disable=3)
    )


class TestWindow:
    def test_under_limit_passes(self, limiter):
        _, rl = limiter
        for _ in range(3):
            rl.check(1)

    def test_over_limit_raises(self, limiter):
        _, rl = limiter
        for _ in range(3):
            rl.check(1)
        with pytest.raises(RateLimitedError):
            rl.check(1)

    def test_window_slides(self, limiter):
        clock, rl = limiter
        for _ in range(3):
            rl.check(1)
        clock.sleep(10.1)
        rl.check(1)  # old requests aged out

    def test_retry_after_positive(self, limiter):
        _, rl = limiter
        for _ in range(3):
            rl.check(1)
        with pytest.raises(RateLimitedError) as excinfo:
            rl.check(1)
        assert excinfo.value.retry_after > 0

    def test_accounts_isolated(self, limiter):
        _, rl = limiter
        for _ in range(3):
            rl.check(1)
        rl.check(2)  # other account unaffected

    def test_requests_in_window_counts(self, limiter):
        clock, rl = limiter
        rl.check(1)
        rl.check(1)
        assert rl.requests_in_window(1) == 2
        clock.sleep(11)
        assert rl.requests_in_window(1) == 0


class TestStrikes:
    def test_strikes_accumulate_then_disable(self, limiter):
        _, rl = limiter
        for _ in range(3):
            rl.check(1)
        for _ in range(2):
            with pytest.raises(RateLimitedError):
                rl.check(1)
        assert rl.strikes(1) == 2
        with pytest.raises(AccountDisabledError):
            rl.check(1)
        assert rl.is_disabled(1)

    def test_disabled_account_stays_disabled(self, limiter):
        clock, rl = limiter
        for _ in range(3):
            rl.check(1)
        for _ in range(3):
            with pytest.raises((RateLimitedError, AccountDisabledError)):
                rl.check(1)
        clock.sleep(1000)
        with pytest.raises(AccountDisabledError):
            rl.check(1)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_requests": 0},
            {"window_seconds": 0},
            {"strikes_to_disable": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RateLimitConfig(**kwargs).validate()


class TestChargeOutcome:
    """The per-charge record's contract: the frozen dataclass's repr,
    field equality, hash and immutability."""

    def test_repr(self):
        assert repr(ChargeOutcome("ok")) == (
            "ChargeOutcome(status='ok', retry_after=0.0, strikes=0)"
        )
        assert repr(ChargeOutcome("throttled", 2.5, 1)) == (
            "ChargeOutcome(status='throttled', retry_after=2.5, strikes=1)"
        )

    def test_defaults_and_keywords(self):
        assert ChargeOutcome("ok") == ChargeOutcome(status="ok", retry_after=0.0, strikes=0)
        assert ChargeOutcome("disabled", strikes=3).strikes == 3

    def test_equality_is_by_fields(self):
        assert ChargeOutcome("ok", 0.0, 1) == ChargeOutcome("ok", 0.0, 1)
        assert ChargeOutcome("ok", 0.0, 1) != ChargeOutcome("ok", 0.0, 2)
        assert ChargeOutcome("ok") != ChargeOutcome("throttled")
        assert ChargeOutcome("throttled", 1.0) != ChargeOutcome("throttled", 2.0)

    def test_hash_is_the_hash_of_its_fields(self):
        assert hash(ChargeOutcome("throttled", 2.5, 1)) == hash(("throttled", 2.5, 1))
        assert len({ChargeOutcome("ok"), ChargeOutcome("ok")}) == 1

    def test_is_immutable(self):
        outcome = ChargeOutcome("ok")
        with pytest.raises(AttributeError):
            outcome.status = "disabled"  # type: ignore[misc]
        assert outcome == ChargeOutcome("ok")

    def test_charge_reports_each_status(self):
        clock = SimClock()
        account = AccountRateLimiter(
            clock, RateLimitConfig(max_requests=1, window_seconds=10, strikes_to_disable=2)
        )
        assert account.charge() == ChargeOutcome("ok", 0.0, 0)
        clock.sleep(4.0)
        assert account.charge() == ChargeOutcome("throttled", 6.0, 1)
        assert account.charge() == ChargeOutcome("disabled", 0.0, 2)
        assert account.charge() == ChargeOutcome("already_disabled", 0.0, 2)
