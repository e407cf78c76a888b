"""Tests for the typed crawl client over the HTML frontend."""

import pytest

from repro.crawler.accounts import AccountPool, NoUsableAccountsError
from repro.crawler.client import CrawlClient
from repro.crawler.effort import CATEGORY_PROFILES, CATEGORY_SEEDS
from repro.crawler.politeness import PolitenessPolicy
from repro.osn.errors import AccountDisabledError
from repro.osn.frontend import HtmlFrontend
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile
from repro.osn.ratelimit import RateLimitConfig
from repro.telemetry import CrawlSessionReport, Telemetry, fold_metrics


@pytest.fixture()
def client(school_network):
    net, school, accounts = school_network
    frontend = HtmlFrontend(net)
    pool = AccountPool.of([accounts["crawler"].user_id])
    return (
        CrawlClient(frontend, pool, PolitenessPolicy(base_delay_seconds=0.1, jitter_seconds=0)),
        school,
        accounts,
    )


class TestSeeds:
    def test_collects_searchable_adults(self, client):
        crawl, school, accounts = client
        seeds = crawl.collect_seeds(school.school_id)
        assert accounts["lying_minor"].user_id in seeds
        assert accounts["alumnus"].user_id in seeds
        assert accounts["minor"].user_id not in seeds

    def test_seed_names_are_display_names(self, client):
        crawl, school, accounts = client
        seeds = crawl.collect_seeds(school.school_id)
        assert seeds[accounts["alumnus"].user_id] == "Al Umnus"

    def test_effort_categorised_as_seeds(self, client):
        crawl, school, _ = client
        crawl.collect_seeds(school.school_id)
        assert crawl.counter.count(CATEGORY_SEEDS) >= 1


class TestProfiles:
    def test_fetch_profile_parses_view(self, client):
        crawl, _, accounts = client
        view = crawl.fetch_profile(accounts["lying_minor"].user_id)
        assert view.high_schools[0].graduation_year == 2014

    def test_fetch_missing_profile_returns_none(self, client):
        crawl, _, _ = client
        assert crawl.fetch_profile(987654) is None

    def test_profile_effort_category(self, client):
        crawl, _, accounts = client
        crawl.fetch_profile(accounts["minor"].user_id)
        assert crawl.counter.count(CATEGORY_PROFILES) == 1


class TestFriendLists:
    def test_fetch_visible_list(self, client):
        crawl, _, accounts = client
        entries = crawl.fetch_friend_list(accounts["lying_minor"].user_id)
        assert {e.user_id for e in entries} == {
            accounts["minor"].user_id,
            accounts["alumnus"].user_id,
        }

    def test_hidden_list_returns_none(self, client):
        crawl, _, accounts = client
        assert crawl.fetch_friend_list(accounts["minor"].user_id) is None

    def test_pagination_collects_all(self, school_network):
        net, school, accounts = school_network
        owner = net.register_account(
            profile=Profile(name=Name("Pop", "Ular")),
            registered_birthday=Birthday(1980),
            settings=PrivacySettings.facebook_adult_default_2012(),
        )
        for i in range(53):
            friend = net.register_account(
                profile=Profile(name=Name("F", str(i))),
                registered_birthday=Birthday(1980),
            )
            net.add_friendship(owner.user_id, friend.user_id)
        crawl = CrawlClient(
            HtmlFrontend(net),
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        entries = crawl.fetch_friend_list(owner.user_id)
        assert len(entries) == 53
        # 53 friends at p=20 per page -> 3 requests
        assert crawl.counter.count("friend_lists") == 3


class TestSchoolLookup:
    def test_fetch_school(self, client):
        crawl, school, _ = client
        fetched = crawl.fetch_school(school.school_id)
        assert fetched.name == school.name
        assert fetched.enrollment_hint == 360


class TestResilience:
    def test_throttled_crawl_backs_off_and_completes(self, school_network):
        net, school, accounts = school_network
        frontend = HtmlFrontend(
            net, RateLimitConfig(max_requests=3, window_seconds=30, strikes_to_disable=100)
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            # Aggressive pacing: will hit the limiter, then back off.
            PolitenessPolicy(base_delay_seconds=0.01, jitter_seconds=0),
        )
        for _ in range(10):
            assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None

    def test_disabled_account_rotated_out(self, school_network):
        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        frontend = HtmlFrontend(
            net, RateLimitConfig(max_requests=2, window_seconds=3600, strikes_to_disable=1)
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0.0, jitter_seconds=0),
        )
        first, spare = accounts["crawler"].user_id, extra.user_id
        target = accounts["alumnus"].user_id
        # Fetches 1-4 alternate over the pool and spend both budgets.
        for _ in range(4):
            assert crawl.fetch_profile(target) is not None
        assert crawl.pool.usable == [first, spare]
        # The 5th disables the first account, rotates to the spare and
        # loses it too: with no account left, the loss is raised.
        with pytest.raises(AccountDisabledError):
            crawl.fetch_profile(target)
        assert crawl.pool.is_disabled(first)
        assert crawl.pool.is_disabled(spare)
        with pytest.raises(NoUsableAccountsError):
            crawl.fetch_profile(target)
        report = crawl.effort_report()
        assert report.profile_requests == 4
        assert report.accounts_used == 2


class TestRequestEvents:
    def test_site_answers_are_attempts_and_faults_are_not(self, school_network, monkeypatch):
        """A 404 is one ``not_found`` attempt; an exception that is not an
        ``OsnError`` is a fault and propagates with no ``request`` event."""
        net, _, accounts = school_network
        frontend = HtmlFrontend(net)
        telemetry = Telemetry(net.clock)
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0.5, jitter_seconds=0),
            telemetry=telemetry,
        )
        assert crawl.fetch_profile(999_999) is None
        (event,) = telemetry.events
        assert event.kind == "request"
        assert event.fields["outcome"] == "not_found"
        assert event.fields["path"] == "/profile/999999"
        assert event.fields["category"] == CATEGORY_PROFILES
        assert event.fields["delay"] == 0.5
        assert event.fields["wall_seconds"] >= 0

        def broken(*args):
            raise RuntimeError("renderer bug")

        monkeypatch.setattr(frontend, "get", broken)
        with pytest.raises(RuntimeError):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        assert len(telemetry.events) == 1


class TestThrottleExhaustion:
    """Edge paths of ``_get``'s retry loop (paper: anti-crawling defences)."""

    def _stuck_client(self, school_network, telemetry=None):
        """A client whose single account is throttled on every request.

        One request fits the window and the window never expires, so
        every retry earns another RateLimitedError without ever
        reaching the disable threshold.
        """
        net, school, accounts = school_network
        frontend = HtmlFrontend(
            net,
            RateLimitConfig(
                max_requests=1, window_seconds=10**9, strikes_to_disable=10**6
            ),
        )
        crawl = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
            telemetry=telemetry,
        )
        return crawl, accounts

    def test_retry_exhaustion_reraises_rate_limited(self, school_network):
        from repro.osn.errors import RateLimitedError

        crawl, accounts = self._stuck_client(school_network)
        assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None
        with pytest.raises(RateLimitedError):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        # Only the first, successful GET was charged to the effort count.
        assert crawl.counter.total == 1

    def test_exhaustion_emits_throttles_then_gives_up(self, school_network):
        from repro.crawler.client import _MAX_THROTTLE_RETRIES
        from repro.osn.errors import RateLimitedError

        net, _, _ = school_network
        telemetry = Telemetry(net.clock)
        crawl, accounts = self._stuck_client(school_network, telemetry=telemetry)
        crawl.fetch_profile(accounts["alumnus"].user_id)
        with pytest.raises(RateLimitedError):
            crawl.fetch_profile(accounts["alumnus"].user_id)
        throttles = [e for e in telemetry.events if e.kind == "throttle"]
        exhausted = [e for e in telemetry.events if e.kind == "retry_exhausted"]
        assert len(throttles) == _MAX_THROTTLE_RETRIES
        assert len(exhausted) == 1
        assert exhausted[0].fields["throttles"] == _MAX_THROTTLE_RETRIES + 1

    def test_session_report_pins_throttles_and_strikes(self, school_network):
        """The client's attempts carry what the limiter used to report:
        one success, then nine strikes and eight 300 s back-offs."""
        from repro.osn.errors import RateLimitedError

        net, _, _ = school_network
        telemetry = Telemetry(net.clock)
        crawl, accounts = self._stuck_client(school_network, telemetry=telemetry)
        crawl.fetch_profile(accounts["alumnus"].user_id)
        with pytest.raises(RateLimitedError):
            crawl.fetch_profile(accounts["alumnus"].user_id)

        report = CrawlSessionReport.from_events(telemetry.events)
        account = report.accounts[str(accounts["crawler"].user_id)]
        assert (account.requests, account.throttles, account.strikes) == (1, 8, 9)
        assert not account.disabled
        phase = report.phases["-"]
        assert (phase.pages, phase.attempts, phase.throttles) == (1, 10, 8)
        assert phase.backoff_seconds == pytest.approx(2400.0)

        families = fold_metrics(telemetry.events)
        crawler = str(accounts["crawler"].user_id)
        assert families["ratelimit_strikes_total"] == {crawler: 9}
        assert families["ratelimit_accounts_disabled_total"] == {}
        assert families["frontend_requests_total"] == {"ok": 1, "rate_limited": 9}
        (backoff,) = families["pacer_sleep_seconds"].values()
        assert (backoff.count, backoff.sum) == (8, pytest.approx(2400.0))


class TestPinnedAccountDisabled:
    def _strict_frontend(self, net):
        """Second request from any account permanently disables it."""
        return HtmlFrontend(
            net,
            RateLimitConfig(max_requests=1, window_seconds=10**9, strikes_to_disable=1),
        )

    def test_pinned_account_disabled_raises_not_rotates(self, school_network):
        from repro.osn.errors import AccountDisabledError

        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        pinned = accounts["crawler"].user_id
        crawl = CrawlClient(
            self._strict_frontend(net),
            AccountPool.of([pinned, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        crawl._get(f"/profile/{accounts['alumnus'].user_id}", None, "profiles",
                   account_id=pinned)
        with pytest.raises(AccountDisabledError):
            crawl._get(f"/profile/{accounts['alumnus'].user_id}", None, "profiles",
                       account_id=pinned)
        # The pinned account is retired, and the pool's spare was never touched.
        assert crawl.pool.is_disabled(pinned)
        assert not crawl.pool.is_disabled(extra.user_id)
        assert crawl.effort_report().accounts_used == 1

    def test_unpinned_disable_rotates_to_spare(self, school_network):
        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        burned = accounts["crawler"].user_id
        frontend = self._strict_frontend(net)
        crawl = CrawlClient(
            frontend,
            AccountPool.of([burned, extra.user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
        )
        # Exhaust the first account's budget behind the client's back, so
        # its next rotation turn disables it mid-crawl.
        frontend.get(burned, f"/profile/{accounts['alumnus'].user_id}")
        assert crawl.fetch_profile(accounts["alumnus"].user_id) is not None
        assert crawl.pool.is_disabled(burned)
        assert not crawl.pool.is_disabled(extra.user_id)
        # The spare account absorbed the request after the rotation.
        assert crawl.effort_report().accounts_used == 1

    def test_session_report_pins_the_lost_accounts(self, school_network):
        """Both accounts serve one page, then each is disabled by its
        first over-limit attempt: the report marks both lost, and the
        metrics count each disabling attempt as a strike."""
        net, school, accounts = school_network
        extra = net.register_account(
            profile=Profile(name=Name("Crawl", "Two")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        )
        first, spare = accounts["crawler"].user_id, extra.user_id
        telemetry = Telemetry(net.clock)
        crawl = CrawlClient(
            self._strict_frontend(net),
            AccountPool.of([first, spare]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
            telemetry=telemetry,
        )
        target = accounts["alumnus"].user_id
        crawl.fetch_profile(target)
        crawl.fetch_profile(target)
        with pytest.raises(AccountDisabledError):
            crawl.fetch_profile(target)

        report = CrawlSessionReport.from_events(telemetry.events)
        for uid in (first, spare):
            account = report.accounts[str(uid)]
            assert (account.requests, account.throttles, account.strikes) == (1, 0, 0)
            assert account.disabled
        phase = report.phases["-"]
        assert (phase.pages, phase.attempts, phase.throttles) == (2, 4, 0)

        families = fold_metrics(telemetry.events)
        assert families["ratelimit_strikes_total"] == {str(first): 1, str(spare): 1}
        assert families["ratelimit_accounts_disabled_total"] == {None: 2}
        assert families["frontend_requests_total"] == {"ok": 2, "account_disabled": 2}
