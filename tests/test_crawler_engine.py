"""The async crawl engine: determinism, pool invariance, client parity.

The engine's promises: same seed + pool + plan reproduce the run
bit-for-bit (visit order, effort, simulated clock); pools of different
sizes crawl the *same* result set at the same per-category effort, only
faster in simulated time; a single-account engine run observes exactly
what the sequential ``CrawlClient`` observes, event for event; and a
ban or an exhausted retry yields a partial result plus a failure
ledger, never an aborted run.  On the paper-tier hs1 crawl, eight
accounts finish in at most a third of one account's simulated time, and
a render cache replays the crawl exactly.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.colgen.serve import frontend_for_object_world, session_accounts
from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient
from repro.crawler.engine import CrawlPlan, CrawlScheduler, TurnDispatcher
from repro.crawler.politeness import PolitenessPolicy
from repro.osn.clock import SimClock
from repro.osn.errors import AccountDisabledError
from repro.osn.frontend import HtmlFrontend
from repro.osn.ratelimit import RateLimitConfig
from repro.osn.rendercache import RenderCache
from repro.telemetry import Telemetry, fold_metrics
from repro.worldgen.presets import hs1, tiny
from repro.worldgen.world import build_world

_SEED = 7
_BUDGET = 12
#: hs1's default seed and a 150-profile budget: a 1,965-page crawl.
_HS1_SEED = 101
_HS1_BUDGET = 150


class BanFrom:
    """Fault injection: a frontend that bans each listed account from its
    *n*-th GET on (``{account_id: n}``); everything else passes through."""

    def __init__(self, frontend, bans):
        self._frontend = frontend
        self._bans = bans
        self._gets = Counter()

    def __getattr__(self, name):
        return getattr(self._frontend, name)

    def get(self, account_id, path, params=None):
        self._gets[account_id] += 1
        if self._gets[account_id] >= self._bans.get(account_id, float("inf")):
            raise AccountDisabledError(f"account {account_id} banned")
        return self._frontend.get(account_id, path, params)


def crawl(pool_size: int, budget: int = _BUDGET, bans=None, frontend=None):
    """A full scheduler run on a private tiny world, plus the pool's uids.

    ``bans`` maps a pool index to the GET from which that account is
    banned; ``frontend`` builds the frontend to crawl from the world.
    """
    world = build_world(tiny(seed=_SEED))
    uids = world.create_attacker_accounts(pool_size)
    served = world.frontend if frontend is None else frontend(world)
    if bans is not None:
        served = BanFrom(served, {uids[k]: n for k, n in bans.items()})
    client = CrawlClient(served, AccountPool.of(uids), seed=_SEED)
    plan = CrawlPlan(school_id=world.school().school_id, max_profiles=budget)
    return CrawlScheduler(client, plan).run(), uids


def engine_run(pool_size: int, budget: int = _BUDGET):
    """A full scheduler run on a private tiny world."""
    return crawl(pool_size, budget)[0]


def hs1_crawl(pool_size: int, cache=None):
    """A scheduler run on a fresh hs1 world, through ``cache`` if given."""
    world = build_world(hs1(seed=_HS1_SEED))
    if cache is not None:
        world.frontend.set_cache(cache)
    uids = world.create_attacker_accounts(pool_size)
    client = CrawlClient(world.frontend, AccountPool.of(uids), seed=_HS1_SEED)
    plan = CrawlPlan(school_id=world.school().school_id, max_profiles=_HS1_BUDGET)
    return CrawlScheduler(client, plan).run()


def work_items(result):
    """Every drain-phase work item the run's plan queued."""
    targets = sorted(result.seeds)[:_BUDGET]
    return {("profile", uid) for uid in targets} | {("friends", uid) for uid in targets}


def completed(result):
    return {("profile", uid) for uid in result.profiles} | {
        ("friends", uid) for uid in result.friend_lists
    }


def categories(result):
    report = result.effort
    return (
        report.seed_requests,
        report.profile_requests,
        report.friend_list_requests,
        report.other_requests,
    )


class TestTurnDispatcher:
    def test_wakes_sleepers_in_simulated_time_order(self):
        clock = SimClock(now_year=2012.25)
        turns = TurnDispatcher(clock)
        order = []

        async def sleeper(name, delay):
            await turns.sleep(delay)
            order.append((name, clock.seconds()))

        async def scenario():
            workers = [sleeper("late", 5.0), sleeper("early", 1.0), sleeper("mid", 3.0)]
            for _ in workers:
                turns.register()
            await asyncio.gather(*(guard(w) for w in workers))

        async def guard(worker):
            try:
                await worker
            finally:
                turns.finish()

        start = clock.seconds()
        asyncio.run(scenario())
        assert [name for name, _ in order] == ["early", "mid", "late"]
        # The shared clock advanced to each wake instant, not the sum.
        assert [t - start for _, t in order] == [1.0, 3.0, 5.0]

    def test_ties_break_by_registration_order(self):
        clock = SimClock(now_year=2012.25)
        turns = TurnDispatcher(clock)
        order = []

        async def sleeper(name):
            await turns.sleep(2.0)
            order.append(name)

        async def guard(worker):
            try:
                await worker
            finally:
                turns.finish()

        async def scenario():
            workers = [sleeper("a"), sleeper("b"), sleeper("c")]
            for _ in workers:
                turns.register()
            await asyncio.gather(*(guard(w) for w in workers))

        asyncio.run(scenario())
        assert order == ["a", "b", "c"]


class TestDeterminism:
    def test_identical_reruns(self):
        first = engine_run(3)
        second = engine_run(3)
        assert first.visit_order == second.visit_order
        assert first.result_signature() == second.result_signature()
        assert first.effort == second.effort
        assert first.sim_seconds == second.sim_seconds
        assert first.pages_by_account == second.pages_by_account


class TestPoolInvariance:
    def test_same_results_faster_clock(self):
        solo = engine_run(1)
        pooled = engine_run(3)
        assert pooled.result_signature() == solo.result_signature()
        assert categories(pooled) == categories(solo)
        assert pooled.pages == solo.pages
        # Concurrency overlaps the politeness waits: strictly faster.
        assert pooled.sim_seconds < solo.sim_seconds
        # Every account actually participated in the drain phase.
        assert len(pooled.pages_by_account) == 3

    def test_zero_waits_still_pass_the_turn(self):
        """A zero polite delay parks the session like any other wait, so
        sessions alternate instead of the first draining the queue."""
        world = build_world(tiny(seed=_SEED))
        uids = world.create_attacker_accounts(2)
        client = CrawlClient(
            world.frontend,
            AccountPool.of(uids),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
            seed=_SEED,
        )
        plan = CrawlPlan(school_id=world.school().school_id, max_profiles=4)
        result = CrawlScheduler(client, plan).run()
        assert result.sim_seconds == 0
        profile_fetchers = [a for kind, a, _ in result.visit_order if kind == "profile"]
        assert profile_fetchers == [uids[0], uids[1], uids[0], uids[1]]

    def test_budget_bounds_the_result_set(self):
        tight = engine_run(2, budget=5)
        assert len(tight.profiles) == 5
        assert len(tight.friend_lists) == 5
        assert sorted(tight.profiles) == sorted(tight.seeds)[:5]


class TestClientParity:
    def test_single_account_engine_matches_sequential_client(self):
        result = engine_run(1, budget=_BUDGET)

        world = build_world(tiny(seed=_SEED))
        uids = world.create_attacker_accounts(1)
        client = CrawlClient(world.frontend, AccountPool.of(uids), seed=_SEED)
        school_id = world.school().school_id
        seeds = client.collect_seeds(school_id)
        targets = sorted(seeds)[:_BUDGET]
        profiles = {uid: client.fetch_profile(uid) for uid in targets}
        friend_lists = {uid: client.fetch_friend_list(uid) for uid in targets}

        assert result.seeds == seeds
        assert result.profiles == profiles
        assert result.friend_lists == friend_lists
        assert categories(result) == (
            client.effort_report().seed_requests,
            client.effort_report().profile_requests,
            client.effort_report().friend_list_requests,
            client.effort_report().other_requests,
        )


    def test_single_account_engine_emits_the_clients_events(self):
        """One transport: the engine's request/throttle/loss events are
        the client's, stamped at the same simulated instants with the
        same fields (all but the measured ``wall_seconds``)."""

        def events(crawl_with):
            world = build_world(tiny(seed=_SEED))
            uids = world.create_attacker_accounts(1)
            telemetry = Telemetry(world.network.clock)
            client = CrawlClient(
                world.frontend, AccountPool.of(uids), seed=_SEED, telemetry=telemetry
            )
            crawl_with(client, world.school().school_id)
            return [
                (e.kind, e.sim_ts, {k: v for k, v in e.fields.items() if k != "wall_seconds"})
                for e in telemetry.events
            ]

        def engine(client, school_id):
            plan = CrawlPlan(school_id=school_id, max_profiles=_BUDGET)
            CrawlScheduler(client, plan).run()

        def sequential(client, school_id):
            targets = sorted(client.collect_seeds(school_id))[:_BUDGET]
            for uid in targets:
                client.fetch_profile(uid)
            for uid in targets:
                client.fetch_friend_list(uid)

        engine_events = events(engine)
        ok = [f for kind, _, f in engine_events if kind == "request" and f["outcome"] == "ok"]
        assert len(ok) == engine_run(1).pages
        assert engine_events == events(sequential)


class TestServeParity:
    @pytest.mark.parametrize("pool_size", [1, 3, 8])
    def test_columnar_frontend_crawls_what_the_object_frontend_does(self, pool_size):
        world = build_world(tiny(seed=_SEED))
        frontend = frontend_for_object_world(world)
        client = CrawlClient(
            frontend, AccountPool.of(session_accounts(frontend, pool_size)), seed=_SEED
        )
        plan = CrawlPlan(school_id=world.school().school_id, max_profiles=_BUDGET)
        columnar = CrawlScheduler(client, plan).run()
        objects = engine_run(pool_size)
        assert columnar.pages == objects.pages > 0
        assert columnar.result_signature() == objects.result_signature()
        assert categories(columnar) == categories(objects)
        assert columnar.sim_seconds == objects.sim_seconds


class TestPaperTierPool:
    """The hs1 crawl: pools of 4 and 8 accounts crawl what one account
    does, eight take at most a third of its simulated time, and a render
    cache replays the crawl exactly."""

    @pytest.fixture(scope="class")
    def uncached(self):
        return {pool_size: hs1_crawl(pool_size) for pool_size in (1, 4, 8)}

    def test_pools_reproduce_the_solo_crawl(self, uncached):
        solo = uncached[1]
        assert solo.pages == 1965
        for pool_size in (4, 8):
            assert uncached[pool_size].result_signature() == solo.result_signature()
            assert categories(uncached[pool_size]) == categories(solo)

    def test_eight_accounts_take_at_most_a_third_of_the_solo_time(self, uncached):
        assert uncached[8].sim_seconds / uncached[1].sim_seconds <= 1 / 3

    def test_render_cache_replays_the_uncached_crawl(self, uncached):
        cache = RenderCache()
        cold = hs1_crawl(8, cache)
        hits_after_fill = cache.hits
        # One seed yields one world, so a fresh build replays the pages
        # the cold crawl left in the cache.
        warm = hs1_crawl(8, cache)
        assert cache.hits > hits_after_fill
        for cached in (cold, warm):
            assert cached.result_signature() == uncached[8].result_signature()
            assert categories(cached) == categories(uncached[8])
            assert cached.sim_seconds == uncached[8].sim_seconds


class TestFailSoft:
    """A ban or an exhausted retry yields a partial result and a ledger."""

    def test_lost_account_hands_its_item_to_the_survivors(self):
        clean = engine_run(3)
        result, uids = crawl(3, bans={1: 5})
        rerun, _ = crawl(3, bans={1: 5})
        assert result.result_signature() == clean.result_signature()
        assert result.pages == clean.pages
        assert categories(result) == categories(clean)
        [(reason, account, item)] = result.failures
        assert (reason, account) == ("account_lost", uids[1])
        # The in-flight item went back to the queue; a survivor took it.
        [served_by] = [a for kind, a, key in result.visit_order if (kind, key) == item]
        assert served_by != uids[1]
        assert result.pages_by_account[uids[1]] == 4
        assert rerun.visit_order == result.visit_order
        assert rerun.failures == result.failures
        assert rerun.sim_seconds == result.sim_seconds

    def test_every_account_lost_gives_a_partial_result(self):
        result, uids = crawl(3, bans={0: 5, 1: 5, 2: 5})
        reasons = [reason for reason, _, _ in result.failures]
        assert reasons[:3] == ["account_lost"] * 3
        assert {account for _, account, _ in result.failures[:3]} == set(uids)
        unserved = [item for reason, account, item in result.failures if reason == "unserved"]
        assert unserved and reasons[3:] == ["unserved"] * len(unserved)
        assert all(account is None for _, account, _ in result.failures[3:])
        # Every queued item was either crawled or left unserved.
        assert completed(result) | set(unserved) == work_items(result)
        assert not completed(result) & set(unserved)
        assert result.pages == 4 * len(uids)

    def test_failed_harvest_keeps_its_seeds_and_skips_the_lost_account(self):
        clean = engine_run(3)
        result, uids = crawl(3, bans={0: 2})
        harvest = ("seeds", clean.visit_order[0][2])
        assert result.failures == [("account_lost", uids[0], harvest)]
        # The one portal page parsed before the ban is kept.
        assert 0 < len(result.seeds) < len(clean.seeds)
        assert set(result.seeds.items()) <= set(clean.seeds.items())
        # Phase B ran only on the accounts still usable.
        assert result.pages_by_account[uids[0]] == 1
        drained = {account for kind, account, _ in result.visit_order if kind != "seeds"}
        assert drained == set(uids[1:])
        assert completed(result) == work_items(result)

    def test_exhausted_retries_are_recorded_and_the_session_moves_on(self):
        def never_refills(world):
            return HtmlFrontend(
                world.network,
                RateLimitConfig(max_requests=10, window_seconds=10**9, strikes_to_disable=10**6),
            )

        result, uids = crawl(3, frontend=never_refills)
        exhausted = [item for reason, _, item in result.failures]
        assert {reason for reason, _, _ in result.failures} == {"retry_exhausted"}
        assert {account for _, account, _ in result.failures} == set(uids)
        assert completed(result) | set(exhausted) == work_items(result)
        assert not completed(result) & set(exhausted)
        assert result.pages == 10 * len(uids)


class TestPlanValidation:
    def test_harvest_account_pinning(self):
        # Portal samples are per account; harvesting with the sorted
        # pool's first account keeps the seed set identical across pool sizes.
        solo = engine_run(1)
        pooled = engine_run(4)
        assert solo.seeds == pooled.seeds


class TestThrottleTelemetry:
    def test_backoff_sleeps_carry_the_clients_label(self, school_network):
        """A throttled engine fetch emits the client's ``throttle`` event
        for each back-off, which the metrics fold records under
        ``pacer_sleep_seconds{reason="backoff"}``, the label the
        sequential client's sleeps get."""
        net, school, accounts = school_network
        telemetry = Telemetry(net.clock)
        # One request per 30 s window: every immediate second GET is
        # throttled once, then passes after the back-off.
        frontend = HtmlFrontend(
            net,
            RateLimitConfig(
                max_requests=1, window_seconds=30, strikes_to_disable=10**6
            ),
        )
        client = CrawlClient(
            frontend,
            AccountPool.of([accounts["crawler"].user_id]),
            PolitenessPolicy(base_delay_seconds=0, jitter_seconds=0),
            telemetry=telemetry,
        )
        result = CrawlScheduler(
            client, CrawlPlan(school_id=school.school_id, max_profiles=2)
        ).run()
        assert result.pages > 1
        sleeps = fold_metrics(telemetry.events)["pacer_sleep_seconds"]
        assert set(sleeps) == {"backoff"}
        assert sleeps["backoff"].count == result.pages - 1
        throttles = [e for e in telemetry.events if e.kind == "throttle"]
        assert len(throttles) == result.pages - 1
