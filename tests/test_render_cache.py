"""The hot-page render cache: one version's pages and frontend correctness.

The contract under test (see ``HtmlFrontend._cache_key``): cached pages
are byte-identical to uncached renders; the cache holds the pages of one
``network.version``, so any page-visible mutation retires every entry at
once; viewer identity collapses to the visibility *class* where the
render depends only on it; friend lists under the reverse-lookup
countermeasure and all POSTs bypass the cache entirely; and the four
Figure-1 variants run through a cache exactly as they run without one.
"""

from __future__ import annotations

import pytest

from repro.core.api import make_client, run_attack
from repro.core.profiler import ProfilerConfig
from repro.osn.frontend import HtmlFrontend
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile
from repro.osn.rendercache import RenderCache
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world


def cached(network):
    """An :class:`HtmlFrontend` over ``network`` with a fresh cache attached."""
    frontend = HtmlFrontend(network)
    cache = RenderCache()
    frontend.set_cache(cache)
    return frontend, cache


@pytest.fixture()
def cached_frontend(school_network):
    net, school, accounts = school_network
    fe, cache = cached(net)
    return fe, cache, school, accounts


class TestLru:
    def test_miss_then_hit(self):
        cache = RenderCache()
        assert cache.get(("profile", 1, "x"), 0) is None
        cache.put(("profile", 1, "x"), "<html/>")
        assert cache.get(("profile", 1, "x"), 0) == "<html/>"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_version_change_drops_every_page(self):
        cache = RenderCache()
        for key, page in ((("a",), "A"), (("b",), "B")):
            assert cache.get(key, 3) is None
            cache.put(key, page)
        assert cache.get(("a",), 3) == "A"
        assert cache.evictions == 0
        # The first lookup at another version finds nothing, because
        # the held version's pages are all gone, and counts them.
        assert cache.get(("a",), 4) is None
        assert len(cache) == 0
        assert cache.evictions == 2
        cache.put(("a",), "A'")
        assert cache.get(("a",), 4) == "A'"
        assert cache.evictions == 2

    def test_stats_shape(self):
        cache = RenderCache()
        cache.get(("k",), 0)
        cache.put(("k",), "V")
        cache.get(("k",), 0)
        assert cache.stats() == {
            "entries": 1.0,
            "hits": 1.0,
            "misses": 1.0,
            "evictions": 0.0,
        }


class TestFrontendCaching:
    def test_repeat_get_is_served_from_cache(self, cached_frontend):
        fe, cache, _, accounts = cached_frontend
        viewer = accounts["crawler"].user_id
        target = accounts["alumnus"].user_id
        first = fe.get(viewer, f"/profile/{target}")
        second = fe.get(viewer, f"/profile/{target}")
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_pages_byte_identical_across_viewer_classes(
        self, school_network
    ):
        net, school, accounts = school_network
        target = accounts["lying_minor"].user_id
        # stranger, friend, self: three distinct visibility classes.
        viewers = [
            accounts["crawler"].user_id,
            accounts["minor"].user_id,
            target,
        ]
        uncached = HtmlFrontend(net)
        plain = {v: uncached.get(v, f"/profile/{target}") for v in viewers}

        fe, cache = cached(net)
        for viewer in viewers:
            assert fe.get(viewer, f"/profile/{target}") == plain[viewer]
            assert fe.get(viewer, f"/profile/{target}") == plain[viewer]
        # One entry per visibility class, each replayed exactly once.
        assert len(cache) == 3
        assert cache.hits == 3 and cache.misses == 3
        # The classes render differently, so sharing would be a bug.
        assert len(set(plain.values())) == 3

    def test_same_class_viewers_share_an_entry(self, school_network):
        net, school, accounts = school_network
        # A second true stranger (crawler is the first): registration
        # happens before the first request so the version is stable.
        stranger_b = net.register_account(
            profile=Profile(name=Name("Second", "Stranger")),
            registered_birthday=Birthday(1984),
            settings=PrivacySettings.everything_private(),
            is_fake=True,
        ).user_id
        fe, cache = cached(net)
        stranger_a = accounts["crawler"].user_id
        target = accounts["minor"].user_id
        page_a = fe.get(stranger_a, f"/profile/{target}")
        page_b = fe.get(stranger_b, f"/profile/{target}")
        assert page_a == page_b
        assert cache.misses == 1 and cache.hits == 1

    def test_one_relationship_per_profile_and_friends_get(
        self, cached_frontend, monkeypatch
    ):
        """The key's viewer class renders a miss: a miss classifies the
        viewer once, as a hit does, and the page is the uncached one."""
        fe, cache, _, accounts = cached_frontend
        net = fe.network
        viewer = accounts["minor"].user_id
        target = accounts["lying_minor"].user_id
        paths = [f"/profile/{target}", f"/profile/{target}/friends"]
        plain = [HtmlFrontend(net).get(viewer, path) for path in paths]
        calls = []
        classify = net.relationship

        def counted(viewer_id, target_id):
            calls.append((viewer_id, target_id))
            return classify(viewer_id, target_id)

        monkeypatch.setattr(net, "relationship", counted)
        for _ in range(2):  # a miss, then a hit
            assert [fe.get(viewer, path) for path in paths] == plain
        assert calls == [(viewer, target)] * 4
        assert cache.misses == 2 and cache.hits == 2

    def test_mutation_invalidates_via_version(self, cached_frontend):
        fe, cache, school, accounts = cached_frontend
        viewer = accounts["crawler"].user_id
        target = accounts["minor"].user_id
        before = fe.network.version
        fe.get(viewer, f"/profile/{target}")
        # A page-visible write bumps the version: the old entry is dead.
        fe.network.add_friendship(
            accounts["minor"].user_id, accounts["alumnus"].user_id
        )
        assert fe.network.version > before
        fe.get(viewer, f"/profile/{target}")
        assert cache.hits == 0 and cache.misses == 2

    def test_explicit_bump_version_invalidates(self, cached_frontend):
        fe, cache, school, accounts = cached_frontend
        viewer = accounts["crawler"].user_id
        fe.get(viewer, f"/school/{school.school_id}")
        fe.network.bump_version()
        fe.get(viewer, f"/school/{school.school_id}")
        assert cache.hits == 0 and cache.misses == 2

    def test_friends_route_bypassed_under_countermeasure(
        self, cached_frontend
    ):
        fe, cache, school, accounts = cached_frontend
        fe.network.reverse_lookup_enabled = False
        viewer = accounts["minor"].user_id
        target = accounts["lying_minor"].user_id
        first = fe.get(viewer, f"/profile/{target}/friends")
        second = fe.get(viewer, f"/profile/{target}/friends")
        assert first == second
        # Never consulted, never filled: visibility there is decided
        # per (member, viewer) pair, which no class-level key captures.
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_posts_never_cached_and_never_bump_version(self, cached_frontend):
        fe, cache, school, accounts = cached_frontend
        sender = accounts["minor"].user_id
        recipient = accounts["lying_minor"].user_id
        before = fe.network.version
        fe.post(sender, "/messages/send", {"to": str(recipient), "text": "hi"})
        fe.post(sender, "/friend-request", {"to": str(recipient)})
        # Messages and friend requests are not page-visible: no bump,
        # and nothing entered the cache.
        assert fe.network.version == before
        assert len(cache) == 0

    def test_search_pages_cached_per_account(self, cached_frontend):
        fe, cache, school, accounts = cached_frontend
        a = accounts["crawler"].user_id
        b = accounts["alumnus"].user_id
        params = {"school": str(school.school_id)}
        fe.get(a, "/find-friends/browser", params)
        fe.get(b, "/find-friends/browser", params)
        # The portal samples a per-account pool, so the key includes the
        # account: two accounts, two entries, no false sharing.
        assert cache.misses == 2 and cache.hits == 0
        fe.get(a, "/find-friends/browser", params)
        assert cache.hits == 1


#: The four Figure-1 variants of the sweep, in the paper's order.
FIGURE1 = (
    ProfilerConfig.basic,
    ProfilerConfig.basic_filtered,
    ProfilerConfig.enhanced_only,
    ProfilerConfig.enhanced_filtered,
)


def figure1_sweep(cache):
    """The four variants through one client on a fresh tiny world.

    Returns each variant's outputs and the cache's hit count after each
    variant.
    """
    world = build_world(tiny(seed=7))
    world.frontend.set_cache(cache)
    client = make_client(world, accounts=2)
    rows, hits = [], []
    for config in FIGURE1:
        result = run_attack(world, client=client, config=config())
        effort = result.effort
        rows.append(
            {
                "threshold": result.threshold,
                "core_sizes": (
                    result.initial_core_size,
                    result.initial_claimed_size,
                    result.extended_core_size,
                    result.extended_claimed_size,
                ),
                "filtered_out": result.filtered_out,
                "ranking": result.ranking,
                "effort": (
                    effort.seed_requests,
                    effort.profile_requests,
                    effort.friend_list_requests,
                    effort.other_requests,
                ),
                "clock_seconds": world.clock.seconds(),
            }
        )
        hits.append(cache.hits if cache is not None else 0)
    return rows, hits


class TestSweepParity:
    def test_cached_sweep_replays_the_uncached_sweep(self):
        cache = RenderCache()
        cached_rows, hits = figure1_sweep(cache)
        plain_rows, _ = figure1_sweep(None)
        assert cached_rows == plain_rows
        assert all(row["ranking"] for row in plain_rows)
        assert any(row["filtered_out"] for row in plain_rows)
        # Every variant after the first re-crawls pages the cache holds.
        assert all(later > earlier for earlier, later in zip(hits, hits[1:]))
