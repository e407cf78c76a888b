"""Tests for the HTML frontend: routing, auth, rate limiting."""

import pytest

from repro.colgen.serve import frontend_for_object_world
from repro.osn.errors import (
    AccountDisabledError,
    AuthenticationError,
    BadRequestError,
    NotFoundError,
    OsnError,
    RateLimitedError,
)
from repro.osn.frontend import HtmlFrontend
from repro.osn.pages import parse_profile_page, parse_school_page, parse_search_page
from repro.osn.ratelimit import RateLimitConfig
from repro.osn.rendercache import RenderCache
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world


@pytest.fixture()
def frontend(school_network):
    net, school, accounts = school_network
    return HtmlFrontend(net), school, accounts


def listing_request(route, school, accounts):
    """The path and parameters of one listing GET: a friend list or a
    Find Friends Portal page."""
    if route == "friends":
        return f"/profile/{accounts['lying_minor'].user_id}/friends", {}
    return "/find-friends/browser", {"school": str(school.school_id)}


class TestRouting:
    def test_profile_route(self, frontend):
        fe, school, accounts = frontend
        page = fe.get(accounts["crawler"].user_id, f"/profile/{accounts['alumnus'].user_id}")
        view = parse_profile_page(page)
        assert view.user_id == accounts["alumnus"].user_id

    def test_find_friends_route(self, frontend):
        fe, school, accounts = frontend
        page = fe.get(
            accounts["crawler"].user_id,
            "/find-friends/browser",
            {"school": str(school.school_id)},
        )
        listing = parse_search_page(page)
        assert listing.total >= 1

    def test_friends_route(self, frontend):
        fe, school, accounts = frontend
        page = fe.get(
            accounts["crawler"].user_id,
            f"/profile/{accounts['lying_minor'].user_id}/friends",
        )
        assert 'class="friend-list"' in page

    def test_school_route(self, frontend):
        fe, school, accounts = frontend
        page = fe.get(accounts["crawler"].user_id, f"/school/{school.school_id}")
        assert parse_school_page(page).name == school.name

    def test_graphsearch_route(self, frontend):
        fe, school, accounts = frontend
        page = fe.get(
            accounts["crawler"].user_id,
            "/graphsearch",
            {"school": str(school.school_id), "current": "1"},
        )
        listing = parse_search_page(page)
        assert accounts["lying_minor"].user_id in {e.user_id for e in listing.entries}

    def test_unknown_route_404(self, frontend):
        fe, _, accounts = frontend
        with pytest.raises(NotFoundError):
            fe.get(accounts["crawler"].user_id, "/does/not/exist")

    def test_missing_parameter_400(self, frontend):
        fe, _, accounts = frontend
        with pytest.raises(BadRequestError):
            fe.get(accounts["crawler"].user_id, "/find-friends/browser")

    def test_non_integer_parameter_400(self, frontend):
        fe, _, accounts = frontend
        with pytest.raises(BadRequestError):
            fe.get(
                accounts["crawler"].user_id,
                "/find-friends/browser",
                {"school": "abc"},
            )

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    @pytest.mark.parametrize("route", ["friends", "search"])
    @pytest.mark.parametrize("offset", ["-3", "-20"])
    def test_negative_offset_400(self, frontend, route, cached, offset):
        """The network slices any offset as a list would, but a page
        could not state a negative one in its header: the site's own
        parsers would refuse it, so the frontend refuses the request."""
        fe, school, accounts = frontend
        if cached:
            fe.set_cache(RenderCache())
        path, params = listing_request(route, school, accounts)
        with pytest.raises(BadRequestError, match="offset"):
            fe.get(accounts["crawler"].user_id, path, {**params, "offset": offset})
        if cached:
            assert len(fe.cache) == 0

    @pytest.mark.parametrize(
        "params",
        [
            {"year_op": "bogus", "year": "2013"},
            {"year_op": "", "year": "2013"},
            {"year_op": "in"},
            {"year_op": "after"},
        ],
        ids=["unknown-op", "empty-op", "in-without-year", "after-without-year"],
    )
    def test_graphsearch_bad_year_query_400(self, frontend, params):
        """The school has members with class years (``lying_minor``,
        2014), which once made an unknown ``year_op`` escape as a bare
        ``ValueError`` rather than an HTTP error."""
        fe, school, accounts = frontend
        with pytest.raises(BadRequestError, match="year"):
            fe.get(
                accounts["crawler"].user_id,
                "/graphsearch",
                {"school": str(school.school_id), **params},
            )

    def test_graphsearch_unknown_school_404(self, frontend):
        fe, _, accounts = frontend
        with pytest.raises(NotFoundError, match="no such school"):
            fe.get(accounts["crawler"].user_id, "/graphsearch", {"school": "999"})

    def test_request_count_increments(self, frontend):
        fe, school, accounts = frontend
        before = fe.request_count
        fe.get(accounts["crawler"].user_id, f"/school/{school.school_id}")
        assert fe.request_count == before + 1


class TestAuthentication:
    def test_unknown_account_rejected(self, frontend):
        fe, school, _ = frontend
        with pytest.raises(AuthenticationError):
            fe.get(9999, f"/school/{school.school_id}")

    def test_disabled_account_rejected(self, frontend):
        fe, school, accounts = frontend
        accounts["crawler"].disabled = True
        try:
            with pytest.raises(AuthenticationError):
                fe.get(accounts["crawler"].user_id, f"/school/{school.school_id}")
        finally:
            accounts["crawler"].disabled = False


class TestRateLimiting:
    def test_burst_gets_throttled(self, school_network):
        net, school, accounts = school_network
        fe = HtmlFrontend(net, RateLimitConfig(max_requests=5, window_seconds=60))
        uid = accounts["crawler"].user_id
        for _ in range(5):
            fe.get(uid, f"/school/{school.school_id}")
        with pytest.raises(RateLimitedError):
            fe.get(uid, f"/school/{school.school_id}")

    def test_sleeping_avoids_throttle(self, school_network):
        net, school, accounts = school_network
        fe = HtmlFrontend(net, RateLimitConfig(max_requests=5, window_seconds=60))
        uid = accounts["crawler"].user_id
        for _ in range(20):
            net.clock.sleep(15.0)
            fe.get(uid, f"/school/{school.school_id}")  # never raises

    def test_repeat_offender_disabled(self, school_network):
        net, school, accounts = school_network
        fe = HtmlFrontend(
            net,
            RateLimitConfig(max_requests=2, window_seconds=60, strikes_to_disable=2),
        )
        uid = accounts["crawler"].user_id
        fe.get(uid, f"/school/{school.school_id}")
        fe.get(uid, f"/school/{school.school_id}")
        with pytest.raises(RateLimitedError):
            fe.get(uid, f"/school/{school.school_id}")
        with pytest.raises(AccountDisabledError):
            fe.get(uid, f"/school/{school.school_id}")
        assert fe.limiter.is_disabled(uid)


@pytest.fixture(scope="module")
def store_pair():
    """A tiny-7 world served by its object frontend and by the columnar
    frontend encoded from it, with one crawl account on both."""
    world = build_world(tiny(seed=7))
    (viewer,) = world.create_attacker_accounts(1)
    return world, HtmlFrontend(world.network), frontend_for_object_world(world), viewer


def outcome(frontend, viewer, path, params):
    """The page, or the error as a comparable (type name, message)."""
    try:
        return frontend.get(viewer, path, params)
    except (OsnError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


class TestRefusalParity:
    """Both stores refuse the same malformed listing and Graph Search
    requests with the same error, through the one frontend."""

    def test_negative_offsets(self, store_pair):
        world, object_fe, columnar_fe, viewer = store_pair
        school = str(world.school().school_id)
        target = max(world.network.users, key=world.network.graph.degree)
        for path, params in (
            (f"/profile/{target}/friends", {"offset": "-3"}),
            ("/find-friends/browser", {"school": school, "offset": "-2"}),
        ):
            answers = [outcome(fe, viewer, path, params) for fe in (object_fe, columnar_fe)]
            assert answers[0] == answers[1]
            assert answers[0][0] == "BadRequestError"

    def test_graph_search_queries(self, store_pair):
        world, object_fe, columnar_fe, viewer = store_pair
        school = str(world.school().school_id)
        for params, error in (
            ({"school": school, "year_op": "bogus", "year": "2013"}, "BadRequestError"),
            ({"school": school, "year_op": "in"}, "BadRequestError"),
            ({"school": "999"}, "NotFoundError"),
            ({"school": "999", "year_op": "in", "year": "2013"}, "NotFoundError"),
        ):
            answers = [
                outcome(fe, viewer, "/graphsearch", params) for fe in (object_fe, columnar_fe)
            ]
            assert answers[0] == answers[1]
            assert answers[0][0] == error
