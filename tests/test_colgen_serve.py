"""Columnar serving vs the object network: byte-for-byte page identity.

An encoder-built :class:`ColumnarWorld` served through
:class:`ColumnarNetwork` must be indistinguishable *at the HTML level*
from the object world it encodes — same bytes on every GET route for
every viewer class, same errors with the same messages, same POST
behaviour.  The crawl engine and the benches lean on this: a columnar
crawl's parsed result set must equal the object crawl's exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.colgen import encode_world, generate, unpack_privacy
from repro.colgen.serve import (
    ColumnarNetwork,
    columnar_frontend,
    frontend_for_object_world,
)
from repro.osn.clock import SimClock
from repro.osn.errors import ForbiddenError, NotFoundError, OsnError
from repro.osn.frontend import HtmlFrontend
from repro.osn.pages import (
    parse_friends_page,
    parse_profile_page,
    parse_search_page,
)
from repro.osn.policy import policy_by_name
from repro.osn.ratelimit import RateLimitConfig
from repro.worldgen.presets import tiny
from repro.worldgen.world import build_world


@pytest.fixture(scope="module")
def serve_pair():
    """(world, object frontend, columnar frontend, viewer uids).

    The attacker accounts are registered *before* encoding, so both
    sides serve an identical account universe; neither frontend has a
    rate limiter, keeping the walk politeness-free.
    """
    world = build_world(tiny(seed=13))
    viewers = world.create_attacker_accounts(2)
    # Effectively unlimited: the walk makes thousands of unpaced GETs,
    # and a tripped limiter would make the comparison vacuous (both
    # sides returning AccountDisabledError still compares equal).
    no_limit = RateLimitConfig(max_requests=10**9, window_seconds=1.0)
    object_fe = HtmlFrontend(world.network, no_limit)
    config = world.config
    columnar_fe = columnar_frontend(
        encode_world(world),
        policy=policy_by_name(config.site),
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
        rate_limit=no_limit,
    )
    return world, object_fe, columnar_fe, viewers


def outcome(frontend, viewer, path, params=None):
    """The page, or the error as a comparable (type name, message)."""
    try:
        return frontend.get(viewer, path, params)
    except (OsnError, ValueError) as exc:
        # ValueError: bad structured-search operators raise it verbatim
        # on both serving paths (it is not an HTTP-surface error).
        return (type(exc).__name__, str(exc))


def assert_identical(pair, viewer, path, params=None):
    _, object_fe, columnar_fe, _ = pair
    object_out = outcome(object_fe, viewer, path, params)
    columnar_out = outcome(columnar_fe, viewer, path, params)
    assert object_out == columnar_out, (path, params)
    return object_out


class TestByteIdentity:
    def test_school_pages(self, serve_pair):
        world, _, columnar_fe, viewers = serve_pair
        for school_id in sorted(world.network.schools):
            assert_identical(
                serve_pair, viewers[0], f"/school/{school_id}"
            )
        assert_identical(serve_pair, viewers[0], "/school/999999")

    def test_search_pages_per_account(self, serve_pair):
        world, _, _, viewers = serve_pair
        school_id = world.school().school_id
        pages_by_viewer = {}
        for viewer in viewers:
            offset, collected = 0, []
            while True:
                page = assert_identical(
                    serve_pair,
                    viewer,
                    "/find-friends/browser",
                    {"school": str(school_id), "offset": str(offset)},
                )
                listing = parse_search_page(page)
                collected.extend(listing.entries)
                if listing.next_offset is None:
                    break
                offset = listing.next_offset
            pages_by_viewer[viewer] = collected
        # The portal samples a per-account pool: both sides must agree
        # on each account's sample, not just on some shared answer.
        assert len(pages_by_viewer[viewers[0]]) > 0

    def test_every_profile_and_friend_list(self, serve_pair):
        world, _, _, viewers = serve_pair
        viewer = viewers[0]
        served = 0
        for uid in sorted(world.network.users):
            if isinstance(
                assert_identical(serve_pair, viewer, f"/profile/{uid}"), str
            ):
                served += 1
            assert_identical(
                serve_pair, viewer, f"/profile/{uid}/friends", {"offset": "0"}
            )
        assert_identical(serve_pair, viewer, "/profile/999999999")
        # Guard against a vacuous walk where both sides only error.
        assert served > len(world.network.users) // 2

    def test_friend_viewer_class(self, serve_pair):
        """Friend / friend-of-friend renders agree, not just strangers."""
        world, _, _, _ = serve_pair
        some_member = None
        for uid in sorted(world.network.users):
            if world.network.users[uid].friend_ids:
                some_member = uid
                break
        assert some_member is not None
        friend = sorted(world.network.users[some_member].friend_ids)[0]
        assert_identical(serve_pair, friend, f"/profile/{some_member}")
        assert_identical(
            serve_pair, friend, f"/profile/{some_member}/friends"
        )

    def test_graph_search_queries(self, serve_pair):
        world, _, _, viewers = serve_pair
        school_id = world.school().school_id
        year = world.config.observation_year
        queries = [
            {"school": str(school_id), "current": "1"},
            {"school": str(school_id), "year_op": "in", "year": str(int(year) + 1)},
            {"school": str(school_id), "year_op": "after", "year": str(int(year))},
            {"school": str(school_id), "year_op": "before", "year": str(int(year))},
            {"school": str(school_id), "city": world.school().city},
            {"school": str(school_id), "year_op": "bogus", "year": "2000"},
        ]
        for params in queries:
            assert_identical(serve_pair, viewers[0], "/graphsearch", params)


@pytest.fixture(scope="module")
def countermeasure_pair():
    """A serve pair with the Section-8 countermeasure on
    (``reverse_lookup_enabled=False``), built apart from ``serve_pair``
    so that pair keeps reverse lookup enabled."""
    world = build_world(tiny(seed=13))
    viewers = world.create_attacker_accounts(1)
    world.network.reverse_lookup_enabled = False
    no_limit = RateLimitConfig(max_requests=10**9, window_seconds=1.0)
    config = world.config
    columnar_fe = columnar_frontend(
        encode_world(world),
        policy=policy_by_name(config.site),
        reverse_lookup_enabled=False,
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
        rate_limit=no_limit,
    )
    return world, HtmlFrontend(world.network, no_limit), columnar_fe, viewers


class TestCountermeasureParity:
    def test_every_friend_list_page(self, countermeasure_pair):
        """Every page of every friend list, for a stranger and a friend
        viewer: the reverse-lookup filter agrees byte for byte."""
        world, _, _, (stranger,) = countermeasure_pair
        users = world.network.users
        friend = next(uid for uid in sorted(users) if users[uid].friend_ids)
        filtered = 0
        for viewer in (stranger, friend):
            for uid in sorted(users):
                offset = 0
                while True:
                    page = assert_identical(
                        countermeasure_pair,
                        viewer,
                        f"/profile/{uid}/friends",
                        {"offset": str(offset)},
                    )
                    if not isinstance(page, str):
                        break
                    listing = parse_friends_page(page)
                    if offset == 0 and listing.total < len(users[uid].friend_ids):
                        filtered += 1
                    if listing.next_offset is None:
                        break
                    offset = listing.next_offset
        # The countermeasure really dropped members from some lists.
        assert filtered > 0


class TestPostParity:
    def test_messages_and_friend_requests(self, serve_pair):
        world, object_fe, columnar_fe, viewers = serve_pair
        sender = viewers[0]
        target = sorted(world.network.users)[0]
        for path, params in (
            ("/messages/send", {"to": str(target), "text": "hello"}),
            ("/friend-request", {"to": str(target)}),
            ("/friend-request", {"to": str(target)}),  # duplicate
        ):
            object_out = _post_outcome(object_fe, sender, path, params)
            columnar_out = _post_outcome(columnar_fe, sender, path, params)
            assert object_out == columnar_out, path

    def test_posts_do_not_bump_either_version(self, serve_pair):
        world, object_fe, columnar_fe, viewers = serve_pair
        sender, other = viewers
        before = (world.network.version, columnar_fe.network.version)
        _post_outcome(object_fe, sender, "/friend-request", {"to": str(other)})
        _post_outcome(columnar_fe, sender, "/friend-request", {"to": str(other)})
        assert (world.network.version, columnar_fe.network.version) == before


def _post_outcome(frontend, viewer, path, params):
    try:
        return frontend.post(viewer, path, params)
    except OsnError as exc:
        return (type(exc).__name__, str(exc))


class TestSessionAccounts:
    def test_overlay_uids_mirror_object_numbering(self):
        world = build_world(tiny(seed=21))
        frontend = frontend_for_object_world(world)
        object_uids = world.create_attacker_accounts(3)
        overlay_uids = frontend.network.add_session_accounts(3)
        assert overlay_uids == object_uids

    def test_overlay_accounts_are_private_strangers(self, serve_pair):
        world, _, columnar_fe, viewers = serve_pair
        # Encoded attacker rows render as everything-private profiles.
        page = columnar_fe.get(viewers[0], f"/profile/{viewers[1]}")
        view = parse_profile_page(page)
        assert view.is_minimal()


class TestNativeTier:
    def test_native_smoke_tier_serves_pages(self):
        columnar = generate("smoke", seed=3)
        frontend = columnar_frontend(columnar)
        viewers = frontend.network.add_session_accounts(2)
        school_id = min(frontend.network.schools)

        page = frontend.get(
            viewers[0], "/find-friends/browser", {"school": str(school_id)}
        )
        listing = parse_search_page(page)
        assert listing.total > 0
        target = listing.entries[0].user_id
        profile = parse_profile_page(
            frontend.get(viewers[0], f"/profile/{target}")
        )
        assert profile.user_id == target
        # Friends route renders off the CSR adjacency; some members keep
        # their lists private, so accept a clean 403 too.
        served_a_list = False
        for entry in listing.entries:
            try:
                frontend.get(viewers[0], f"/profile/{entry.user_id}/friends")
                served_a_list = True
                break
            except ForbiddenError:
                continue
        assert served_a_list or listing.entries
        with pytest.raises(NotFoundError):
            frontend.get(viewers[0], "/profile/99999999")

    def test_native_search_pools_differ_by_account(self):
        columnar = generate("smoke", seed=3)
        frontend = columnar_frontend(columnar)
        a, b = frontend.network.add_session_accounts(2)
        school_id = min(frontend.network.schools)
        page_a = frontend.get(
            a, "/find-friends/browser", {"school": str(school_id)}
        )
        page_b = frontend.get(
            b, "/find-friends/browser", {"school": str(school_id)}
        )
        # Per-account portal sampling: distinct accounts, distinct pools
        # (cap permitting), exactly like the object network's salt.
        entries_a = {e.user_id for e in parse_search_page(page_a).entries}
        entries_b = {e.user_id for e in parse_search_page(page_b).entries}
        assert entries_a and entries_b


# ----------------------------------------------------------------------
# Decode-free search eligibility vs the per-account scalar predicate
# ----------------------------------------------------------------------

def scalar_member_ids(world):
    """School id -> member uids, built one row at a time (the reference)."""
    members = {}
    base = world.uid_base
    profiles = world.profiles
    for row in range(world.n_accounts):
        if profiles is not None:
            lo, hi = int(profiles.hs_indptr[row]), int(profiles.hs_indptr[row + 1])
            school_ids = [int(profiles.hs_school_id[i]) for i in range(lo, hi)]
        else:
            pid = int(world.accounts.person_id[row])
            idx = int(world.people.school_index[pid]) if pid >= 0 else -1
            school_ids = [idx + 1] if idx >= 0 else []
        for school_id in school_ids:
            members.setdefault(school_id, []).append(base + row)
    return members


def scalar_pool(network, members):
    """Decode every member and ask the scalar policy predicate."""
    policy, now = network.policy, network.clock.now_year
    return [
        uid
        for uid in members
        if policy.school_search_eligible(network._light_account(uid), now)
    ]


def served_index(network):
    base = network.world.uid_base
    return {sid: (rows + base).tolist() for sid, rows in network._school_rows.items()}


def public_member(world, members):
    """Some school member whose public-search bit is set."""
    for uid in sorted(uid for uids in members.values() for uid in uids):
        if world.privacy_settings(uid).public_search:
            return uid
    raise AssertionError("no publicly searchable member")


@pytest.fixture(scope="module", params=["smoke", "tiny", "city"])
def served_world(request, serve_pair):
    """A generated smoke world, the tiny encoder world and a small
    native city (the one regime with no profile columns)."""
    if request.param == "smoke":
        return generate("smoke", seed=3)
    if request.param == "tiny":
        return serve_pair[2].network.world
    return generate("city", seed=1, blocks=2)


class TestEligibilityMask:
    def test_member_index_matches_the_row_loop(self, served_world):
        network = ColumnarNetwork(served_world)
        expected = scalar_member_ids(served_world)
        assert expected
        assert served_index(network) == expected

    def test_member_index_matches_the_object_network(self, serve_pair):
        world, _, columnar_fe, _ = serve_pair
        assert served_index(columnar_fe.network) == world.network._school_members

    def test_duplicate_affiliations_stay_duplicated(self):
        world = encode_world(build_world(tiny(seed=13)))
        cols = world.profiles
        row = int(np.flatnonzero(np.diff(cols.hs_indptr) == 1)[0])
        at = int(cols.hs_indptr[row])
        twice = dataclasses.replace(
            cols,
            hs_indptr=np.concatenate(
                [cols.hs_indptr[: row + 1], cols.hs_indptr[row + 1 :] + 1]
            ),
            hs_school_id=np.insert(cols.hs_school_id, at, cols.hs_school_id[at]),
            hs_name_id=np.insert(cols.hs_name_id, at, cols.hs_name_id[at]),
            hs_grad_year=np.insert(cols.hs_grad_year, at, cols.hs_grad_year[at]),
        )
        world = dataclasses.replace(world, profiles=twice)
        network = ColumnarNetwork(world)
        members = scalar_member_ids(world)
        school_id = int(cols.hs_school_id[at])
        assert members[school_id].count(world.uid_base + row) == 2
        assert served_index(network) == members
        assert network._eligible_member_ids(school_id) == scalar_pool(
            network, members[school_id]
        )

    def test_person_less_rows_are_not_indexed(self):
        world = generate("city", seed=1, blocks=2)
        world.accounts.person_id[:5] = -1
        world.people.school_index[-1] = 0  # where a wrapped -1 would land
        network = ColumnarNetwork(world)
        assert served_index(network) == scalar_member_ids(world)
        blank, named = network._entries([0, 5])
        assert blank.name == ""
        assert named.name == network.get_account(5).profile.name.full

    @pytest.mark.parametrize("minors_searchable", [False, True])
    def test_pool_matches_the_scalar_predicate(self, served_world, minors_searchable):
        policy = dataclasses.replace(
            policy_by_name("facebook"), minors_in_school_search=minors_searchable
        )
        members = scalar_member_ids(served_world)
        schools = set(members) | set(ColumnarNetwork(served_world).schools)
        # Just before, at and just after one member's registered 18th
        # birthday.
        uid = public_member(served_world, members)
        birthday = served_world.registered_birth_instant(uid) + policy.adult_age
        nows = (
            served_world.observation_year,
            math.nextafter(birthday, -math.inf),
            birthday,
            math.nextafter(birthday, math.inf),
        )
        listed = []
        for now in nows:
            network = ColumnarNetwork(
                served_world, policy=policy, clock=SimClock(now_year=now)
            )
            pools = {sid: network._eligible_member_ids(sid) for sid in sorted(schools)}
            for school_id, pool in pools.items():
                expected = scalar_pool(network, members.get(school_id, []))
                assert pool == expected, (school_id, now)
            listed.append(any(uid in pool for pool in pools.values()))
        # The boundary really is crossed: a minor until the birthday.
        if not minors_searchable:
            assert listed[1:] == [False, True, True]

    def test_settings_table_decodes_every_word(self, served_world):
        network = ColumnarNetwork(served_world)
        words = set(np.unique(served_world.accounts.privacy).tolist())
        assert set(network._settings_by_word) == words
        for word, settings in network._settings_by_word.items():
            assert settings == unpack_privacy(word)

    def test_listing_names_match_profile_names(self, served_world):
        network = ColumnarNetwork(served_world)
        viewer = network.add_session_accounts(1)[0]
        for school_id in sorted(network._school_rows):
            _, entries = network.school_search(viewer, school_id)
            for entry in entries:
                profile = network.get_account(entry.user_id).profile
                assert entry.name == profile.name.full
