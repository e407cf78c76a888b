"""Tests for the SocialNetwork: views, friend pages, search, countermeasure."""

import pytest

from repro.osn.clock import SimClock
from repro.osn.errors import ForbiddenError, NotFoundError, RegistrationError
from repro.osn.network import DirectoryEntry, GraphSearchQuery, SocialNetwork
from repro.osn.privacy import Audience, PrivacySettings, ProfileField, Relationship
from repro.osn.profile import Birthday, Name, Profile, SchoolAffiliation
from repro.worldgen.export import world_summary
from repro.worldgen.presets import smoke, tiny
from repro.worldgen.world import build_world


class TestRegistration:
    def test_under_13_registered_age_rejected(self, empty_network):
        with pytest.raises(RegistrationError):
            empty_network.register_account(
                profile=Profile(name=Name("Too", "Young")),
                registered_birthday=Birthday(2002),  # age ~10 in 2012
            )

    def test_lying_child_accepted(self, empty_network):
        account = empty_network.register_account(
            profile=Profile(name=Name("Lying", "Child")),
            registered_birthday=Birthday(1994),
            real_birthday=Birthday(2001),
            created_at_year=2010.0,
        )
        assert account.lied_about_age()

    def test_enforcement_can_be_disabled(self, empty_network):
        account = empty_network.register_account(
            profile=Profile(name=Name("No", "Coppa")),
            registered_birthday=Birthday(2004),
            enforce_minimum_age=False,
        )
        assert empty_network.is_registered_minor(account.user_id)

    def test_age_check_uses_creation_time_not_now(self, empty_network):
        # Registered 2006 at age 13 (born 1993) - fine even though the
        # check happens "today".
        account = empty_network.register_account(
            profile=Profile(name=Name("Old", "Timer")),
            registered_birthday=Birthday(1993, 0.0),
            created_at_year=2006.5,
        )
        assert account.created_at_year == 2006.5

    def test_unknown_user_lookup_raises(self, empty_network):
        with pytest.raises(NotFoundError):
            empty_network.get_account(404)


class TestRelationships:
    def test_stranger_when_unconnected(self, school_network):
        net, _, accounts = school_network
        rel = net.relationship(
            accounts["crawler"].user_id, accounts["minor"].user_id
        )
        assert rel is Relationship.STRANGER

    def test_logged_out_viewer_is_stranger(self, school_network):
        net, _, accounts = school_network
        assert net.relationship(None, accounts["minor"].user_id) is Relationship.STRANGER

    def test_friend(self, school_network):
        net, _, accounts = school_network
        rel = net.relationship(
            accounts["lying_minor"].user_id, accounts["minor"].user_id
        )
        assert rel is Relationship.FRIEND

    def test_friend_of_friend(self, school_network):
        net, _, accounts = school_network
        rel = net.relationship(accounts["minor"].user_id, accounts["alumnus"].user_id)
        assert rel is Relationship.FRIEND_OF_FRIEND

    def test_self(self, school_network):
        net, _, accounts = school_network
        uid = accounts["minor"].user_id
        assert net.relationship(uid, uid) is Relationship.SELF


def friendships(net):
    """Every friendship and the world version: what a failed write must keep."""
    return sorted(net.graph.edges()), net.version


class TestFriendships:
    def test_existing_pair_returns_false_and_keeps_version(self, school_network):
        net, _, accounts = school_network
        lying, minor = accounts["lying_minor"].user_id, accounts["minor"].user_id
        before = friendships(net)
        assert not net.add_friendship(lying, minor)
        assert not net.add_friendship(minor, lying)
        assert friendships(net) == before

    def test_new_pair_is_mutual_and_bumps_version(self, school_network):
        net, _, accounts = school_network
        minor, alumnus = accounts["minor"].user_id, accounts["alumnus"].user_id
        version = net.version
        assert net.add_friendship(minor, alumnus)
        assert net.version == version + 1
        assert net.relationship(minor, alumnus) is Relationship.FRIEND
        assert net.relationship(alumnus, minor) is Relationship.FRIEND

    def test_add_friendships_counts_new_pairs_only(self, school_network):
        net, _, accounts = school_network
        lying, minor, alumnus = (
            accounts[k].user_id for k in ("lying_minor", "minor", "alumnus")
        )
        # minor-alumnus is new (given twice, once reversed); alumnus-lying exists.
        assert net.add_friendships([([minor, alumnus, alumnus], [alumnus, minor, lying])]) == 1
        assert net.population_stats()["edges"] == 3

    @pytest.mark.parametrize(
        "pair, error",
        [
            (("minor", "minor"), ValueError),
            (("minor", 404), NotFoundError),
            ((0, "minor"), NotFoundError),  # row 0 of the graph is no account
            ((-1, "minor"), NotFoundError),
        ],
        ids=["self-pair", "unknown-uid", "uid-0", "negative-uid"],
    )
    def test_bad_pair_raises_and_changes_nothing(self, school_network, pair, error):
        net, _, accounts = school_network
        a, b = (accounts[end].user_id if isinstance(end, str) else end for end in pair)
        alumnus = accounts["alumnus"].user_id
        before = friendships(net)
        with pytest.raises(error):
            net.add_friendship(a, b)
        with pytest.raises(error):  # a good pair beside it is not added either
            net.add_friendships([([accounts["minor"].user_id, a], [alumnus, b])])
        assert friendships(net) == before

    def test_account_registered_later_is_friendless(self, school_network):
        net, _, accounts = school_network
        lying = accounts["lying_minor"].user_id
        late = net.register_account(
            profile=Profile(name=Name("Late", "Comer")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.facebook_adult_default_2012(),
        ).user_id
        assert net.friend_page(None, late) == (0, [])
        for uid in net.users:
            if uid != late:
                assert net.relationship(uid, late) is not Relationship.FRIEND
        _, entries = net.friend_page(None, lying)
        assert late not in {e.user_id for e in entries}
        # lying has friends, but shares no friend and no network with late.
        assert net.relationship(late, lying) is Relationship.STRANGER
        assert net.relationship(lying, late) is Relationship.STRANGER
        assert net.add_friendship(late, lying)
        assert net.relationship(late, lying) is Relationship.FRIEND


class TestProfileViews:
    def test_minor_view_is_minimal_for_stranger(self, school_network):
        net, _, accounts = school_network
        view = net.view_profile(accounts["crawler"].user_id, accounts["minor"].user_id)
        assert view.is_minimal()
        assert not view.high_schools
        assert not view.message_button
        assert not view.friend_list_visible

    def test_lying_minor_fully_exposed(self, school_network):
        net, school, accounts = school_network
        view = net.view_profile(
            accounts["crawler"].user_id, accounts["lying_minor"].user_id
        )
        assert not view.is_minimal()
        assert view.high_schools[0].graduation_year == 2014
        assert view.friend_list_visible
        assert view.message_button

    def test_friend_sees_minor_details(self, school_network):
        net, _, accounts = school_network
        view = net.view_profile(
            accounts["lying_minor"].user_id, accounts["minor"].user_id
        )
        assert view.high_schools  # friends see the school affiliation

    def test_view_has_registered_birth_year_not_real(self, school_network):
        net, _, accounts = school_network
        lying = accounts["lying_minor"]
        lying.profile.birthday = Birthday(1996)
        lying.settings = lying.settings.with_field(
            ProfileField.BIRTHDAY, Audience.PUBLIC
        )
        view = net.view_profile(accounts["crawler"].user_id, lying.user_id)
        assert view.birthday_year == 1990  # the registered (lied) year


class TestFriendPages:
    def test_minor_friend_list_forbidden_to_stranger(self, school_network):
        net, _, accounts = school_network
        with pytest.raises(ForbiddenError):
            net.friend_page(accounts["crawler"].user_id, accounts["minor"].user_id)

    def test_adult_friend_list_paginates(self, empty_network):
        net = empty_network
        owner = net.register_account(
            profile=Profile(name=Name("Pop", "Ular")),
            registered_birthday=Birthday(1985),
            settings=PrivacySettings.facebook_adult_default_2012(),
        )
        for i in range(45):
            friend = net.register_account(
                profile=Profile(name=Name("F", str(i))),
                registered_birthday=Birthday(1985),
            )
            net.add_friendship(owner.user_id, friend.user_id)
        total, page0 = net.friend_page(None, owner.user_id, 0)
        total2, page2 = net.friend_page(None, owner.user_id, 40)
        assert total == total2 == 45
        assert len(page0) == net.friends_page_size == 20
        assert len(page2) == 5

    def test_reverse_lookup_countermeasure_hides_minors(self, school_network):
        net, _, accounts = school_network
        lying = accounts["lying_minor"].user_id
        viewer = accounts["crawler"].user_id
        total_before, _ = net.friend_page(viewer, lying)
        net.reverse_lookup_enabled = False
        try:
            total_after, entries = net.friend_page(viewer, lying)
        finally:
            net.reverse_lookup_enabled = True
        # the truthful minor's friend list is hidden, so they vanish
        assert total_before == 2
        member_ids = {e.user_id for e in entries}
        assert accounts["minor"].user_id not in member_ids
        # the alumnus (public list) is still visible
        assert accounts["alumnus"].user_id in member_ids


class TestSchoolSearch:
    def test_search_excludes_registered_minors(self, school_network):
        net, school, accounts = school_network
        _, entries = net.school_search(accounts["crawler"].user_id, school.school_id)
        ids = {e.user_id for e in entries}
        assert accounts["minor"].user_id not in ids
        assert accounts["lying_minor"].user_id in ids
        assert accounts["alumnus"].user_id in ids

    def test_search_unknown_school_raises(self, school_network):
        net, _, accounts = school_network
        with pytest.raises(NotFoundError):
            net.school_search(accounts["crawler"].user_id, 999)

    def test_search_cap_and_account_variation(self, empty_network):
        net = empty_network
        net.search_result_cap = 10
        school = net.register_school("Big High", "Metropolis")
        for i in range(50):
            net.register_account(
                profile=Profile(
                    name=Name("A", str(i)),
                    high_schools=(SchoolAffiliation(school.school_id, school.name, 2005),),
                ),
                registered_birthday=Birthday(1985),
                settings=PrivacySettings.facebook_adult_default_2012(),
            )
        viewer_a = net.register_account(
            profile=Profile(name=Name("V", "A")), registered_birthday=Birthday(1980)
        )
        viewer_b = net.register_account(
            profile=Profile(name=Name("V", "B")), registered_birthday=Birthday(1980)
        )
        total_a, page_a = net.school_search(viewer_a.user_id, school.school_id)
        total_b, page_b = net.school_search(viewer_b.user_id, school.school_id)
        assert total_a == total_b == 10
        # different accounts get (deterministically) different samples
        assert {e.user_id for e in page_a} != {e.user_id for e in page_b}
        # and the same account always gets the same sample
        total_a2, page_a2 = net.school_search(viewer_a.user_id, school.school_id)
        assert [e.user_id for e in page_a] == [e.user_id for e in page_a2]


class TestGraphSearch:
    def test_current_students_only(self, school_network):
        net, school, accounts = school_network
        query = GraphSearchQuery(school_id=school.school_id, current_students_only=True)
        results = net.graph_search(accounts["crawler"].user_id, query)
        ids = {e.user_id for e in results}
        assert accounts["lying_minor"].user_id in ids
        assert accounts["alumnus"].user_id not in ids

    def test_year_filters(self, school_network):
        net, school, accounts = school_network
        before = net.graph_search(
            accounts["crawler"].user_id,
            GraphSearchQuery(school_id=school.school_id, year_op="before", year=2010),
        )
        assert {e.user_id for e in before} == {accounts["alumnus"].user_id}
        exact = net.graph_search(
            accounts["crawler"].user_id,
            GraphSearchQuery(school_id=school.school_id, year_op="in", year=2014),
        )
        assert {e.user_id for e in exact} == {accounts["lying_minor"].user_id}

    def test_city_filter(self, school_network):
        net, school, accounts = school_network
        results = net.graph_search(
            accounts["crawler"].user_id,
            GraphSearchQuery(school_id=school.school_id, current_city="Springfield"),
        )
        assert {e.user_id for e in results} == {accounts["lying_minor"].user_id}

    def test_bad_year_op_raises(self, school_network):
        net, school, accounts = school_network
        with pytest.raises(ValueError):
            net.graph_search(
                accounts["crawler"].user_id,
                GraphSearchQuery(school_id=school.school_id, year_op="near", year=2012),
            )

    def test_bad_year_op_raises_on_a_school_without_members(self, school_network):
        net, _, accounts = school_network
        empty = net.register_school("Empty High", "Nowhere")
        with pytest.raises(ValueError, match="bad year_op"):
            net.graph_search(
                accounts["crawler"].user_id,
                GraphSearchQuery(school_id=empty.school_id, year_op="near", year=2012),
            )
        assert net.graph_search(
            accounts["crawler"].user_id, GraphSearchQuery(school_id=empty.school_id)
        ) == []

    def test_unknown_school_raises_as_the_portal_does(self, school_network):
        net, _, accounts = school_network
        viewer = accounts["crawler"].user_id
        with pytest.raises(NotFoundError, match="no such school"):
            net.graph_search(viewer, GraphSearchQuery(school_id=999))
        with pytest.raises(NotFoundError, match="no such school"):
            net.school_search(viewer, 999)

    def test_never_returns_registered_minors(self, school_network):
        net, school, accounts = school_network
        results = net.graph_search(
            accounts["crawler"].user_id,
            GraphSearchQuery(school_id=school.school_id),
        )
        assert accounts["minor"].user_id not in {e.user_id for e in results}


class TestDisplayNameColumn:
    """Listings read display names off the column ``register_account``
    writes: each account's own ``Name.full``, for accounts registered
    before the friendships and after them."""

    @pytest.mark.parametrize("factory, seed", [(tiny, 7), (smoke, 11)], ids=["tiny-7", "smoke-11"])
    def test_every_uid_lists_its_profile_name(self, factory, seed):
        world = build_world(factory(seed=seed))
        world.create_attacker_accounts(2)
        network = world.network
        uids = sorted(network.users)
        assert uids == list(range(1, len(uids) + 1))
        names = network._display_names(uids)
        assert names == [network.users[uid].profile.name.full for uid in uids]
        # The column's own strings: nothing is formatted per row.
        again = network._display_names(uids[::-1])
        assert all(a is b for a, b in zip(names, reversed(again)))

    def test_a_refused_registration_leaves_the_column_unchanged(self, empty_network):
        net = empty_network
        first = net.register_account(
            profile=Profile(name=Name("Ann", "Lee")), registered_birthday=Birthday(1980)
        )
        with pytest.raises(RegistrationError):
            net.register_account(
                profile=Profile(name=Name("Too", "Young")),
                registered_birthday=Birthday(2002),
            )
        second = net.register_account(
            profile=Profile(name=Name("Bo", "Chen")), registered_birthday=Birthday(1981)
        )
        net.add_friendship(first.user_id, second.user_id)
        assert net._display_names([first.user_id, second.user_id]) == ["Ann Lee", "Bo Chen"]
        _, entries = net.friend_page(first.user_id, first.user_id)
        assert entries == [DirectoryEntry(second.user_id, "Bo Chen")]


class TestStats:
    def test_population_stats_counts(self, school_network):
        net, _, accounts = school_network
        stats = net.population_stats()
        assert stats["users"] == 4
        assert stats["registered_minors"] == 1
        assert stats["age_liars"] == 1
        assert stats["edges"] == 2

    def test_degree_stats_pinned_on_a_built_world(self):
        """Pinned on ``tiny(seed=7)``: ``population_stats`` averages the
        degree over every registered account, ``world_summary`` over the
        non-fake ones."""
        world = build_world(tiny(seed=7))
        stats = world.network.population_stats()
        assert (stats["edges"], stats["mean_degree"]) == (22101.0, 23.549280767181674)
        summary = world_summary(world)
        assert (summary["edges"], summary["mean_degree"]) == (22101, 23.549280767181674)
        world.create_attacker_accounts(2)  # friendless, and counted
        stats = world.network.population_stats()
        assert (stats["edges"], stats["mean_degree"]) == (22101.0, 23.52421500798297)
        summary = world_summary(world)
        assert (summary["edges"], summary["mean_degree"]) == (22101, 23.549280767181674)
