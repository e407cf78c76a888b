"""Tests for account creation from persons (profiles, settings, lying)."""

from collections import Counter

import pytest

from repro.osn.privacy import Audience, ProfileField
from repro.osn.profile import Birthday
from repro.worldgen.population import Role
from repro.worldgen.presets import hs1, tiny
from repro.worldgen.world import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(tiny(seed=17))


@pytest.fixture(scope="module")
def hs1_world():
    return build_world(hs1(seed=101))


def accounts_with_role(world, role):
    out = []
    for person in world.population.people:
        if person.role is role:
            uid = world.account_index.user_for(person.person_id)
            if uid is not None:
                out.append(world.network.users[uid])
    return out


class TestAdoption:
    def test_not_everyone_has_an_account(self, world):
        with_accounts = len(world.account_index)
        assert with_accounts < len(world.population)

    def test_parents_always_adopt(self, world):
        parents = world.population.ids_with_role(Role.PARENT)
        adopted = sum(
            1 for pid in parents if world.account_index.user_for(pid) is not None
        )
        assert adopted == len(parents)


class TestStudentAccounts:
    def test_students_link_back_to_people(self, world):
        for account in accounts_with_role(world, Role.STUDENT)[:50]:
            person = world.population.person(account.person_id)
            assert person.role is Role.STUDENT
            assert account.profile.name == person.name

    def test_real_birthday_matches_person(self, world):
        for account in accounts_with_role(world, Role.STUDENT)[:50]:
            person = world.population.person(account.person_id)
            assert account.real_birthday.year == int(person.birth_year_fraction)

    def test_listed_grad_year_truthful(self, world):
        school_id = world.school().school_id
        for account in accounts_with_role(world, Role.STUDENT):
            affiliation = account.profile.affiliation_for(school_id)
            if affiliation and affiliation.graduation_year is not None:
                person = world.population.person(account.person_id)
                assert affiliation.graduation_year == person.cohort_year

    def test_some_students_list_school_some_dont(self, world):
        students = accounts_with_role(world, Role.STUDENT)
        listed = sum(1 for a in students if a.profile.high_schools)
        assert 0 < listed < len(students)

    def test_registered_minor_students_use_minor_defaults(self, world):
        now = world.network.clock.now_year
        minors = [
            a for a in accounts_with_role(world, Role.STUDENT)
            if a.is_registered_minor(now)
        ]
        assert minors
        for account in minors:
            assert not account.settings.public_search

    def test_adult_registered_students_often_public_lists(self, world):
        now = world.network.clock.now_year
        adults = [
            a for a in accounts_with_role(world, Role.STUDENT)
            if not a.is_registered_minor(now)
        ]
        public = sum(
            1
            for a in adults
            if a.settings.audience_for(ProfileField.FRIEND_LIST) is Audience.PUBLIC
        )
        assert public / len(adults) > 0.5


class TestAlumniAccounts:
    def test_alumni_registered_truthfully(self, world):
        liars = [a for a in accounts_with_role(world, Role.ALUMNUS) if a.lied_about_age()]
        assert len(liars) / max(len(accounts_with_role(world, Role.ALUMNUS)), 1) < 0.1

    def test_some_alumni_have_graduate_school(self, world):
        alumni = accounts_with_role(world, Role.ALUMNUS)
        with_gs = sum(1 for a in alumni if a.profile.graduate_school)
        assert 0 < with_gs < len(alumni)

    def test_some_alumni_moved_away(self, world):
        alumni = accounts_with_role(world, Role.ALUMNUS)
        city = world.school().city
        moved = sum(
            1
            for a in alumni
            if a.profile.current_city and a.profile.current_city != city
        )
        assert moved > 0


class TestFormerStudents:
    def test_former_students_can_claim_future_years(self, world):
        """A churned-out student listing their old cohort year looks like
        a current student - the paper's main false-positive source."""
        school_id = world.school().school_id
        current = world.network.clock.current_year
        claimers = [
            a
            for a in accounts_with_role(world, Role.FORMER_STUDENT)
            if (aff := a.profile.affiliation_for(school_id))
            and aff.graduation_year is not None
            and aff.graduation_year >= current
        ]
        assert claimers


class TestExternalAccounts:
    def test_external_composition(self, world):
        now = world.network.clock.now_year
        externals = accounts_with_role(world, Role.EXTERNAL)
        minors = sum(1 for a in externals if a.is_registered_minor(now))
        minimal = sum(
            1
            for a in externals
            if world.network.view_profile(None, a.user_id).is_minimal()
        )
        assert 0 < minors < len(externals)
        # minimal-profile externals include both minors and locked adults
        assert minimal > minors


def _settings_state(settings):
    return (
        tuple(settings.audiences.items()),
        settings.default,
        settings.public_search,
        settings.message_audience,
    )


class TestSharedRecords:
    """Accounts share their frozen settings and birthdays."""

    def test_few_distinct_settings_objects(self, hs1_world):
        users = hs1_world.network.users.values()
        assert len({id(a.settings) for a in users}) <= 64

    def test_truthful_registrations_share_one_birthday(self, hs1_world):
        truthful = liars = 0
        for account in hs1_world.network.users.values():
            fraction = hs1_world.population.person(account.person_id).birth_year_fraction
            real = Birthday(int(fraction), fraction - int(fraction))
            assert account.real_birthday == real
            if account.registered_birthday == real:
                truthful += 1
                assert account.real_birthday is account.registered_birthday
            else:
                liars += 1
        assert truthful and liars

    def test_one_profile_birthday_per_year(self, hs1_world):
        listed = [
            a.profile.birthday
            for a in hs1_world.network.users.values()
            if a.profile.birthday is not None
        ]
        assert listed
        assert len({id(b) for b in listed}) == len({b.year for b in listed})

    def test_replacing_one_accounts_settings_leaves_the_others(self, hs1_world):
        users = hs1_world.network.users
        before = {uid: _settings_state(a.settings) for uid, a in users.items()}
        widest = Counter(id(a.settings) for a in users.values()).most_common(1)[0][0]
        target = next(a for a in users.values() if id(a.settings) == widest)
        original = target.settings
        try:
            target.settings = original.with_field(ProfileField.FRIEND_LIST, Audience.ONLY_ME)
            for uid, account in users.items():
                if uid != target.user_id:
                    assert _settings_state(account.settings) == before[uid]
            assert target.settings.audience_for(ProfileField.FRIEND_LIST) is Audience.ONLY_ME
        finally:
            target.settings = original
