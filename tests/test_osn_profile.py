"""Unit tests for profile data structures and accounts."""

import pytest

from repro.osn.profile import (
    Birthday,
    ContactInfo,
    Gender,
    Name,
    Profile,
    SchoolAffiliation,
)
from repro.osn.privacy import PrivacySettings
from repro.osn.user import Account


class TestName:
    def test_full_name(self):
        assert Name("Ada", "Lovelace").full == "Ada Lovelace"


class TestSchoolAffiliation:
    def test_current_student_same_year(self):
        assert SchoolAffiliation(1, "HS", 2012).is_current_student(2012)

    def test_current_student_future_year(self):
        assert SchoolAffiliation(1, "HS", 2015).is_current_student(2012)

    def test_alumnus_not_current(self):
        assert not SchoolAffiliation(1, "HS", 2011).is_current_student(2012)

    def test_no_year_not_current(self):
        assert not SchoolAffiliation(1, "HS", None).is_current_student(2012)


class TestBirthday:
    def test_age_at(self):
        assert Birthday(1996, 0.25).age_at(2012.25) == pytest.approx(16.0)

    def test_as_year_fraction(self):
        assert Birthday(1990, 0.5).as_year_fraction == pytest.approx(1990.5)


class TestContactInfo:
    def test_empty(self):
        assert ContactInfo().is_empty()

    def test_non_empty(self):
        assert not ContactInfo(email="a@b.c").is_empty()


class TestProfile:
    def test_primary_high_school_is_last_listed(self):
        profile = Profile(
            name=Name("A", "B"),
            high_schools=(
                SchoolAffiliation(1, "Old High", 2010),
                SchoolAffiliation(2, "New High", 2014),
            ),
        )
        assert profile.primary_high_school().school_id == 2

    def test_primary_high_school_none_when_unlisted(self):
        assert Profile(name=Name("A", "B")).primary_high_school() is None

    def test_lists_school(self):
        profile = Profile(
            name=Name("A", "B"),
            high_schools=(SchoolAffiliation(3, "HS", None),),
        )
        assert profile.lists_school(3)
        assert not profile.lists_school(4)

    def test_affiliation_for(self):
        aff = SchoolAffiliation(3, "HS", 2013)
        profile = Profile(name=Name("A", "B"), high_schools=(aff,))
        assert profile.affiliation_for(3) == aff
        assert profile.affiliation_for(9) is None


class TestAccount:
    def make(self, registered=1990, real=1996):
        return Account(
            user_id=1,
            profile=Profile(name=Name("A", "B")),
            registered_birthday=Birthday(registered),
            real_birthday=Birthday(real),
            settings=PrivacySettings(),
        )

    def test_registered_vs_real_age(self):
        account = self.make()
        assert account.registered_age(2012.5) == pytest.approx(22.0)
        assert account.real_age(2012.5) == pytest.approx(16.0)

    def test_is_registered_minor_uses_registered(self):
        account = self.make()
        assert not account.is_registered_minor(2012.5)
        assert account.is_actual_minor(2012.5)

    def test_lied_about_age(self):
        assert self.make().lied_about_age()
        assert not self.make(registered=1996, real=1996).lied_about_age()
