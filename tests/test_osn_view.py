"""Unit tests for ProfileView semantics (minimality, claims, fast build)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from repro.osn.profile import Gender, SchoolAffiliation
from repro.osn.view import ProfileView, build_profile_view
from tests.test_osn_pages import views_strategy


def minimal_view(**overrides):
    base = dict(
        user_id=1,
        name="Min Imal",
        gender=Gender.FEMALE,
        networks=("Some Net",),
        has_profile_photo=True,
    )
    base.update(overrides)
    return ProfileView(**base)


class TestIsMinimal:
    def test_name_photo_gender_networks_is_minimal(self):
        assert minimal_view().is_minimal()

    def test_high_school_breaks_minimality(self):
        view = minimal_view(high_schools=(SchoolAffiliation(1, "HS", 2014),))
        assert not view.is_minimal()

    def test_message_button_breaks_minimality(self):
        assert not minimal_view(message_button=True).is_minimal()

    def test_friend_list_breaks_minimality(self):
        assert not minimal_view(friend_list_visible=True).is_minimal()

    def test_photo_count_breaks_minimality(self):
        assert not minimal_view(photo_count=0).is_minimal()

    def test_birthday_breaks_minimality(self):
        assert not minimal_view(birthday_year=1996).is_minimal()

    def test_contact_breaks_minimality(self):
        assert not minimal_view(contact_phone="555").is_minimal()


class TestVisibleFieldNames:
    def test_empty_for_minimal(self):
        assert minimal_view().visible_field_names() == ()

    def test_reports_extended_fields(self):
        view = minimal_view(
            hometown="Springfield",
            current_city="Eastport",
            friend_list_visible=True,
        )
        names = view.visible_field_names()
        assert "hometown" in names
        assert "current_city" in names
        assert "friend_list" in names


class TestClaims:
    def test_claims_current_student(self):
        view = minimal_view(high_schools=(SchoolAffiliation(5, "HS", 2013),))
        assert view.claims_current_student(5, 2012)

    def test_alumnus_claim_rejected(self):
        view = minimal_view(high_schools=(SchoolAffiliation(5, "HS", 2010),))
        assert not view.claims_current_student(5, 2012)

    def test_other_school_claim_rejected(self):
        view = minimal_view(high_schools=(SchoolAffiliation(6, "Other", 2013),))
        assert not view.claims_current_student(5, 2012)

    def test_no_year_claim_rejected(self):
        view = minimal_view(high_schools=(SchoolAffiliation(5, "HS", None),))
        assert not view.claims_current_student(5, 2012)


def _fields_of(view):
    return {f.name: getattr(view, f.name) for f in dataclasses.fields(view)}


class TestBuildProfileView:
    """A view built without the frozen ``__init__`` is the same view."""

    @given(view=views_strategy)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_init_built_view(self, view):
        fast = build_profile_view(**_fields_of(view))
        assert type(fast) is ProfileView
        assert fast == view and view == fast
        assert hash(fast) == hash(view)
        assert repr(fast) == repr(view)
        assert dataclasses.asdict(fast) == dataclasses.asdict(view)
        assert pickle.loads(pickle.dumps(fast)) == view
        assert dataclasses.replace(fast) == view

    def test_refuses_assignment(self):
        fast = build_profile_view(**_fields_of(minimal_view()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.name = "Someone Else"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fast.name
        assert fast == minimal_view()

    def test_every_field_is_required(self):
        values = _fields_of(minimal_view())
        del values["public_search_listed"]
        with pytest.raises(TypeError, match=r"missing: \['public_search_listed'\]"):
            build_profile_view(**values)
        # As many keywords as fields, one of them misspelled.
        values = _fields_of(minimal_view())
        values["birthday"] = values.pop("birthday_year")
        assert len(values) == len(dataclasses.fields(ProfileView))
        refused = r"missing: \['birthday_year'\]; unknown: \['birthday'\]"
        with pytest.raises(TypeError, match=refused):
            build_profile_view(**values)
