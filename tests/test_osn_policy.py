"""Tests for the Facebook/Google+ minor-policy engines (Tables 1 and 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn.clock import SimClock
from repro.osn.errors import PolicyError
from repro.osn.network import render_profile_view
from repro.osn.policy import SitePolicy, facebook_policy, googleplus_policy, policy_by_name
from repro.osn.privacy import (
    MINIMAL_FIELDS,
    Audience,
    PrivacySettings,
    ProfileField,
    Relationship,
)
from repro.osn.profile import (
    Birthday,
    ContactInfo,
    Gender,
    Name,
    Profile,
    SchoolAffiliation,
    WallPost,
)
from repro.osn.user import Account
from repro.osn.view import ProfileView, WallPostView

NOW = 2012.25


def _account(registered_year: int, settings: PrivacySettings) -> Account:
    return Account(
        user_id=1,
        profile=Profile(name=Name("Test", "User")),
        registered_birthday=Birthday(registered_year),
        real_birthday=Birthday(registered_year),
        settings=settings,
    )


def minor(settings=None) -> Account:
    return _account(1997, settings or PrivacySettings.everything_public())


def adult(settings=None) -> Account:
    return _account(1985, settings or PrivacySettings.everything_public())


class TestRegistration:
    def test_thirteen_allowed(self):
        assert facebook_policy().registration_allowed(13.0)

    def test_under_thirteen_banned(self):
        assert not facebook_policy().registration_allowed(12.9)

    def test_adult_allowed(self):
        assert facebook_policy().registration_allowed(35.0)


class TestMinorClassification:
    def test_seventeen_is_registered_minor(self):
        assert facebook_policy().is_registered_minor(minor(), NOW)

    def test_adult_is_not(self):
        assert not facebook_policy().is_registered_minor(adult(), NOW)

    def test_boundary_exactly_18(self):
        policy = facebook_policy()
        account = _account(1994, PrivacySettings())
        # born mid-1994 -> turns 18 around 2012.5, so still a minor in March
        assert policy.is_registered_minor(account, 2012.25)
        assert not policy.is_registered_minor(account, 2012.75)


class TestFacebookMinorCaps:
    """A stranger must never see more than minimal info on a minor."""

    @pytest.mark.parametrize(
        "field",
        [f for f in ProfileField if f not in MINIMAL_FIELDS],
    )
    def test_extended_fields_capped_for_strangers(self, field):
        policy = facebook_policy()
        assert not policy.field_visible_to(minor(), field, Relationship.STRANGER, NOW)

    @pytest.mark.parametrize("field", sorted(MINIMAL_FIELDS, key=lambda f: f.value))
    def test_minimal_fields_follow_settings(self, field):
        policy = facebook_policy()
        assert policy.field_visible_to(minor(), field, Relationship.STRANGER, NOW)

    def test_fof_can_see_minor_extended_fields(self):
        policy = facebook_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.PHOTOS, Relationship.FRIEND_OF_FRIEND, NOW
        )

    def test_adult_extended_fields_follow_settings(self):
        policy = facebook_policy()
        assert policy.field_visible_to(
            adult(), ProfileField.FRIEND_LIST, Relationship.STRANGER, NOW
        )

    def test_minor_own_privacy_still_respected(self):
        """The cap is a ceiling, not a floor."""
        policy = facebook_policy()
        locked = minor(PrivacySettings.everything_private())
        assert not policy.field_visible_to(
            locked, ProfileField.GENDER, Relationship.STRANGER, NOW
        )


class TestMessageButton:
    def test_stranger_never_messages_minor(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(minor(), Relationship.STRANGER, NOW)

    def test_stranger_messages_adult_with_public_setting(self):
        policy = facebook_policy()
        assert policy.message_button_visible(adult(), Relationship.STRANGER, NOW)

    def test_friend_can_message_minor(self):
        policy = facebook_policy()
        assert policy.message_button_visible(minor(), Relationship.FRIEND, NOW)

    def test_self_has_no_message_button(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(adult(), Relationship.SELF, NOW)

    def test_network_member_cannot_message_minor(self):
        policy = facebook_policy()
        assert not policy.message_button_visible(
            minor(), Relationship.NETWORK_MEMBER, NOW
        )


class TestSearchEligibility:
    def test_minors_never_in_school_search(self):
        assert not facebook_policy().school_search_eligible(minor(), NOW)

    def test_adults_in_school_search(self):
        assert facebook_policy().school_search_eligible(adult(), NOW)

    def test_adult_with_search_disabled_not_listed(self):
        account = adult(
            PrivacySettings(
                audiences={}, default=Audience.PUBLIC, public_search=False
            )
        )
        assert not facebook_policy().school_search_eligible(account, NOW)

    def test_disabled_account_not_searchable(self):
        account = adult()
        account.disabled = True
        assert not facebook_policy().school_search_eligible(account, NOW)

    def test_minor_never_in_public_search_even_opted_in(self):
        assert not facebook_policy().public_search_eligible(minor(), NOW)

    def test_googleplus_minor_can_be_in_public_search(self):
        assert googleplus_policy().public_search_eligible(minor(), NOW)

    def test_googleplus_minor_still_hidden_from_school_search(self):
        assert not googleplus_policy().school_search_eligible(minor(), NOW)


class TestGooglePlusCaps:
    def test_minor_may_expose_school_publicly(self):
        policy = googleplus_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.HIGH_SCHOOL, Relationship.STRANGER, NOW
        )

    def test_minor_may_expose_phone_publicly(self):
        policy = googleplus_policy()
        assert policy.field_visible_to(
            minor(), ProfileField.CONTACT_INFO, Relationship.STRANGER, NOW
        )

    def test_minor_defaults_are_protective(self):
        policy = googleplus_policy()
        account = minor(policy.default_minor_settings)
        assert not policy.field_visible_to(
            account, ProfileField.HIGH_SCHOOL, Relationship.STRANGER, NOW
        )


class TestLookupAndValidation:
    def test_policy_by_name(self):
        assert policy_by_name("facebook").name == "facebook"
        assert policy_by_name("googleplus").name == "googleplus"

    def test_unknown_policy_raises(self):
        with pytest.raises(PolicyError):
            policy_by_name("myspace")

    def test_builtin_policies_validate(self):
        facebook_policy().validate()
        googleplus_policy().validate()


# ----------------------------------------------------------------------
# One minor decision per profile view
# ----------------------------------------------------------------------


def reference_effective_audience(policy, account, field_, now):
    """``SitePolicy.effective_audience`` as it was before the cap became
    a per-policy table: the minor cap written out field by field.  Kept
    as the exact reference."""
    chosen = account.settings.audience_for(field_)
    if not policy.is_registered_minor(account, now) or field_ in policy.minor_stranger_cap:
        return chosen
    return min(chosen, policy.minor_nonstranger_cap_audience)


def reference_render_profile_view(policy, account, rel, now):
    """``render_profile_view`` as it was before it decided the owner's
    minor status once: every field asks the per-field cap, which decides
    it again.  Kept as the exact reference."""

    def sees(field_):
        return rel.satisfies(reference_effective_audience(policy, account, field_, now))

    profile = account.profile
    contact = profile.contact_info
    contact_visible = sees(ProfileField.CONTACT_INFO) and contact is not None
    return ProfileView(
        user_id=account.user_id,
        name=profile.name.full,
        gender=profile.gender if sees(ProfileField.GENDER) else None,
        networks=profile.networks if sees(ProfileField.NETWORKS) else (),
        has_profile_photo=profile.has_profile_photo and sees(ProfileField.PROFILE_PHOTO),
        high_schools=profile.high_schools if sees(ProfileField.HIGH_SCHOOL) else (),
        relationship_status=(
            profile.relationship_status if sees(ProfileField.RELATIONSHIP) else None
        ),
        interested_in=profile.interested_in if sees(ProfileField.INTERESTED_IN) else None,
        birthday_year=(
            account.registered_birthday.year
            if sees(ProfileField.BIRTHDAY) and profile.birthday is not None
            else None
        ),
        hometown=profile.hometown if sees(ProfileField.HOMETOWN) else None,
        current_city=profile.current_city if sees(ProfileField.CURRENT_CITY) else None,
        employer=profile.employer if sees(ProfileField.EMPLOYER) else None,
        graduate_school=(
            profile.graduate_school if sees(ProfileField.GRADUATE_SCHOOL) else None
        ),
        photo_count=profile.photo_count if sees(ProfileField.PHOTOS) else None,
        wall_post_count=len(profile.wall_posts) if sees(ProfileField.WALL) else None,
        wall_posts=(
            tuple(WallPostView(p.author_id, p.text) for p in profile.wall_posts)
            if sees(ProfileField.WALL)
            else ()
        ),
        contact_email=contact.email if contact_visible else None,
        contact_phone=contact.phone if contact_visible else None,
        friend_list_visible=sees(ProfileField.FRIEND_LIST),
        message_button=policy.message_button_visible(account, rel, now),
        public_search_listed=policy.public_search_eligible(account, now),
    )


_FULL_PROFILE = Profile(
    name=Name("Pat", "O'Neil"),
    gender=Gender.FEMALE,
    networks=("Springfield",),
    high_schools=(SchoolAffiliation(7, "Springfield High", 2014),),
    relationship_status="Single",
    interested_in="Men",
    birthday=Birthday(1994),
    hometown="Springfield",
    current_city="Shelbyville",
    employer="Kwik-E-Mart",
    graduate_school="State U",
    photo_count=12,
    wall_posts=[WallPost(3, "hi"), WallPost(4, "yo")],
    contact_info=ContactInfo(email="pat@example.com", phone="555-0100"),
)

#: Registered birth instants around the 18th birthday at NOW (2012.25):
#: 1994.25 turns 18 exactly at NOW, so it is an adult.
_birthdays = st.builds(
    Birthday,
    year=st.sampled_from([1993, 1994, 1995]),
    fraction=st.sampled_from([0.0, 0.2499999, 0.25, 0.2500001, 0.5, 0.99])
    | st.floats(0.0, 0.999, allow_nan=False),
)
_audiences = st.sampled_from(Audience)
_settings = st.builds(
    PrivacySettings,
    audiences=st.dictionaries(st.sampled_from(ProfileField), _audiences),
    default=_audiences,
    public_search=st.booleans(),
    message_audience=_audiences,
)
_policies = st.sampled_from([facebook_policy(), googleplus_policy()])


class TestDecideOncePerView:
    @given(
        policy=_policies,
        birthday=_birthdays,
        settings_=_settings,
        rel=st.sampled_from(Relationship),
        disabled=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_field_answers(self, policy, birthday, settings_, rel, disabled):
        account = Account(
            user_id=9,
            profile=_FULL_PROFILE,
            registered_birthday=birthday,
            real_birthday=birthday,
            settings=settings_,
            disabled=disabled,
        )
        minor_ = policy.is_registered_minor(account, NOW)
        for field_ in ProfileField:
            reference = reference_effective_audience(policy, account, field_, NOW)
            assert policy.effective_audience(account, field_, NOW, minor=minor_) is reference
            assert policy.effective_audience(account, field_, NOW) is reference
            assert policy.field_visible_to(
                account, field_, rel, NOW, minor=minor_
            ) == policy.field_visible_to(account, field_, rel, NOW)
        one_pass = policy.visible_fields(account, rel, NOW, minor=minor_)
        assert one_pass == {
            f
            for f in ProfileField
            if rel.satisfies(reference_effective_audience(policy, account, f, NOW))
        }
        assert one_pass == {
            f for f in ProfileField if policy.field_visible_to(account, f, rel, NOW)
        }
        assert policy.visible_fields(account, rel, NOW) == one_pass
        assert policy.message_button_visible(
            account, rel, NOW, minor=minor_
        ) == policy.message_button_visible(account, rel, NOW)
        assert policy.public_search_eligible(
            account, NOW, minor=minor_
        ) == policy.public_search_eligible(account, NOW)
        assert render_profile_view(policy, account, rel, NOW) == (
            reference_render_profile_view(policy, account, rel, NOW)
        )

    def test_the_boundary_instant_is_adult(self):
        account = _account(1994, PrivacySettings.everything_public())
        assert Birthday(1994, 0.25).age_at(NOW) == 18.0
        account.registered_birthday = Birthday(1994, 0.25)
        assert not facebook_policy().is_registered_minor(account, NOW)
        account.registered_birthday = Birthday(1994, 0.2500001)
        assert facebook_policy().is_registered_minor(account, NOW)

    @pytest.mark.parametrize("registered_year", [1985, 1997])
    def test_a_view_decides_minor_status_once(self, monkeypatch, registered_year):
        calls = []
        decide = SitePolicy.is_registered_minor

        def counted(self, account, now_year):
            calls.append(account.user_id)
            return decide(self, account, now_year)

        monkeypatch.setattr(SitePolicy, "is_registered_minor", counted)
        account = _account(registered_year, PrivacySettings.everything_public())
        account.profile = _FULL_PROFILE
        view = render_profile_view(facebook_policy(), account, Relationship.STRANGER, NOW)
        assert calls == [1]
        assert (view.hometown is not None) == (registered_year == 1985)

    @pytest.mark.parametrize("registered_year", [1985, 1997])
    def test_a_view_asks_for_its_visible_fields_once(self, monkeypatch, registered_year):
        asked = []
        visible_fields = SitePolicy.visible_fields

        def counted(self, account, rel, now_year, *, minor=None):
            asked.append(minor)
            return visible_fields(self, account, rel, now_year, minor=minor)

        monkeypatch.setattr(SitePolicy, "visible_fields", counted)
        account = _account(registered_year, PrivacySettings.everything_public())
        render_profile_view(facebook_policy(), account, Relationship.STRANGER, NOW)
        assert asked == [registered_year == 1997]

    @pytest.mark.parametrize("rel", list(Relationship))
    def test_each_relationship_sees_every_wider_audience(self, rel):
        """The one-pass set's exactness argument: ``satisfies`` is
        monotone in the audience, so a viewer sees ``min(chosen, cap)``
        exactly when they see both."""
        for narrow in Audience:
            for wide in Audience:
                if wide >= narrow and rel.satisfies(narrow):
                    assert rel.satisfies(wide)
