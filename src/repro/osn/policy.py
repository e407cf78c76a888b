"""Site policy engines: how an OSN treats registered minors.

This module encodes, as executable policy, the behaviour the paper
documents for Facebook (Table 1, Section 3.1) and Google+ (Table 6,
Appendix A):

* a minimum registration age (13, the COPPA-avoidance ban);
* what a registered minor's profile can ever expose to strangers,
  regardless of the minor's own settings;
* whether registered minors appear in people search by school/city;
* whether strangers see a "Message" button on a minor's profile.

The policies are *data plus a small amount of logic*, so the analysis
layer can regenerate the paper's policy tables (1 and 6) directly from
the same object the simulator enforces — the table is then guaranteed to
describe actual behaviour, not documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Optional, Tuple

from .errors import PolicyError
from .privacy import (
    MINIMAL_FIELDS,
    Audience,
    PrivacySettings,
    ProfileField,
    Relationship,
)
from .user import Account

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: The audiences each relationship sees, read off
#: :meth:`Relationship.satisfies` once.
_SEEN_BY: Dict[Relationship, FrozenSet[Audience]] = {
    rel: frozenset(a for a in Audience if rel.satisfies(a)) for rel in Relationship
}


@dataclass(frozen=True)
class SitePolicy:
    """Immutable description of an OSN's minor-protection rules.

    Parameters
    ----------
    name:
        Human-readable site name ("facebook", "googleplus").
    minimum_registration_age:
        Registrations with a registered age below this are rejected
        (the COPPA-avoidance ban; 13 for both sites studied).
    adult_age:
        Users at or above this *registered* age are registered adults.
    minor_stranger_cap:
        Fields a registered minor's profile may expose to strangers, at
        most.  For Facebook this is the minimal-information set; for
        Google+ it is much wider (minors may opt into sharing school,
        city, relationship, photos, even phone numbers publicly).
    minor_nonstranger_cap_audience:
        The widest audience a minor may select for non-minimal fields.
        Facebook caps minors at friends-of-friends.
    minors_in_school_search:
        Whether people search by school/city returns registered minors.
        ``False`` for both sites — the precaution the attack circumvents.
    minors_messageable_by_strangers:
        Whether strangers ever see the "Message" button on a registered
        minor's profile.  ``False`` on Facebook.
    minors_in_public_search:
        Whether a registered minor may enable public-search indexing.
    default_minor_settings / default_adult_settings:
        The settings a fresh account receives, used both by the world
        generator and to regenerate the "default" columns of the policy
        tables.
    """

    name: str
    minimum_registration_age: float
    adult_age: float
    minor_stranger_cap: FrozenSet[ProfileField]
    minor_nonstranger_cap_audience: Audience
    minors_in_school_search: bool
    minors_messageable_by_strangers: bool
    minors_in_public_search: bool
    default_minor_settings: PrivacySettings
    default_adult_settings: PrivacySettings
    #: Derived from the fields above; see ``__post_init__``.
    _caps: Tuple[Dict[ProfileField, Audience], ...] = field(
        init=False, repr=False, compare=False
    )
    _cap_seen: Tuple[Dict[Relationship, Tuple[ProfileField, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The minor cap, and its one copy: the widest audience each field
        # of an owner's profile can reach, indexed by the owner's minor
        # status.  A registered minor's fields outside
        # ``minor_stranger_cap`` reach at most
        # ``minor_nonstranger_cap_audience``; every other field, and every
        # field of an adult, may reach the public.
        adult = dict.fromkeys(ProfileField, Audience.PUBLIC)
        minor = {
            f: Audience.PUBLIC
            if f in self.minor_stranger_cap
            else self.minor_nonstranger_cap_audience
            for f in ProfileField
        }
        object.__setattr__(self, "_caps", (adult, minor))
        # Read off the same table: the fields whose cap each relationship
        # sees, indexed by the owner's minor status.
        object.__setattr__(
            self,
            "_cap_seen",
            tuple(
                {
                    rel: tuple(f for f, cap in caps.items() if cap in seen)
                    for rel, seen in _SEEN_BY.items()
                }
                for caps in (adult, minor)
            ),
        )

    # ------------------------------------------------------------------
    # Registration / classification
    # ------------------------------------------------------------------
    def registration_allowed(self, registered_age: float) -> bool:
        """Whether an account with this registered age may be created."""
        return registered_age >= self.minimum_registration_age

    def is_registered_minor(self, account: Account, now_year: float) -> bool:
        """Whether the site treats ``account`` as a minor at ``now_year``.

        Every minor rule below keys on this one decision.  The
        visibility, Message-button and public-search methods take it as
        an optional keyword-only ``minor``: a caller that asks several
        questions about one owner (a profile view asks three) decides it
        once and passes it on; left out, the method decides it itself.
        """
        return account.is_registered_minor(now_year, adult_age=self.adult_age)

    # ------------------------------------------------------------------
    # Field visibility
    # ------------------------------------------------------------------
    def effective_audience(
        self,
        account: Account,
        field_: ProfileField,
        now_year: float,
        *,
        minor: Optional[bool] = None,
    ) -> Audience:
        """The audience a field is actually shared with, after policy caps.

        For registered adults the user's setting stands.  For registered
        minors the site caps every field: fields outside
        ``minor_stranger_cap`` can never reach strangers, so their
        effective audience is at most ``minor_nonstranger_cap_audience``.
        """
        chosen = account.settings.audience_for(field_)
        if minor is None:
            minor = self.is_registered_minor(account, now_year)
        return min(chosen, self._caps[minor][field_])

    def field_visible_to(
        self,
        account: Account,
        field_: ProfileField,
        relationship: Relationship,
        now_year: float,
        *,
        minor: Optional[bool] = None,
    ) -> bool:
        """Whether a viewer with ``relationship`` sees ``field_``."""
        audience = self.effective_audience(account, field_, now_year, minor=minor)
        return relationship.satisfies(audience)

    def visible_fields(
        self,
        account: Account,
        relationship: Relationship,
        now_year: float,
        *,
        minor: Optional[bool] = None,
    ) -> AbstractSet[ProfileField]:
        """Every field a viewer with ``relationship`` sees, in one pass.

        Exactly the fields for which :meth:`field_visible_to` answers
        ``True``: a viewer who sees an audience sees every wider one, so
        they see ``min(chosen, cap)`` exactly when they see both the
        field's cap and the owner's chosen audience.  The fields whose
        cap the viewer sees are precomputed, so only their chosen
        audiences are read.
        """
        if minor is None:
            minor = self.is_registered_minor(account, now_year)
        seen = _SEEN_BY[relationship]
        # ``PrivacySettings.audience_for`` without a Python call per
        # field: a field the owner never set takes the default.
        chosen = account.settings.audiences.get
        default = account.settings.default
        return {f for f in self._cap_seen[minor][relationship] if chosen(f, default) in seen}

    def message_button_visible(
        self,
        account: Account,
        relationship: Relationship,
        now_year: float,
        *,
        minor: Optional[bool] = None,
    ) -> bool:
        """Whether the viewer sees the "Message" button.

        Table 5 reports the Message link for minors registered as adults;
        for registered minors the button is *never* shown to strangers
        (Section 3.1).
        """
        if relationship is Relationship.SELF:
            return False
        if minor is None:
            minor = self.is_registered_minor(account, now_year)
        if (
            minor
            and not self.minors_messageable_by_strangers
            and relationship in (Relationship.STRANGER, Relationship.NETWORK_MEMBER)
        ):
            return False
        return relationship.satisfies(account.settings.message_audience)

    # ------------------------------------------------------------------
    # Search eligibility
    # ------------------------------------------------------------------
    def school_search_eligible(self, account: Account, now_year: float) -> bool:
        """Whether people search by school/city may return this account.

        The paper verified with ground truth that neither the Find
        Friends Portal nor Graph Search ever returns registered minors.
        """
        if account.disabled:
            return False
        if self.is_registered_minor(account, now_year):
            return self.minors_in_school_search
        return account.settings.public_search

    def school_search_mask(
        self,
        birth_year: "np.ndarray",
        birth_fraction: "np.ndarray",
        public_search: "np.ndarray",
        now_year: float,
    ) -> "np.ndarray":
        """:meth:`school_search_eligible` over parallel account columns.

        ``birth_year``/``birth_fraction`` hold registered birthdays and
        ``public_search`` the accounts' public-search flags.  The
        registered instant is summed in float64 exactly as
        ``Birthday.as_year_fraction`` sums it, so every element equals
        the scalar predicate's answer for that account.  Columns carry
        no ``disabled`` flag: column-served accounts are never disabled.
        """
        instant = birth_year.astype("f8") + birth_fraction.astype("f8")
        minor = now_year - instant < self.adult_age
        if self.minors_in_school_search:
            return minor | public_search
        return ~minor & public_search

    def public_search_eligible(
        self, account: Account, now_year: float, *, minor: Optional[bool] = None
    ) -> bool:
        """Whether external search engines may index this profile."""
        if account.disabled or not account.settings.public_search:
            return False
        if minor is None:
            minor = self.is_registered_minor(account, now_year)
        if minor:
            return self.minors_in_public_search
        return True

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Sanity-check internal consistency (used by tests)."""
        if self.minimum_registration_age > self.adult_age:
            raise PolicyError(
                f"{self.name}: minimum registration age above adult age"
            )
        if not MINIMAL_FIELDS <= self.minor_stranger_cap:
            raise PolicyError(
                f"{self.name}: minimal fields must be stranger-visible for minors"
            )


# ----------------------------------------------------------------------
# Concrete policies
# ----------------------------------------------------------------------

def facebook_policy() -> SitePolicy:
    """Facebook's 2012/2013 minor policy as documented in the paper.

    A stranger visiting a registered minor's profile sees at most name,
    profile photo, networks and gender; the Message button is never
    shown; minors never appear in school/city search or public search
    (Section 3.1, Table 1).
    """
    return SitePolicy(
        name="facebook",
        minimum_registration_age=13.0,
        adult_age=18.0,
        minor_stranger_cap=frozenset(MINIMAL_FIELDS),
        minor_nonstranger_cap_audience=Audience.FRIENDS_OF_FRIENDS,
        minors_in_school_search=False,
        minors_messageable_by_strangers=False,
        minors_in_public_search=False,
        default_minor_settings=PrivacySettings.facebook_minor_default_2012(),
        default_adult_settings=PrivacySettings.facebook_adult_default_2012(),
    )


def googleplus_policy() -> SitePolicy:
    """Google+'s minor policy as documented in Appendix A (Table 6).

    Google+ defaults are protective, but unlike Facebook a minor *may*
    opt into exposing school, hometown, city, relationship, photos,
    circles and even phone numbers publicly (the worst-case column of
    Table 6 has many checks for registered minors).  Minors are still
    excluded from search by school.
    """
    minor_cap = frozenset(
        set(MINIMAL_FIELDS)
        | {
            ProfileField.EMPLOYER,
            ProfileField.HIGH_SCHOOL,
            ProfileField.HOMETOWN,
            ProfileField.CURRENT_CITY,
            ProfileField.RELATIONSHIP,
            ProfileField.INTERESTED_IN,
            ProfileField.BIRTHDAY,
            ProfileField.PHOTOS,
            ProfileField.CONTACT_INFO,
            ProfileField.CIRCLES,
        }
    )
    minor_defaults = PrivacySettings(
        audiences={
            ProfileField.NAME: Audience.PUBLIC,
            ProfileField.PROFILE_PHOTO: Audience.PUBLIC,
        },
        default=Audience.FRIENDS,  # "your circles"
        public_search=False,
        message_audience=Audience.FRIENDS,
    )
    adult_defaults = PrivacySettings(
        audiences={
            ProfileField.NAME: Audience.PUBLIC,
            ProfileField.PROFILE_PHOTO: Audience.PUBLIC,
            ProfileField.GENDER: Audience.PUBLIC,
            ProfileField.EMPLOYER: Audience.PUBLIC,
            ProfileField.HIGH_SCHOOL: Audience.PUBLIC,
            ProfileField.HOMETOWN: Audience.PUBLIC,
            ProfileField.CURRENT_CITY: Audience.PUBLIC,
            ProfileField.CIRCLES: Audience.PUBLIC,
        },
        default=Audience.FRIENDS,
        public_search=True,
        message_audience=Audience.PUBLIC,
    )
    return SitePolicy(
        name="googleplus",
        minimum_registration_age=13.0,
        adult_age=18.0,
        minor_stranger_cap=minor_cap,
        minor_nonstranger_cap_audience=Audience.PUBLIC,
        minors_in_school_search=False,
        minors_messageable_by_strangers=False,
        minors_in_public_search=True,
        default_minor_settings=minor_defaults,
        default_adult_settings=adult_defaults,
    )


def policy_by_name(name: str) -> SitePolicy:
    """Look up a built-in policy by site name."""
    policies = {"facebook": facebook_policy, "googleplus": googleplus_policy}
    try:
        return policies[name]()
    except KeyError:
        raise PolicyError(f"unknown site policy: {name!r}") from None
