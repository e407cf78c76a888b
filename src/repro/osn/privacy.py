"""Privacy primitives: audiences, profile fields and per-user settings.

Facebook (2012) let each user choose, per profile field, who may see it.
We model four audience levels plus the two switches the paper's attack
cares about: whether the profile is *publicly searchable* and whether
strangers see a *Message* button (Table 5 reports both).

The site *policy* (``repro.osn.policy``) then caps what these settings
can expose to strangers: for a registered minor, no setting can make more
than the "minimal information" visible (paper, Section 3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping

__all__ = [
    "Audience",
    "PrivacySettings",
    "ProfileField",
    "Relationship",
    "most_private",
]


class Audience(enum.IntEnum):
    """Who may see a profile field, ordered from most to least private.

    The ordering is meaningful: ``min(setting, cap)`` computes the
    effective audience once the site policy caps a field.
    """

    ONLY_ME = 0
    FRIENDS = 1
    FRIENDS_OF_FRIENDS = 2
    PUBLIC = 3


class Relationship(enum.IntEnum):
    """The viewer's relationship to a profile owner, from the owner's side.

    ``STRANGER`` matches the paper's definition (Section 3): not a friend,
    no mutual friends, and no shared school/work network.  A stranger who
    *does* share a network is a ``NETWORK_MEMBER`` and is slightly more
    privileged on 2012-era Facebook; the attack assumes plain strangers.
    """

    STRANGER = 0
    NETWORK_MEMBER = 1
    FRIEND_OF_FRIEND = 2
    FRIEND = 3
    SELF = 4

    def satisfies(self, audience: Audience) -> bool:
        """Whether this relationship is allowed to see ``audience`` content."""
        if self is Relationship.SELF:
            return True
        if audience is Audience.PUBLIC:
            return True
        if audience is Audience.FRIENDS_OF_FRIENDS:
            return self in (Relationship.FRIEND, Relationship.FRIEND_OF_FRIEND)
        if audience is Audience.FRIENDS:
            return self is Relationship.FRIEND
        return False  # ONLY_ME


class ProfileField(str, enum.Enum):
    """Every profile attribute the attack observes or infers.

    The first four form the paper's "minimal information" set; the rest
    are only ever exposed by registered adults (on Facebook).
    """

    NAME = "name"
    GENDER = "gender"
    NETWORKS = "networks"
    PROFILE_PHOTO = "profile_photo"
    HIGH_SCHOOL = "high_school"           # affiliation incl. grad year
    RELATIONSHIP = "relationship"
    INTERESTED_IN = "interested_in"
    BIRTHDAY = "birthday"
    HOMETOWN = "hometown"
    CURRENT_CITY = "current_city"
    FRIEND_LIST = "friend_list"
    PHOTOS = "photos"
    WALL = "wall"
    CONTACT_INFO = "contact_info"
    EMPLOYER = "employer"
    GRADUATE_SCHOOL = "graduate_school"
    # Google+-specific field (Table 6); absent from Facebook profiles.
    CIRCLES = "circles"


#: The fields a stranger may see on ANY profile ("minimal information",
#: paper Section 3.1): name, profile photo, networks joined, and gender.
MINIMAL_FIELDS = frozenset(
    {
        ProfileField.NAME,
        ProfileField.GENDER,
        ProfileField.NETWORKS,
        ProfileField.PROFILE_PHOTO,
    }
)

#: Fields beyond the minimal set, in a stable display order.
EXTENDED_FIELDS = tuple(f for f in ProfileField if f not in MINIMAL_FIELDS)


@dataclass(frozen=True, slots=True)
class PrivacySettings:
    """A user's chosen (not necessarily effective) privacy configuration.

    ``audiences`` maps each :class:`ProfileField` to the audience the user
    picked; fields absent from the mapping fall back to ``default``.
    ``public_search`` controls whether the profile may appear in public
    search engines and the OSN's own people search; ``message_audience``
    controls who sees the "Message" button.
    """

    audiences: Mapping[ProfileField, Audience] = field(default_factory=dict)
    default: Audience = Audience.FRIENDS
    public_search: bool = True
    message_audience: Audience = Audience.PUBLIC

    def audience_for(self, field_: ProfileField) -> Audience:
        """The audience the user chose for ``field_``."""
        return self.audiences.get(field_, self.default)

    def with_field(self, field_: ProfileField, audience: Audience) -> "PrivacySettings":
        """A copy with one field's audience replaced."""
        updated: Dict[ProfileField, Audience] = dict(self.audiences)
        updated[field_] = audience
        return replace(self, audiences=updated)

    def with_fields(
        self, assignments: Mapping[ProfileField, Audience]
    ) -> "PrivacySettings":
        """A copy with several fields' audiences replaced."""
        updated: Dict[ProfileField, Audience] = dict(self.audiences)
        updated.update(assignments)
        return replace(self, audiences=updated)

    @classmethod
    def everything_public(cls) -> "PrivacySettings":
        """The worst-case (maximum sharing) configuration from Table 1."""
        return cls(
            audiences={f: Audience.PUBLIC for f in ProfileField},
            default=Audience.PUBLIC,
            public_search=True,
            message_audience=Audience.PUBLIC,
        )

    @classmethod
    def everything_private(cls) -> "PrivacySettings":
        """A fully locked-down configuration (ONLY_ME everywhere)."""
        return cls(
            audiences={f: Audience.ONLY_ME for f in ProfileField},
            default=Audience.ONLY_ME,
            public_search=False,
            message_audience=Audience.ONLY_ME,
        )

    @classmethod
    def facebook_adult_default_2012(cls) -> "PrivacySettings":
        """The default configuration for registered adults (Table 1).

        In 2012 the default adult profile exposed name/photo/gender/
        networks, school affiliations, relationship status, "interested
        in", hometown, current city, the friend list and (tagged) photos
        to everyone; birthday and contact information defaulted to
        friends-only.
        """
        public = {
            ProfileField.NAME: Audience.PUBLIC,
            ProfileField.GENDER: Audience.PUBLIC,
            ProfileField.NETWORKS: Audience.PUBLIC,
            ProfileField.PROFILE_PHOTO: Audience.PUBLIC,
            ProfileField.HIGH_SCHOOL: Audience.PUBLIC,
            ProfileField.RELATIONSHIP: Audience.PUBLIC,
            ProfileField.INTERESTED_IN: Audience.PUBLIC,
            ProfileField.HOMETOWN: Audience.PUBLIC,
            ProfileField.CURRENT_CITY: Audience.PUBLIC,
            ProfileField.FRIEND_LIST: Audience.PUBLIC,
            ProfileField.PHOTOS: Audience.PUBLIC,
            ProfileField.EMPLOYER: Audience.PUBLIC,
            ProfileField.GRADUATE_SCHOOL: Audience.PUBLIC,
            ProfileField.BIRTHDAY: Audience.FRIENDS,
            ProfileField.CONTACT_INFO: Audience.FRIENDS,
            ProfileField.WALL: Audience.FRIENDS,
        }
        return cls(
            audiences=public,
            default=Audience.FRIENDS,
            public_search=True,
            message_audience=Audience.PUBLIC,
        )

    @classmethod
    def facebook_minor_default_2012(cls) -> "PrivacySettings":
        """The default configuration for registered minors (Table 1).

        Registered minors default to friends-of-friends for most content;
        the site policy additionally caps what strangers can ever see.
        """
        audiences = {f: Audience.FRIENDS_OF_FRIENDS for f in ProfileField}
        audiences.update(
            {
                ProfileField.NAME: Audience.PUBLIC,
                ProfileField.GENDER: Audience.PUBLIC,
                ProfileField.NETWORKS: Audience.PUBLIC,
                ProfileField.PROFILE_PHOTO: Audience.PUBLIC,
                ProfileField.BIRTHDAY: Audience.FRIENDS,
                ProfileField.CONTACT_INFO: Audience.FRIENDS,
            }
        )
        return cls(
            audiences=audiences,
            default=Audience.FRIENDS_OF_FRIENDS,
            public_search=False,
            message_audience=Audience.FRIENDS_OF_FRIENDS,
        )


def most_private(settings: Iterable[Audience]) -> Audience:
    """The strictest audience among ``settings`` (helper for caps)."""
    return min(settings, default=Audience.PUBLIC)
