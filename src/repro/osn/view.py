"""What a viewer actually sees: rendered profile views.

A :class:`ProfileView` is the policy-filtered projection of an account's
profile for one particular viewer.  The crawler only ever receives
(an HTML rendering of) these views — never raw accounts — which keeps
the attack honestly black-box.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from .privacy import MINIMAL_FIELDS, ProfileField
from .profile import Gender, SchoolAffiliation


@dataclass(frozen=True)
class WallPostView:
    """A wall post as a stranger sees it: author id plus text.

    Author ids on public walls are the observable *interaction graph*
    the paper's cited optimizations build on.
    """

    author_id: int
    text: str


@dataclass(frozen=True)
class ProfileView:
    """A single profile as seen by one viewer.

    Any attribute the viewer may not see is ``None`` (or an empty tuple
    for collections).  ``friend_list_visible`` indicates whether the
    friends page exists for this viewer; the actual list is fetched
    separately (it is paginated).
    """

    user_id: int
    name: str
    gender: Optional[Gender] = None
    networks: Tuple[str, ...] = ()
    has_profile_photo: bool = False
    high_schools: Tuple[SchoolAffiliation, ...] = ()
    relationship_status: Optional[str] = None
    interested_in: Optional[str] = None
    birthday_year: Optional[int] = None
    hometown: Optional[str] = None
    current_city: Optional[str] = None
    employer: Optional[str] = None
    graduate_school: Optional[str] = None
    photo_count: Optional[int] = None
    wall_post_count: Optional[int] = None
    wall_posts: Tuple[WallPostView, ...] = ()
    contact_email: Optional[str] = None
    contact_phone: Optional[str] = None
    friend_list_visible: bool = False
    message_button: bool = False
    public_search_listed: bool = False

    def visible_field_names(self) -> Tuple[str, ...]:
        """Names of extended fields present in this view (for reports)."""
        present = []
        if self.high_schools:
            present.append(ProfileField.HIGH_SCHOOL.value)
        if self.relationship_status is not None:
            present.append(ProfileField.RELATIONSHIP.value)
        if self.interested_in is not None:
            present.append(ProfileField.INTERESTED_IN.value)
        if self.birthday_year is not None:
            present.append(ProfileField.BIRTHDAY.value)
        if self.hometown is not None:
            present.append(ProfileField.HOMETOWN.value)
        if self.current_city is not None:
            present.append(ProfileField.CURRENT_CITY.value)
        if self.employer is not None:
            present.append(ProfileField.EMPLOYER.value)
        if self.graduate_school is not None:
            present.append(ProfileField.GRADUATE_SCHOOL.value)
        if self.photo_count is not None:
            present.append(ProfileField.PHOTOS.value)
        if self.wall_post_count is not None:
            present.append(ProfileField.WALL.value)
        if self.contact_email is not None or self.contact_phone is not None:
            present.append(ProfileField.CONTACT_INFO.value)
        if self.friend_list_visible:
            present.append(ProfileField.FRIEND_LIST.value)
        return tuple(present)

    def is_minimal(self) -> bool:
        """Whether this view contains only "minimal information".

        The paper's Section 3.1 definition: at most name, profile photo,
        networks and gender are visible, and the Message button is
        absent.  The without-COPPA heuristic (Section 7.1 step 3) keys on
        exactly this predicate.
        """
        return not self.visible_field_names() and not self.message_button

    def claims_current_student(self, school_id: int, current_year: int) -> bool:
        """Whether the view self-identifies as a current student of ``school_id``."""
        affiliation = next(
            (a for a in self.high_schools if a.school_id == school_id), None
        )
        return affiliation is not None and affiliation.is_current_student(current_year)


_VIEW_FIELD_NAMES = frozenset(f.name for f in fields(ProfileView))


def build_profile_view(**values: Any) -> ProfileView:
    """A :class:`ProfileView` from all of its fields, without ``__init__``.

    The frozen ``__init__`` stores each of the 21 fields with its own
    ``object.__setattr__`` call; this fills the new instance's
    ``__dict__`` in one ``dict.update``.  The result is the same view:
    equality, hash, ``repr`` and ``dataclasses.asdict`` read the same
    attributes, and assignment still raises ``FrozenInstanceError``.
    Every field must be given, by its own name (defaults are not filled
    in); anything else raises ``TypeError``.
    """
    if values.keys() != _VIEW_FIELD_NAMES:
        missing = sorted(_VIEW_FIELD_NAMES - values.keys())
        unknown = sorted(values.keys() - _VIEW_FIELD_NAMES)
        raise TypeError(f"ProfileView fields missing: {missing}; unknown: {unknown}")
    view = object.__new__(ProfileView)
    view.__dict__.update(values)
    return view


#: Field names that belong to the minimal-information set, as strings.
MINIMAL_FIELD_NAMES = frozenset(f.value for f in MINIMAL_FIELDS)
