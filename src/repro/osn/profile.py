"""Profile data carried by an OSN account.

A profile stores what the user *entered*; visibility is decided elsewhere
(``repro.osn.network`` consults the policy engine).  Fields mirror the
attributes the paper's crawler extracts from public profile pages:
name, gender, networks, profile photo, school affiliations with class
year, relationship status, "interested in", birthday, hometown, current
city, photos, wall posts and contact information (Tables 1 and 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Gender(str, enum.Enum):
    FEMALE = "female"
    MALE = "male"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True, slots=True)
class Name:
    """A user's display name."""

    first: str
    last: str

    @property
    def full(self) -> str:
        return f"{self.first} {self.last}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.full


@dataclass(frozen=True, slots=True)
class SchoolAffiliation:
    """A school listed on a profile, with its class (graduation) year.

    ``graduation_year`` is what the user typed; a current student lists
    the current year or a future year (paper, Section 4.1 step 2), an
    alumnus lists a past year.  ``graduation_year`` may be ``None`` when
    the user listed the school without a class year; such users cannot be
    core users because the attack needs the year.
    """

    school_id: int
    school_name: str
    graduation_year: Optional[int] = None

    def is_current_student(self, current_year: int) -> bool:
        """Whether this affiliation claims *current* enrolment.

        Mirrors the paper's rule: the listed graduation year is the
        current year or a future year.
        """
        return self.graduation_year is not None and self.graduation_year >= current_year


@dataclass(frozen=True, slots=True)
class Birthday:
    """A (registered) birth date at day granularity.

    We track the year exactly and the day-of-year approximately via a
    fractional component; the attack only ever uses the year.
    """

    year: int
    fraction: float = 0.5  # mid-year by default

    @property
    def as_year_fraction(self) -> float:
        return self.year + self.fraction

    def age_at(self, now_year_fraction: float) -> float:
        return now_year_fraction - self.as_year_fraction


@dataclass(frozen=True, slots=True)
class ContactInfo:
    """Contact details some adults expose (Table 5 'contact information')."""

    email: Optional[str] = None
    phone: Optional[str] = None
    im_screen_name: Optional[str] = None
    street_address: Optional[str] = None

    def is_empty(self) -> bool:
        return not any((self.email, self.phone, self.im_screen_name, self.street_address))


@dataclass(frozen=True, slots=True)
class WallPost:
    """A single wall posting (author and a short text)."""

    author_id: int
    text: str


@dataclass(slots=True)
class Profile:
    """Everything a user entered on their profile.

    ``high_schools`` is a tuple because users occasionally list more than
    one high school (the Section 4.4 "different high school" filter rule
    exploits exactly that).  ``photo_count`` stands in for the shared
    photo albums the paper counts in Table 5; we do not model image
    bytes, only their existence and count.
    """

    name: Name
    gender: Gender = Gender.UNSPECIFIED
    networks: Tuple[str, ...] = ()
    has_profile_photo: bool = True
    high_schools: Tuple[SchoolAffiliation, ...] = ()
    relationship_status: Optional[str] = None
    interested_in: Optional[str] = None
    birthday: Optional[Birthday] = None
    hometown: Optional[str] = None
    current_city: Optional[str] = None
    employer: Optional[str] = None
    graduate_school: Optional[str] = None
    photo_count: int = 0
    wall_posts: List[WallPost] = field(default_factory=list)
    contact_info: Optional[ContactInfo] = None

    def primary_high_school(self) -> Optional[SchoolAffiliation]:
        """The most recently listed high school, if any."""
        return self.high_schools[-1] if self.high_schools else None

    def lists_school(self, school_id: int) -> bool:
        return any(a.school_id == school_id for a in self.high_schools)

    def affiliation_for(self, school_id: int) -> Optional[SchoolAffiliation]:
        for affiliation in self.high_schools:
            if affiliation.school_id == school_id:
                return affiliation
        return None
