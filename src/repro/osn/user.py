"""OSN accounts.

An :class:`Account` separates two birth dates:

``real_birthday``
    Ground truth, known only to the simulation (and to our evaluation
    code).  No OSN interface ever exposes it.

``registered_birthday``
    What the user typed at sign-up.  The COPPA-driven under-13 ban means
    many children lie here (paper, Section 1), and *everything* the site
    does — search eligibility, the minor privacy policy, the public
    profile — keys off this registered date.  The gap between the two
    dates is precisely what the paper's attack exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .privacy import PrivacySettings
from .profile import Birthday, Profile


@dataclass(slots=True)
class Account:
    """A registered OSN user.

    ``person_id`` links back to the world generator's ground-truth person
    (``None`` for accounts created directly, e.g. the attacker's fake
    crawl accounts).  Friendships live only in the network's graph.
    """

    user_id: int
    profile: Profile
    registered_birthday: Birthday
    real_birthday: Birthday
    settings: PrivacySettings = field(default_factory=PrivacySettings)
    person_id: Optional[int] = None
    created_at_year: float = 2008.0
    is_fake: bool = False
    disabled: bool = False

    def registered_age(self, now_year_fraction: float) -> float:
        """Age according to the birth date given at registration."""
        return self.registered_birthday.age_at(now_year_fraction)

    def real_age(self, now_year_fraction: float) -> float:
        """True age (ground truth; never exposed by the OSN)."""
        return self.real_birthday.age_at(now_year_fraction)

    def is_registered_minor(self, now_year_fraction: float, adult_age: float = 18.0) -> bool:
        """Whether the *site* believes this user is currently a minor."""
        return self.registered_age(now_year_fraction) < adult_age

    def is_actual_minor(self, now_year_fraction: float, adult_age: float = 18.0) -> bool:
        """Whether the user actually is a minor (ground truth)."""
        return self.real_age(now_year_fraction) < adult_age

    def lied_about_age(self) -> bool:
        """Whether the registered birth year differs from the real one."""
        return self.registered_birthday.year != self.real_birthday.year

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Account(id={self.user_id}, name={self.profile.name.full!r}, "
            f"reg_by={self.registered_birthday.year}, real_by={self.real_birthday.year})"
        )
