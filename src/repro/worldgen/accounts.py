"""Turn ground-truth people into OSN accounts.

This stage applies OSN adoption, the age-lying model, per-persona
profile content (which school/year/city people list) and privacy
behaviour (who makes friend lists public, who is searchable, who shares
photos).  The distributions are the calibration surface for the paper's
Table 5 and for the size of the core sets in Table 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.osn.network import School, SocialNetwork
from repro.osn.privacy import Audience, PrivacySettings, ProfileField
from repro.osn.profile import Birthday, ContactInfo, Profile, SchoolAffiliation, WallPost
from repro.osn.user import Account

from .config import WorldConfig
from .lying import RegistrationPlan, plan_registration
from .population import Person, Population, Role


@dataclass
class AccountIndex:
    """Mapping between ground-truth people and their OSN accounts."""

    person_to_user: Dict[int, int] = field(default_factory=dict)
    user_to_person: Dict[int, int] = field(default_factory=dict)

    def user_for(self, person_id: int) -> Optional[int]:
        return self.person_to_user.get(person_id)

    def person_for(self, user_id: int) -> Optional[int]:
        return self.user_to_person.get(user_id)

    def add(self, person_id: int, user_id: int) -> None:
        self.person_to_user[person_id] = user_id
        self.user_to_person[user_id] = person_id

    def __len__(self) -> int:
        return len(self.person_to_user)


class AccountFactory:
    """Creates accounts (with profiles and settings) for a population.

    Accounts share their frozen records. Each persona makes its privacy
    draws, then takes its settings from a per-factory table keyed by the
    settings template and every drawn choice; a miss builds the settings
    once through the :class:`PrivacySettings` constructors. A truthful
    registration's real birthday is its registered one, and year-only
    profile birthdays come from a per-year table. Settings and birthdays
    are frozen: an account's settings change only by replacing them.
    """

    def __init__(
        self,
        config: WorldConfig,
        population: Population,
        network: SocialNetwork,
        schools: List[School],
        rng: random.Random,
        noise_schools: Optional[List[School]] = None,
    ) -> None:
        self.config = config
        self.population = population
        self.network = network
        self.schools = schools
        self.noise_schools = noise_schools or []
        self.rng = rng
        self.index = AccountIndex()
        adoption = config.adoption
        self._p_adopts: Dict[Role, float] = {
            Role.STUDENT: adoption.p_student,
            Role.FORMER_STUDENT: adoption.p_former_student,
            Role.ALUMNUS: adoption.p_alumnus,
            Role.PARENT: 1.0,  # parents were only generated if on the OSN
            Role.CITY_ADULT: 0.8,
            Role.EXTERNAL: 1.0,
        }
        self._personas: Dict[Role, Callable[[Person, bool], Tuple[Profile, PrivacySettings]]] = {
            Role.STUDENT: self._student,
            Role.FORMER_STUDENT: self._former_student,
            Role.ALUMNUS: self._alumnus,
            Role.PARENT: self._parent,
            Role.CITY_ADULT: self._city_adult,
            Role.EXTERNAL: self._external,
        }
        self._settings: Dict[tuple, PrivacySettings] = {}
        self._year_birthdays: Dict[int, Birthday] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def build_all(self) -> AccountIndex:
        for person in self.population.people:
            if not self._adopts(person):
                continue
            plan = plan_registration(
                person, self.config.lying, self.config.observation_year, self.rng
            )
            if plan is None:
                continue
            self._create_account(person, plan)
        return self.index

    def _adopts(self, person: Person) -> bool:
        return self.rng.random() < self._p_adopts[person.role]

    # ------------------------------------------------------------------
    # Account creation
    # ------------------------------------------------------------------
    def _create_account(self, person: Person, plan: RegistrationPlan) -> Account:
        registered_adult_now = (
            plan.registered_age_at(self.config.observation_year)
            >= self.network.policy.adult_age
        )
        profile, settings = self._personas[person.role](person, registered_adult_now)
        if plan.lied:
            real_year = int(person.birth_year_fraction)
            real_birthday = Birthday(real_year, person.birth_year_fraction - real_year)
        else:
            # A truthful plan registered the real birth date:
            # lying._truthful_birthday builds it exactly as above.
            real_birthday = plan.registered_birthday
        account = self.network.register_account(
            profile=profile,
            registered_birthday=plan.registered_birthday,
            real_birthday=real_birthday,
            settings=settings,
            person_id=person.person_id,
            created_at_year=plan.creation_year,
            enforce_minimum_age=self.config.enforce_minimum_age,
        )
        self.index.add(person.person_id, account.user_id)
        return account

    # ------------------------------------------------------------------
    # Shared records
    # ------------------------------------------------------------------
    def _shared_settings(
        self, template: Callable[..., PrivacySettings], *choices: object
    ) -> PrivacySettings:
        """``template(*choices)``, built on the first request and shared after."""
        key = (template, *choices)
        settings = self._settings.get(key)
        if settings is None:
            settings = self._settings[key] = template(*choices)
        return settings

    def _year_birthday(self, person: Person) -> Birthday:
        """The year-only birthday a profile lists."""
        year = int(person.birth_year_fraction)
        birthday = self._year_birthdays.get(year)
        if birthday is None:
            birthday = self._year_birthdays[year] = Birthday(year)
        return birthday

    # ------------------------------------------------------------------
    # Persona helpers
    # ------------------------------------------------------------------
    def _school_for(self, person: Person) -> School:
        assert person.school_index is not None
        return self.schools[person.school_index]

    def _base_profile(self, person: Person) -> Profile:
        return Profile(name=person.name, gender=person.gender)

    @staticmethod
    def _skewed_count(rng: random.Random, mean: float) -> int:
        """A right-skewed non-negative count with the given mean."""
        if mean <= 0:
            return 0
        return int(rng.expovariate(1.0 / mean))

    # ------------------------------------------------------------------
    # Students
    # ------------------------------------------------------------------
    def _student(self, person: Person, registered_adult: bool) -> Tuple[Profile, PrivacySettings]:
        cfg = self.config.students
        school = self._school_for(person)
        profile = self._base_profile(person)

        if self.rng.random() < cfg.p_list_school:
            year = (
                person.cohort_year
                if self.rng.random() < cfg.p_list_grad_year
                else None
            )
            profile.high_schools = (
                SchoolAffiliation(school.school_id, school.name, year),
            )
        if self.rng.random() < cfg.p_current_city:
            profile.current_city = school.city
        if self.rng.random() < cfg.p_network_listed:
            profile.networks = (school.name,)
        profile.birthday = self._year_birthday(person)

        if registered_adult:
            return self._adult_registered_student(profile, cfg)
        return self._minor_registered_student(profile, cfg)

    def _adult_registered_student(self, profile, cfg) -> Tuple[Profile, PrivacySettings]:
        rng = self.rng
        profile.photo_count = self._skewed_count(rng, cfg.adult_photo_mean)
        if rng.random() < cfg.p_adult_relationship:
            profile.relationship_status = rng.choice(("Single", "In a relationship"))
        if rng.random() < cfg.p_adult_interested_in:
            profile.interested_in = rng.choice(("Men", "Women"))
        friend_list = (
            Audience.PUBLIC
            if rng.random() < cfg.p_adult_friend_list_public
            else Audience.FRIENDS
        )
        birthday = (
            Audience.PUBLIC
            if rng.random() < cfg.p_adult_birthday_public
            else Audience.FRIENDS
        )
        wall = (
            Audience.PUBLIC
            if rng.random() < self.config.activity.p_wall_public
            else Audience.FRIENDS
        )
        public_search = rng.random() < cfg.p_adult_public_search
        message = (
            Audience.PUBLIC
            if rng.random() < cfg.p_adult_message_public
            else Audience.FRIENDS
        )
        return profile, self._shared_settings(
            _adult_student_settings, friend_list, birthday, wall, public_search, message
        )

    def _minor_registered_student(self, profile, cfg) -> Tuple[Profile, PrivacySettings]:
        rng = self.rng
        profile.photo_count = self._skewed_count(rng, cfg.minor_photo_mean)
        friend_list = (
            Audience.FRIENDS if rng.random() < cfg.p_minor_friend_list_friends_only else None
        )
        return profile, self._shared_settings(_minor_settings, friend_list)

    # ------------------------------------------------------------------
    # Former students (transferred out; prime false-positive material)
    # ------------------------------------------------------------------
    def _former_student(
        self, person: Person, registered_adult: bool
    ) -> Tuple[Profile, PrivacySettings]:
        profile, settings = self._student(person, registered_adult)
        # They live elsewhere now; about half say so on their profile,
        # which is what the Section-4.4 current-city filter rule catches.
        if self.rng.random() < 0.55:
            profile.current_city = person.city
        else:
            profile.current_city = None
        return profile, settings

    # ------------------------------------------------------------------
    # Alumni
    # ------------------------------------------------------------------
    def _alumnus(self, person: Person, registered_adult: bool) -> Tuple[Profile, PrivacySettings]:
        cfg = self.config.alumni
        rng = self.rng
        school = self._school_for(person)
        profile = self._base_profile(person)
        if rng.random() < cfg.p_list_school:
            year = person.cohort_year if rng.random() < cfg.p_list_grad_year else None
            profile.high_schools = (
                SchoolAffiliation(school.school_id, school.name, year),
            )
        moved = rng.random() < cfg.p_moved_away
        if rng.random() < cfg.p_current_city:
            profile.current_city = "College Park" if moved else school.city
        if rng.random() < cfg.p_graduate_school:
            profile.graduate_school = rng.choice(
                ("State University", "City College", "Tech Institute")
            )
        if rng.random() < cfg.p_employer:
            profile.employer = rng.choice(
                ("Acme Corp", "Initech", "Globex", "Hooli", "Soylent Corp")
            )
        profile.photo_count = self._skewed_count(rng, cfg.photo_mean)
        profile.birthday = self._year_birthday(person)

        friend_list = (
            Audience.PUBLIC if rng.random() < cfg.p_friend_list_public else Audience.FRIENDS
        )
        public_search = rng.random() < cfg.p_public_search
        return profile, self._shared_settings(_alumnus_settings, friend_list, public_search)

    # ------------------------------------------------------------------
    # Parents / city adults / externals
    # ------------------------------------------------------------------
    def _parent(self, person: Person, registered_adult: bool) -> Tuple[Profile, PrivacySettings]:
        rng = self.rng
        profile = self._base_profile(person)
        if rng.random() < self.config.family.p_parent_lists_city:
            profile.current_city = person.city
        profile.photo_count = self._skewed_count(rng, 25.0)
        profile.birthday = self._year_birthday(person)
        friend_list = Audience.FRIENDS if rng.random() < 0.4 else None
        return profile, self._shared_settings(_adult_settings, friend_list)

    def _city_adult(self, person: Person, registered_adult: bool) -> Tuple[Profile, PrivacySettings]:
        rng = self.rng
        profile = self._base_profile(person)
        profile.current_city = person.city
        profile.photo_count = self._skewed_count(rng, 30.0)
        friend_list = Audience.FRIENDS if rng.random() < 0.35 else None
        return profile, self._shared_settings(_adult_settings, friend_list)

    def _external(self, person: Person, registered_adult: bool) -> Tuple[Profile, PrivacySettings]:
        cfg = self.config.externals
        rng = self.rng
        profile = self._base_profile(person)
        profile.photo_count = self._skewed_count(rng, 35.0)
        if self.noise_schools and rng.random() < cfg.p_lists_other_school:
            school = rng.choice(self.noise_schools)
            age_now = self.config.observation_year - person.birth_year_fraction
            grad_year = int(self.config.observation_year - age_now + 18.45)
            profile.high_schools = (
                SchoolAffiliation(school.school_id, school.name, grad_year),
            )
        if not registered_adult:
            # A real teenager elsewhere: minor defaults, minimal exposure.
            return profile, self._shared_settings(_minor_settings, None)
        if rng.random() < cfg.p_locked_down_adult:
            # Privacy-conscious adult: indistinguishable from a minor's
            # minimal profile — the Section-7 heuristic cannot tell them
            # apart, which is why its false-positive count explodes.
            public_search = rng.random() < 0.5
            return profile, self._shared_settings(_locked_down_settings, public_search)
        if rng.random() < 0.6:
            profile.current_city = person.city
        friend_list = (
            Audience.PUBLIC
            if rng.random() < cfg.p_friend_list_public_adult
            else Audience.FRIENDS
        )
        return profile, self._shared_settings(_adult_settings, friend_list)


# ----------------------------------------------------------------------
# Settings templates: each builds one configuration from a persona's
# drawn choices; a friend-list choice of ``None`` keeps the default.
# ----------------------------------------------------------------------
def _adult_settings(friend_list: Optional[Audience]) -> PrivacySettings:
    settings = PrivacySettings.facebook_adult_default_2012()
    if friend_list is not None:
        settings = settings.with_field(ProfileField.FRIEND_LIST, friend_list)
    return settings


def _minor_settings(friend_list: Optional[Audience]) -> PrivacySettings:
    settings = PrivacySettings.facebook_minor_default_2012()
    if friend_list is not None:
        settings = settings.with_field(ProfileField.FRIEND_LIST, friend_list)
    return settings


def _adult_student_settings(
    friend_list: Audience,
    birthday: Audience,
    wall: Audience,
    public_search: bool,
    message: Audience,
) -> PrivacySettings:
    settings = PrivacySettings.facebook_adult_default_2012().with_fields(
        {
            ProfileField.FRIEND_LIST: friend_list,
            ProfileField.BIRTHDAY: birthday,
            ProfileField.WALL: wall,
        }
    )
    return PrivacySettings(
        audiences=settings.audiences,
        default=settings.default,
        public_search=public_search,
        message_audience=message,
    )


def _alumnus_settings(friend_list: Audience, public_search: bool) -> PrivacySettings:
    settings = _adult_settings(friend_list)
    return PrivacySettings(
        audiences=settings.audiences,
        default=settings.default,
        public_search=public_search,
        message_audience=Audience.PUBLIC,
    )


def _locked_down_settings(public_search: bool) -> PrivacySettings:
    settings = PrivacySettings.everything_private()
    return PrivacySettings(
        audiences=settings.audiences,
        default=settings.default,
        public_search=public_search,
        message_audience=Audience.ONLY_ME,
    )
