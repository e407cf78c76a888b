"""Ground-truth population generation: the people behind the accounts.

The generator produces :class:`Person` records for every role the study
touches:

* current students of each school (four cohorts, including recent
  transfer-ins),
* former students who churned out (the paper traces about half of the
  HS1 false positives to these),
* alumni of past graduating classes (the bulk of every seed set),
* parents (households share surnames; a parent in a friend list lets a
  data broker pin a street address, Section 2),
* unaffiliated city adults and a large external pool (the dilution in
  the candidate set).

People are *not* accounts: OSN adoption, age lying, privacy settings
and friendships are layered on later.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.osn.clock import school_class_year
from repro.osn.profile import Gender, Name

from .config import SchoolConfig, WorldConfig
from .names import NameSampler

#: Expected age (in years) of a student at graduation, before jitter.
GRADUATION_AGE = 18.45

#: Street names for synthetic home addresses (the data-broker linkage
#: of Section 2 matches voter records against these).
STREET_NAMES = (
    "Maple", "Oak", "Cedar", "Elm", "Pine", "Washington", "Lake",
    "Hill", "Park", "Main", "Walnut", "Spring", "North", "Ridge",
    "Church", "Willow", "Mill", "Sunset", "Railroad", "Jackson",
)


class Role(enum.Enum):
    STUDENT = "student"
    FORMER_STUDENT = "former_student"
    ALUMNUS = "alumnus"
    PARENT = "parent"
    CITY_ADULT = "city_adult"
    EXTERNAL = "external"


@dataclass(slots=True)
class Person:
    """One ground-truth individual.

    ``cohort_year`` is the (actual or would-have-been) graduation year
    for students, former students and alumni.  ``tenure_years`` is how
    long a current student has attended so far; ``left_years_ago`` when
    a former student departed.  ``household_id`` ties students to their
    parents.
    """

    person_id: int
    name: Name
    gender: Gender
    birth_year_fraction: float
    role: Role
    city: str
    school_index: Optional[int] = None  # index into WorldConfig.schools
    cohort_year: Optional[int] = None
    tenure_years: float = 0.0
    left_years_ago: float = 0.0
    household_id: Optional[int] = None
    street_address: Optional[str] = None

    def real_age(self, now_year: float) -> float:
        return now_year - self.birth_year_fraction

    @property
    def is_school_affiliated(self) -> bool:
        return self.role in (Role.STUDENT, Role.FORMER_STUDENT, Role.ALUMNUS)


@dataclass
class Population:
    """All generated people, with role-indexed views for later stages."""

    people: List[Person] = field(default_factory=list)
    by_role: Dict[Role, List[int]] = field(default_factory=dict)
    #: per school index: cohort year -> person ids of *current* students
    students_by_school: Dict[int, Dict[int, List[int]]] = field(default_factory=dict)
    former_by_school: Dict[int, List[int]] = field(default_factory=dict)
    alumni_by_school: Dict[int, Dict[int, List[int]]] = field(default_factory=dict)
    #: household id -> (student person ids, parent person ids)
    households: Dict[int, Tuple[List[int], List[int]]] = field(default_factory=dict)

    def person(self, person_id: int) -> Person:
        return self.people[person_id]

    def ids_with_role(self, role: Role) -> List[int]:
        return self.by_role.get(role, [])

    def add(self, person: Person) -> None:
        assert person.person_id == len(self.people)
        self.people.append(person)
        self.by_role.setdefault(person.role, []).append(person.person_id)

    def __len__(self) -> int:
        return len(self.people)


class PopulationBuilder:
    """Generates a :class:`Population` from a :class:`WorldConfig`."""

    def __init__(self, config: WorldConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.names = NameSampler(rng)
        self.population = Population()
        self._next_household = 0

    def _street_address(self) -> str:
        street = self.rng.choice(STREET_NAMES)
        suffix = self.rng.choice(("St", "Ave", "Rd", "Ln"))
        return f"{self.rng.randint(1, 999)} {street} {suffix}"

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def build(self) -> Population:
        for school_index, school in enumerate(self.config.schools):
            self._build_school(school_index, school)
        self._build_city_adults()
        self._build_externals()
        return self.population

    # ------------------------------------------------------------------
    # Schools
    # ------------------------------------------------------------------
    def _grad_year_cohorts(self, school: SchoolConfig) -> List[int]:
        """Graduation years of current cohorts, earliest first.

        At observation time 2012.25 the current classes graduate in
        2012..2015 (the school year runs into June); in fall 2011 the
        same classes are current (school years straddle new year).
        """
        first = school_class_year(self.config.observation_year)
        return [first + i for i in range(school.cohorts)]

    def _birth_year_for_cohort(self, cohort_year: int) -> float:
        """A birth instant consistent with graduating in ``cohort_year``."""
        return cohort_year - GRADUATION_AGE + self.rng.uniform(0.0, 1.0)

    def _build_school(self, school_index: int, school: SchoolConfig) -> None:
        self._build_current_students(school_index, school)
        self._build_former_students(school_index, school)
        self._build_alumni(school_index, school)

    def _build_current_students(self, school_index: int, school: SchoolConfig) -> None:
        cohorts = self._grad_year_cohorts(school)
        students = self.population.students_by_school.setdefault(school_index, {})
        for cohort_year in cohorts:
            members: List[int] = []
            years_attended_max = school.cohorts - (cohort_year - cohorts[0])
            for _ in range(school.cohort_size):
                surname = self.names.family_surname()
                gender = self.names.gender()
                name = Name(self.names.first_name(gender), surname)
                recent_arrival = self.rng.random() < school.transfer_in_rate
                if recent_arrival:
                    tenure = self.rng.uniform(0.1, 1.0)
                else:
                    tenure = self.rng.uniform(
                        max(0.5, years_attended_max - 1.0), float(years_attended_max)
                    )
                person = Person(
                    person_id=len(self.population),
                    name=name,
                    gender=gender,
                    birth_year_fraction=self._birth_year_for_cohort(cohort_year),
                    role=Role.STUDENT,
                    city=school.city,
                    school_index=school_index,
                    cohort_year=cohort_year,
                    tenure_years=tenure,
                )
                self.population.add(person)
                members.append(person.person_id)
                self._maybe_build_family(person, surname, school.city)
            students[cohort_year] = members

    def _maybe_build_family(self, student: Person, surname: str, city: str) -> None:
        """Attach 1–2 parents to a student's household (probabilistically)."""
        family = self.config.family
        if self.rng.random() >= family.p_parent_on_osn:
            return
        household = self._next_household
        self._next_household += 1
        student.household_id = household
        address = self._street_address()
        student.street_address = address
        parents: List[int] = []
        n_parents = 2 if self.rng.random() < family.p_two_parents else 1
        for _ in range(n_parents):
            gender = self.names.gender()
            parent = Person(
                person_id=len(self.population),
                name=Name(self.names.first_name(gender), surname),
                gender=gender,
                birth_year_fraction=student.birth_year_fraction
                - self.rng.uniform(22.0, 38.0),
                role=Role.PARENT,
                city=city,
                household_id=household,
                street_address=address,
            )
            self.population.add(parent)
            parents.append(parent.person_id)
        self.population.households[household] = ([student.person_id], parents)

    def _build_former_students(self, school_index: int, school: SchoolConfig) -> None:
        """Students who attended recently but transferred out.

        They keep in-school friendships made during their tenure, often
        still list the school (sometimes with a future class year), and
        usually live in another city now — the profile signature the
        Section-4.4 filter rules target.
        """
        cohorts = self._grad_year_cohorts(school)
        count = int(school.enrollment * school.churn_out_rate)
        former = self.population.former_by_school.setdefault(school_index, [])
        for _ in range(count):
            cohort_year = self.rng.choice(cohorts)
            gender = self.names.gender()
            left_years_ago = self.rng.uniform(0.3, 2.5)
            person = Person(
                person_id=len(self.population),
                name=Name(self.names.first_name(gender), self.names.last_name()),
                gender=gender,
                birth_year_fraction=self._birth_year_for_cohort(cohort_year),
                role=Role.FORMER_STUDENT,
                city=f"{school.city} Heights" if self.rng.random() < 0.5 else "Rivertown",
                school_index=school_index,
                cohort_year=cohort_year,
                tenure_years=self.rng.uniform(0.5, 2.5),
                left_years_ago=left_years_ago,
            )
            self.population.add(person)
            former.append(person.person_id)

    def _build_alumni(self, school_index: int, school: SchoolConfig) -> None:
        """Past graduating classes, one cohort per year back."""
        current_first = school_class_year(self.config.observation_year)
        alumni = self.population.alumni_by_school.setdefault(school_index, {})
        for back in range(1, school.alumni_cohorts + 1):
            cohort_year = current_first - back
            members: List[int] = []
            for _ in range(school.cohort_size):
                gender = self.names.gender()
                person = Person(
                    person_id=len(self.population),
                    name=Name(self.names.first_name(gender), self.names.last_name()),
                    gender=gender,
                    birth_year_fraction=self._birth_year_for_cohort(cohort_year),
                    role=Role.ALUMNUS,
                    city=school.city,
                    school_index=school_index,
                    cohort_year=cohort_year,
                    tenure_years=float(school.cohorts),
                )
                self.population.add(person)
                members.append(person.person_id)
            alumni[cohort_year] = members

    # ------------------------------------------------------------------
    # Background population
    # ------------------------------------------------------------------
    def _build_city_adults(self) -> None:
        """Unaffiliated adults living in the city (sized off school totals)."""
        total_enrollment = sum(s.enrollment for s in self.config.schools)
        count = max(50, total_enrollment // 2)
        for _ in range(count):
            gender = self.names.gender()
            person = Person(
                person_id=len(self.population),
                name=Name(self.names.first_name(gender), self.names.last_name()),
                gender=gender,
                birth_year_fraction=self.rng.uniform(1950.0, 1990.0),
                role=Role.CITY_ADULT,
                city=self.config.city_name,
                street_address=self._street_address(),
            )
            self.population.add(person)

    def _build_externals(self) -> None:
        """The external pool: mostly young adults scattered elsewhere.

        Skewed young because teenagers befriend other teenagers; a slice
        are real minors (registered minors in the with-COPPA world),
        which supplies the minimal-profile noise the Section-7 analysis
        runs into.
        """
        cities = ("Rivertown", "Lakeside", "Fairview", "Oakdale", "Milton")
        for _ in range(self.config.externals.size):
            gender = self.names.gender()
            if self.rng.random() < self.config.externals.p_registered_minor:
                birth = self.config.observation_year - self.rng.uniform(13.5, 17.5)
            else:
                birth = self.config.observation_year - self.rng.uniform(18.0, 45.0)
            person = Person(
                person_id=len(self.population),
                name=Name(self.names.first_name(gender), self.names.last_name()),
                gender=gender,
                birth_year_fraction=birth,
                role=Role.EXTERNAL,
                city=self.rng.choice(cities),
            )
            self.population.add(person)


def build_population(config: WorldConfig, rng: Optional[random.Random] = None) -> Population:
    """Convenience wrapper: generate the full population for ``config``."""
    config.validate()
    return PopulationBuilder(config, rng or random.Random(config.seed)).build()
