"""World assembly: population + accounts + friendships + ground truth.

``build_world`` turns a :class:`~repro.worldgen.config.WorldConfig` into
a ready-to-attack :class:`World`: a fully wired OSN behind an HTML
frontend, plus the :class:`SchoolGroundTruth` an evaluator needs (the
paper obtained HS1's equivalent through a confidential channel).

The ground truth is *never* consulted by the attack itself — only by
``repro.core.evaluation`` after the fact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.osn.clock import SimClock
from repro.osn.frontend import HtmlFrontend
from repro.osn.network import School, SocialNetwork
from repro.osn.policy import policy_by_name
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile
from repro.osn.ratelimit import RateLimitConfig

from .accounts import AccountFactory, AccountIndex
from .activity import ActivityBuilder
from .config import WorldConfig
from .friendship import FriendshipBuilder
from .population import Population, PopulationBuilder, Role


@dataclass
class SchoolGroundTruth:
    """Everything the evaluator knows about one school's true students.

    Mirrors the confidential student lists the paper used for HS1:
    current students segmented by graduation year, their account ids,
    each student account's real birth year and street address, and
    derived per-account classifications (registered minors, students
    registered as adults, minimal-profile students).
    """

    school: School
    #: grad year -> person ids of all current students (incl. no-account)
    students_by_year: Dict[int, List[int]] = field(default_factory=dict)
    #: grad year -> user ids of current students *with accounts* (the set M)
    student_uids_by_year: Dict[int, List[int]] = field(default_factory=dict)
    former_student_uids: Set[int] = field(default_factory=set)
    alumni_uids: Set[int] = field(default_factory=set)
    #: student uid -> real birth year (what age inference is scored on)
    real_birth_years: Dict[int, int] = field(default_factory=dict)
    #: student uid -> real street address, for students who have one
    real_street_addresses: Dict[int, str] = field(default_factory=dict)

    @property
    def all_student_uids(self) -> Set[int]:
        return {uid for uids in self.student_uids_by_year.values() for uid in uids}

    @property
    def on_osn_count(self) -> int:
        """|M|: current students with accounts (325 for the paper's HS1)."""
        return sum(len(uids) for uids in self.student_uids_by_year.values())

    @property
    def enrolled_count(self) -> int:
        return sum(len(pids) for pids in self.students_by_year.values())

    def year_of_uid(self, uid: int) -> Optional[int]:
        for year, uids in self.student_uids_by_year.items():
            if uid in uids:
                return year
        return None


@dataclass
class World:
    """A complete, attackable synthetic world."""

    config: WorldConfig
    network: SocialNetwork
    frontend: HtmlFrontend
    population: Population
    account_index: AccountIndex
    schools: List[School]
    ground_truths: List[SchoolGroundTruth]
    rng: random.Random

    def ground_truth(self, school_index: int = 0) -> SchoolGroundTruth:
        return self.ground_truths[school_index]

    def school(self, school_index: int = 0) -> School:
        return self.schools[school_index]

    @property
    def clock(self) -> SimClock:
        """The simulation clock — harness plumbing, not ground truth.

        Callers that only need the current date (the CLI, telemetry)
        should use this instead of reaching through ``world.network``,
        which holds the simulator's private state.
        """
        return self.network.clock

    @property
    def current_year(self) -> int:
        """Current simulated year, via :attr:`clock`."""
        return self.clock.current_year

    def create_attacker_accounts(self, count: int) -> List[int]:
        """Register ``count`` fake adult accounts for the third party.

        These mimic the paper's crawl accounts: plausible adult profiles
        with no friends, so they are strangers to every target.
        """
        uids = []
        for i in range(count):
            account = self.network.register_account(
                profile=Profile(name=Name("Crawl", f"Account{i}")),
                registered_birthday=Birthday(1985),
                settings=PrivacySettings.everything_private(),
                is_fake=True,
                enforce_minimum_age=False,
            )
            uids.append(account.user_id)
        return uids

    # ------------------------------------------------------------------
    # Derived classifications the analysis tables need
    # ------------------------------------------------------------------
    def registered_minor_students(self, school_index: int = 0) -> Set[int]:
        truth = self.ground_truth(school_index)
        return {
            uid
            for uid in truth.all_student_uids
            if self.network.is_registered_minor(uid)
        }

    def adult_registered_students(self, school_index: int = 0) -> Set[int]:
        truth = self.ground_truth(school_index)
        return {
            uid
            for uid in truth.all_student_uids
            if not self.network.is_registered_minor(uid)
        }

    def minimal_profile_students(self, school_index: int = 0) -> Set[int]:
        """Students whose *stranger* view is minimal (Section 7.2 uses this)."""
        truth = self.ground_truth(school_index)
        return {
            uid
            for uid in truth.all_student_uids
            if self.network.view_profile(None, uid).is_minimal()
        }


def build_world(config: WorldConfig) -> World:
    """Generate a complete world from a config (deterministic per seed)."""
    config.validate()
    rng = random.Random(config.seed)
    clock = SimClock(now_year=config.observation_year)
    network = SocialNetwork(
        policy=policy_by_name(config.site),
        clock=clock,
        search_result_cap=config.osn.search_result_cap,
        search_page_size=config.osn.search_page_size,
        friends_page_size=config.osn.friends_page_size,
        search_salt=config.seed,
    )
    schools = [
        network.register_school(
            s.name, s.city, s.enrollment_hint if s.enrollment_hint else s.enrollment
        )
        for s in config.schools
    ]

    noise_schools = [
        network.register_school(f"{city} High School", city)
        for city in ("Rivertown", "Lakeside", "Fairview")
    ]
    population = PopulationBuilder(config, rng).build()
    index = AccountFactory(
        config, population, network, schools, rng, noise_schools=noise_schools
    ).build_all()
    FriendshipBuilder(config, population, network, index, rng).build()
    ActivityBuilder(config, population, network, index, rng).build()

    ground_truths = [
        _school_ground_truth(schools[i], i, population, index)
        for i in range(len(config.schools))
    ]
    frontend = HtmlFrontend(
        network,
        RateLimitConfig(
            max_requests=config.osn.rate_limit_max_requests,
            window_seconds=config.osn.rate_limit_window_seconds,
        ),
    )
    return World(
        config=config,
        network=network,
        frontend=frontend,
        population=population,
        account_index=index,
        schools=schools,
        ground_truths=ground_truths,
        rng=rng,
    )


def _school_ground_truth(
    school: School, school_index: int, population: Population, index: AccountIndex
) -> SchoolGroundTruth:
    truth = SchoolGroundTruth(school=school)
    for year, pids in population.students_by_school.get(school_index, {}).items():
        truth.students_by_year[year] = list(pids)
        uids: List[int] = []
        for pid in pids:
            uid = index.user_for(pid)
            if uid is None:
                continue
            uids.append(uid)
            person = population.people[pid]
            truth.real_birth_years[uid] = int(person.birth_year_fraction)
            if person.street_address is not None:
                truth.real_street_addresses[uid] = person.street_address
        truth.student_uids_by_year[year] = uids
    truth.former_student_uids = {
        uid
        for pid in population.former_by_school.get(school_index, [])
        if (uid := index.user_for(pid)) is not None
    }
    truth.alumni_uids = {
        uid
        for pids in population.alumni_by_school.get(school_index, {}).values()
        for pid in pids
        if (uid := index.user_for(pid)) is not None
    }
    return truth
