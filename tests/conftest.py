"""Shared fixtures.

Session-scoped worlds and attack results are expensive to build, so
read-only tests share them; anything that mutates a world builds its
own via the factory fixtures.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.api import make_client, run_attack
from repro.core.profiler import ProfilerConfig
from repro.osn.clock import SimClock
from repro.osn.network import SocialNetwork
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile, SchoolAffiliation
from repro.worldgen.presets import hs1, tiny
from repro.worldgen.world import build_world


@pytest.fixture(scope="session")
def tiny_world():
    """A small, fully built world (read-only; ~0.2 s)."""
    return build_world(tiny())


@pytest.fixture(scope="session")
def tiny_attack(tiny_world):
    """An enhanced+filtered attack result on the tiny world."""
    return run_attack(
        tiny_world,
        accounts=2,
        config=ProfilerConfig(threshold=120, enhanced=True, filtering=True),
    )


@pytest.fixture(scope="session")
def hs1_world():
    """The calibrated HS1 world (read-only; ~1 s)."""
    return build_world(hs1())


@pytest.fixture(scope="session")
def hs1_attack(hs1_world):
    """An enhanced+filtered attack on HS1 at the paper's scale."""
    return run_attack(
        hs1_world,
        accounts=2,
        config=ProfilerConfig(threshold=500, enhanced=True, filtering=True),
    )


@pytest.fixture()
def fresh_tiny_world():
    """A private tiny world for tests that mutate network state."""
    return build_world(tiny(seed=99))


@pytest.fixture()
def empty_network():
    """A bare Facebook-policy network at March 2012."""
    return SocialNetwork(clock=SimClock(now_year=2012.25))


@pytest.fixture()
def school_network(empty_network):
    """A network with one school and a handful of hand-built accounts.

    Returns (network, school, accounts dict) where accounts include a
    lying minor ('lying_minor', registered adult), a truthful minor
    ('minor'), an adult alumnus ('alumnus'), and a fake crawl account
    ('crawler').
    """
    net = empty_network
    school = net.register_school("Central High", "Springfield", 360)

    lying_minor = net.register_account(
        profile=Profile(
            name=Name("Lia", "Young"),
            high_schools=(SchoolAffiliation(school.school_id, school.name, 2014),),
            current_city="Springfield",
        ),
        registered_birthday=Birthday(1990),
        real_birthday=Birthday(1996),
        settings=PrivacySettings.facebook_adult_default_2012(),
        created_at_year=2008.0,
    )
    minor = net.register_account(
        profile=Profile(
            name=Name("Tim", "Trusty"),
            high_schools=(SchoolAffiliation(school.school_id, school.name, 2015),),
        ),
        registered_birthday=Birthday(1997),
        real_birthday=Birthday(1997),
        created_at_year=2010.5,
    )
    alumnus = net.register_account(
        profile=Profile(
            name=Name("Al", "Umnus"),
            high_schools=(SchoolAffiliation(school.school_id, school.name, 2008),),
            current_city="College Park",
            graduate_school="State University",
        ),
        registered_birthday=Birthday(1990),
        settings=PrivacySettings.facebook_adult_default_2012(),
        created_at_year=2007.0,
    )
    crawler = net.register_account(
        profile=Profile(name=Name("Crawl", "Bot")),
        registered_birthday=Birthday(1985),
        settings=PrivacySettings.everything_private(),
        is_fake=True,
    )
    net.add_friendship(lying_minor.user_id, minor.user_id)
    net.add_friendship(lying_minor.user_id, alumnus.user_id)
    accounts = {
        "lying_minor": lying_minor,
        "minor": minor,
        "alumnus": alumnus,
        "crawler": crawler,
    }
    return net, school, accounts


@pytest.fixture()
def traced_peak():
    """Run ``build()`` under ``tracemalloc``; return its result and peak bytes.

    numpy reports its buffers to ``tracemalloc``, so the peak is an exact
    count of the bytes the build held at once, not counting what was
    allocated before it started (its inputs).
    """

    def run(build):
        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
