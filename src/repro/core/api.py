"""Convenience entry points tying worlds, crawlers and the profiler together.

These helpers are what the examples and benchmarks call: build a world
from a preset, point a crawl client at its frontend with N fake
accounts, and run the chosen methodology variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient
from repro.crawler.politeness import PolitenessPolicy
from repro.crawler.storage import CrawlStore
from repro.telemetry.runtime import Telemetry

from .profiler import AttackResult, HighSchoolProfiler, ProfilerConfig

if TYPE_CHECKING:
    # Typing only: at runtime the world arrives as an opaque handle and
    # everything the attack sees flows through its HTML frontend.
    from repro.worldgen.world import World


def make_client(
    world: World,
    accounts: int = 2,
    politeness: Optional[PolitenessPolicy] = None,
    telemetry: Optional[Telemetry] = None,
) -> CrawlClient:
    """A crawl client with ``accounts`` fresh fake accounts on this world.

    Passing a :class:`~repro.telemetry.runtime.Telemetry` instruments
    this session: the client records every request attempt, throttle
    and lost account in its event stream.  The world's frontend is
    shared by every session and is left untouched, so a later session
    on the same world writes nothing into this one.
    """
    pool = AccountPool.of(world.create_attacker_accounts(accounts))
    return CrawlClient(world.frontend, pool, politeness, telemetry=telemetry)


def run_attack(
    world: World,
    school_index: int = 0,
    accounts: int = 2,
    config: Optional[ProfilerConfig] = None,
    politeness: Optional[PolitenessPolicy] = None,
    store: Optional[CrawlStore] = None,
    client: Optional[CrawlClient] = None,
    telemetry: Optional[Telemetry] = None,
) -> AttackResult:
    """Run the profiling methodology against one school of a world.

    Uses the school's true OSN id and a fresh client unless one is
    supplied.  Everything the attack sees flows through the HTML
    frontend; ground truth stays untouched.
    """
    if client is None:
        client = make_client(world, accounts, politeness, telemetry)
    school_id = world.school(school_index).school_id
    profiler = HighSchoolProfiler(client, school_id, config, store)
    return profiler.run()
