"""The benchmark's three workloads, driven only through public entry points.

Each workload has a set-up (worlds, voter registries, crawl accounts), a
*round* of fixed work, an untimed warm-up round whose outputs are the
reference, and checks that run after the measured phase.  A round feeds
every output it produces into a :class:`RoundLog` digest, so two rounds
agree exactly when they produced the same results.

Call sites look their targets up through module attributes
(``api.run_attack``, ``worldgen_world.build_world``, ...) so that the
traced run (``trace.py``) can wrap them where the benchmark finds them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import repro.colgen as colgen
from repro.colgen import serve as colgen_serve
from repro.core import api, extension, linkage, outreach
from repro.core.profiler import AttackResult, ProfilerConfig
from repro.crawler.accounts import AccountPool
from repro.crawler.client import CrawlClient
from repro.crawler.engine import CrawlPlan, CrawlScheduler
from repro.osn.rendercache import RenderCache
from repro.osn.view import ProfileView
from repro.worldgen import records
from repro.worldgen import world as worldgen_world
from repro.worldgen.presets import preset

#: Default world seeds of the presets; ``--seed S`` is added to them.
PRESET_SEEDS = {"hs2": 202, "hs3": 303, "tiny": 7}
#: The city tier is generated with seed ``CITY_SEED + S``.
CITY_SEED = 1
#: Crawl accounts per paper-tier world (sequential client, closed loop).
PAPER_ACCOUNTS = 2
#: Simulated sessions of the async engine on the city tier.
CITY_ACCOUNTS = 8
#: City schools crawled per round, lowest ids first.  Calibrated so a
#: round takes about 3 s and several rounds fit in one run.
CITY_SCHOOLS = 10

#: The four Figure-1 variants of the sweep, in the paper's order.
VARIANTS: Tuple[Tuple[str, Callable[[], ProfilerConfig]], ...] = (
    ("basic", ProfilerConfig.basic),
    ("basic+filtering", ProfilerConfig.basic_filtered),
    ("enhanced", ProfilerConfig.enhanced_only),
    ("enhanced+filtering", ProfilerConfig.enhanced_filtered),
)


@dataclass(frozen=True)
class Scale:
    """Which worlds the workloads build.

    ``full`` is the benchmark; ``tiny`` runs the same code on the tiny
    preset and a 40-block (160k-account) city, for the harness tests.
    """

    attack: Tuple[str, ...]
    sweep: Tuple[str, ...]
    city_blocks: Optional[int]
    city_schools: int


SCALES = {
    "full": Scale(("hs2",), ("hs2", "hs3"), None, CITY_SCHOOLS),
    "tiny": Scale(("tiny",), ("tiny",), 40, 2),
}


def short_digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def effort_categories(client: CrawlClient) -> Dict[str, int]:
    """One row of the paper's Table 3 for everything ``client`` fetched."""
    report = client.effort_report()
    return {
        "seeds": report.seed_requests,
        "profiles": report.profile_requests,
        "friend_lists": report.friend_list_requests,
        "other": report.other_requests,
    }


def slept_sim_s(client: CrawlClient) -> float:
    """Simulated seconds the client's pacers slept, across its accounts."""
    return sum(client.pacer_for(uid).total_slept for uid in client.pool.account_ids)


class RoundLog:
    """Outputs, effort and operation counts of one round.

    A logical operation is one call into the program that the workload
    plans (one profile fetch, one attack, one school crawl).  An
    exception out of it is a failed operation: the round records it and
    goes on, so a ban or an exhausted retry leaves a partial result.
    The 403/404 outcomes the crawl API maps to ``None``/``False`` are
    results, not failures.
    """

    def __init__(self) -> None:
        self._outputs: List[Any] = []
        self._digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.requests = 0
        self.sim_s = 0.0
        self.detail: Dict[str, Any] = {}

    def op(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one logical operation; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation; the round goes on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self.record("failed", type(exc).__name__)
            return None

    def skip(self, count: int) -> None:
        """Planned operations that could not run after an earlier failure."""
        self.attempted += count
        self.failed += count

    def record(self, *values: Any) -> None:
        """Keep an output for the digest, which is taken after the timing."""
        self._outputs.append(values)

    def add_effort(self, key: str, client: CrawlClient, sim_s: float) -> None:
        categories = effort_categories(client)
        self.detail.setdefault("effort", {})[key] = categories
        self.record(key, categories)
        self.requests += sum(categories.values())
        self.sim_s += sim_s

    def add(self, key: str, value: float) -> None:
        self.detail[key] = self.detail.get(key, 0) + value

    def seal(self) -> None:
        """Digest every recorded output, then release the outputs."""
        if self._digest is None:
            digest = hashlib.sha256()
            for values in self._outputs:
                digest.update(repr(values).encode())
            self._digest, self._outputs = digest.hexdigest(), []

    @property
    def digest(self) -> str:
        """SHA-256 of the round's outputs, in the order they were recorded."""
        self.seal()
        return self._digest


def build_paper_world(name: str, seed: int) -> worldgen_world.World:
    return worldgen_world.build_world(preset(name, PRESET_SEEDS[name] + seed))


def paper_client(world: worldgen_world.World, accounts: List[int]) -> CrawlClient:
    """A fresh sequential client over the set-up's crawl accounts."""
    return CrawlClient(world.frontend, AccountPool.of(accounts), seed=world.config.seed)


def resolve_friend_name(
    crawled: Mapping[int, ProfileView], client: CrawlClient, uid: int
) -> Optional[str]:
    """A friend's display name: from a crawled page, else one profile GET."""
    view = crawled.get(uid) or client.fetch_profile(uid)
    return view.name if view else None


def memoised_resolver(
    crawled: Mapping[int, ProfileView], client: CrawlClient
) -> Tuple[Callable[[int], Optional[str]], Dict[int, Optional[str]]]:
    """Linkage's ``friend_name_of``, resolving each uid once per school.

    Returns the resolver and its memo (uid -> name or ``None``).
    """
    names: Dict[int, Optional[str]] = {}

    def friend_name_of(uid: int) -> Optional[str]:
        if uid not in names:
            names[uid] = resolve_friend_name(crawled, client, uid)
        return names[uid]

    return friend_name_of, names


def record_attack(log: RoundLog, result: AttackResult) -> None:
    log.record(
        result.threshold,
        result.initial_core_size,
        result.extended_core_size,
        result.extended_claimed_size,
        sorted(result.filtered_out.items()),
        result.ranking,
    )


class Workload:
    """Set-up, one round of fixed work, and post-measurement checks."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, log: RoundLog) -> None:
        raise NotImplementedError

    def warm_up(self, log: RoundLog) -> None:
        """The untimed first round; its outputs are the reference that
        every measured round must reproduce."""
        self.run_round(log)

    def check(self, logs: List[RoundLog]) -> List[str]:
        """Workload-specific problems with the rounds' outputs."""
        return []


class AttackLink(Workload):
    """Attack, extension, address linkage and outreach on each school."""

    name = "attack-link"

    def setup(self) -> None:
        self.targets = []
        for name in self.scale.attack:
            world = build_paper_world(name, self.seed)
            registry = records.build_voter_registry(
                world.population,
                world.config.observation_year,
                seed=world.config.seed,
            )
            accounts = world.create_attacker_accounts(PAPER_ACCOUNTS)
            self.targets.append((name, world, registry, accounts))

    def run_round(self, log: RoundLog) -> None:
        log.detail["students_linked"] = {}
        log.add("message_failures", 0)
        for name, world, registry, accounts in self.targets:
            start = world.clock.seconds()
            client = paper_client(world, accounts)
            # Outreach posts from fresh accounts each round, so friend
            # requests are never duplicates of an earlier round's.
            poster = api.make_client(world, PAPER_ACCOUNTS)
            self._attack_school(log, name, world, registry, client, poster)
            log.add_effort(name, client, 0.0)
            log.add_effort(f"{name}/outreach", poster, world.clock.seconds() - start)
            log.add("slept_sim_s", slept_sim_s(client) + slept_sim_s(poster))

    @staticmethod
    def _attack_school(
        log: RoundLog,
        name: str,
        world: worldgen_world.World,
        registry: records.VoterRegistry,
        client: CrawlClient,
        poster: CrawlClient,
    ) -> None:
        result = log.op(
            api.run_attack, world, client=client,
            config=ProfilerConfig.enhanced_filtered(),
        )
        if result is None:
            log.skip(3)
            return
        record_attack(log, result)
        extended = log.op(extension.build_extended_profiles, result, client)
        if extended is None:
            log.skip(2)
            return
        for uid, profile in sorted(extended.items()):
            log.record(
                uid,
                profile.name,
                profile.inferred_year,
                profile.appears_registered_adult,
                sorted(profile.reverse_friends),
                profile.direct_friends,
            )
        resolver, names = memoised_resolver(result.profiles, client)
        linked = log.op(linkage.link_home_addresses, extended, registry, resolver)
        if linked is not None:
            log.record(sorted(linked.items()))
            log.detail["students_linked"][name] = len(linked)
        known = {uid: found for uid, found in names.items() if found}
        report = log.op(
            outreach.run_outreach_campaign, extended, poster, name_of=known,
            send_messages=True, send_friend_requests=True,
        )
        if report is not None:
            log.record(
                report.targets,
                report.directly_messageable,
                report.messages_delivered,
                report.message_failures,
                report.friend_requests_sent,
            )
            log.add("message_failures", report.message_failures)

    def check(self, logs: List[RoundLog]) -> List[str]:
        return [
            f"{log.detail['message_failures']} outreach messages failed"
            for log in logs
            if log.detail["message_failures"]
        ]


class SweepCached(Workload):
    """The four Figure-1 variants per world through a fresh render cache."""

    name = "sweep-cached"

    def setup(self) -> None:
        self.targets = []
        for name in self.scale.sweep:
            world = build_paper_world(name, self.seed)
            self.targets.append(
                (name, world, world.create_attacker_accounts(PAPER_ACCOUNTS))
            )

    def run_round(self, log: RoundLog, cached: bool = True) -> None:
        log.detail["rankings"] = {}
        for name, world, accounts in self.targets:
            cache = RenderCache() if cached else None
            world.frontend.set_cache(cache)
            start = world.clock.seconds()
            client = paper_client(world, accounts)
            rankings = log.detail["rankings"][name] = {}
            for label, config in VARIANTS:
                result = log.op(api.run_attack, world, client=client, config=config())
                if result is not None:
                    record_attack(log, result)
                    rankings[label] = short_digest(result.ranking)
            log.add_effort(name, client, world.clock.seconds() - start)
            log.add("slept_sim_s", slept_sim_s(client))
            world.frontend.set_cache(None)
            if cache is not None:
                for key in ("hits", "misses", "evictions"):
                    log.add(f"cache_{key}", cache.stats()[key])

    def warm_up(self, log: RoundLog) -> None:
        """The reference round runs with the cache detached, so every
        cached round must serve exactly the pages a bare render does."""
        self.run_round(log, cached=False)


class CityColumnar(Workload):
    """8-session async crawl of the 1M-account city's first schools."""

    name = "city-columnar"

    def setup(self) -> None:
        self.world = colgen.generate(
            "city", seed=CITY_SEED + self.seed, blocks=self.scale.city_blocks
        )
        self.frontend = colgen_serve.columnar_frontend(self.world)
        self.accounts = colgen_serve.session_accounts(self.frontend, CITY_ACCOUNTS)
        first = colgen_serve.first_school_id(self.frontend)
        self.schools = list(range(first, first + self.scale.city_schools))

    def _crawl(self, accounts: List[int], school_id: int, log: RoundLog) -> None:
        client = CrawlClient(
            self.frontend, AccountPool.of(accounts), seed=self.world.seed
        )
        result = log.op(CrawlScheduler(client, CrawlPlan(school_id=school_id)).run)
        if result is not None:
            log.record(school_id, result.pages, result.result_signature())
            log.add_effort(f"school-{school_id}", client, result.sim_seconds)
            log.add("engine_sim_s", result.sim_seconds)
            log.add("slept_sim_s", slept_sim_s(client))

    def run_round(self, log: RoundLog) -> None:
        for school_id in self.schools:
            self._crawl(self.accounts, school_id, log)

    def check(self, logs: List[RoundLog]) -> List[str]:
        """One school crawled by a 1-account and an 8-account pool."""
        school_id = self.schools[0]
        solo, pool = RoundLog(), RoundLog()
        self._crawl(self.accounts[:1], school_id, solo)
        self._crawl(self.accounts, school_id, pool)
        if solo.digest != pool.digest or solo.failed or pool.failed:
            return [f"school {school_id}: 1- and {CITY_ACCOUNTS}-account pools differ"]
        return []


WORKLOADS = {cls.name: cls for cls in (AttackLink, SweepCached, CityColumnar)}
