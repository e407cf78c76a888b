"""The high-school profiling attack, end to end (paper, Section 4).

:class:`HighSchoolProfiler` orchestrates the whole pipeline against a
:class:`~repro.crawler.client.CrawlClient`:

1. harvest seeds from the Find Friends Portal (multiple fake accounts);
2. fetch seed profiles, keep self-identified current students (C′);
3. crawl public friend lists of C′ — the core set C, split by year;
4. reverse lookup: score every candidate u ∈ K with
   x(u) = max_i |G_i(u)|/|C_i|;
5. optionally fetch the top t(1+ε) candidate profiles and
   * *enhanced*: promote self-identified students into the core and
     rescore (Section 4.3),
   * *filtering*: drop candidates the Section-4.4 rules eliminate;
6. rank and select: H = C′ ∪ top-t.

The returned :class:`AttackResult` carries the full ranking, so
evaluation can sweep the threshold t without recrawling — exactly how
the paper produces Table 4 and Figures 1–2 from one data set.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Set

from repro.crawler.client import CrawlClient
from repro.osn.clock import school_class_year
from repro.crawler.effort import EffortReport
from repro.crawler.storage import CrawlStore
from repro.osn.public import School
from repro.osn.view import ProfileView

from .coreset import CoreSet, claimed_graduation_year, extract_claims
from .filtering import FilterConfig, apply_filters
from .scoring import ScoreTable, ScoringRule, score_candidates


@dataclass(frozen=True)
class ProfilerConfig:
    """Knobs for one attack run.

    ``threshold`` (t) defaults to the school's public enrollment hint —
    the paper picks t "in the vicinity of the total number of students"
    as found on Wikipedia.  ``epsilon`` sizes the extra profile fetch of
    the enhanced/filtering variants (the paper uses ε = 1 throughout).
    """

    threshold: Optional[int] = None
    epsilon: float = 1.0
    enhanced: bool = False
    filtering: bool = False
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    scoring_rule: ScoringRule = ScoringRule.MAX_FRACTION
    denominator_floor: int = 3
    #: "portal" (Find Friends, the paper's default), "graph_search", or "both"
    seed_source: str = "portal"

    @classmethod
    def basic(cls, threshold: Optional[int] = None) -> "ProfilerConfig":
        return cls(threshold=threshold)

    @classmethod
    def basic_filtered(cls, threshold: Optional[int] = None) -> "ProfilerConfig":
        return cls(threshold=threshold, filtering=True)

    @classmethod
    def enhanced_only(cls, threshold: Optional[int] = None) -> "ProfilerConfig":
        return cls(threshold=threshold, enhanced=True)

    @classmethod
    def enhanced_filtered(cls, threshold: Optional[int] = None) -> "ProfilerConfig":
        return cls(threshold=threshold, enhanced=True, filtering=True)


@dataclass
class AttackResult:
    """Everything one run of the methodology produced."""

    school: School
    config: ProfilerConfig
    current_year: int
    seeds: Dict[int, str]
    core: CoreSet
    initial_core_size: int
    initial_claimed_size: int
    candidates: Set[int]
    scores: ScoreTable
    ranking: List[int]
    filtered_out: Dict[int, str]
    profiles: Dict[int, ProfileView]
    threshold: int
    effort: EffortReport

    @property
    def extended_core_size(self) -> int:
        return self.core.core_size

    @property
    def extended_claimed_size(self) -> int:
        return self.core.claimed_size

    def select(self, t: Optional[int] = None) -> Dict[int, Optional[int]]:
        """H = C′ ∪ top-t, as uid -> inferred class year.

        Claimed users carry their self-declared year; ranked candidates
        carry the argmax reverse-lookup year.  Works for any ``t`` up to
        the ranking length, enabling post-hoc threshold sweeps.
        """
        t = self.threshold if t is None else t
        members: Dict[int, Optional[int]] = dict(self.core.claimed)
        for uid in self.ranking[:t]:
            members.setdefault(uid, self.scores.year_of(uid))
        return members

    def top_candidates(self, t: Optional[int] = None) -> List[int]:
        """The top-t ranked candidates (excluding C′)."""
        t = self.threshold if t is None else t
        return self.ranking[:t]


class HighSchoolProfiler:
    """Runs the profiling methodology through a crawl client."""

    def __init__(
        self,
        client: CrawlClient,
        school_id: int,
        config: Optional[ProfilerConfig] = None,
        store: Optional[CrawlStore] = None,
    ) -> None:
        self.client = client
        self.school_id = school_id
        self.config = config or ProfilerConfig()
        self.store = store

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def _span(self, name: str) -> ContextManager:
        """A telemetry phase span, or a no-op when observability is off."""
        telemetry = getattr(self.client, "telemetry", None)
        return telemetry.span(name) if telemetry is not None else nullcontext()

    def run(self) -> AttackResult:
        config = self.config
        with self._span("setup"):
            school = self.client.fetch_school(self.school_id)
        current_year = school_class_year(
            self.client.frontend.clock.now_year
        )
        threshold = config.threshold or school.enrollment_hint or 400

        # Step 1: seeds.
        with self._span("seeds"):
            seeds = self._collect_seeds(current_year)
        if self.store is not None:
            self.store.save_seeds(self.school_id, seeds)

        # Steps 2-3: seed profiles -> C', friend lists of C' -> core set C.
        with self._span("core"):
            profiles = self._fetch_profiles(seeds)
            claims = extract_claims(profiles, self.school_id, current_year)
            core = CoreSet(school_id=self.school_id, current_year=current_year)
            for uid, year in claims.items():
                self._try_promote(core, uid, year)
        initial_core_size = core.core_size
        initial_claimed_size = core.claimed_size

        # Steps 4-5: reverse lookup scoring.
        with self._span("scoring"):
            scores = score_candidates(
                core, config.scoring_rule, config.denominator_floor
            )

        filtered_out: Dict[int, str] = {}
        if config.enhanced or config.filtering:
            with self._span("candidates"):
                budget = int(round((1.0 + config.epsilon) * threshold))
                targets = scores.ranked(exclude=set(core.claimed))[:budget]
                profiles.update(
                    self._fetch_profiles(
                        {uid: "" for uid in targets if uid not in profiles}
                    )
                )
                if config.enhanced:
                    self._extend_core(core, targets, profiles, current_year)
                    scores = score_candidates(
                        core, config.scoring_rule, config.denominator_floor
                    )

                if config.filtering:
                    candidate_profiles = {
                        uid: view
                        for uid, view in profiles.items()
                        if uid in scores and uid not in core.claimed
                    }
                    filtered_out = apply_filters(
                        candidate_profiles,
                        self.school_id,
                        school.city,
                        current_year,
                        config.filter_config,
                    )

        with self._span("threshold"):
            ranking = scores.ranked(exclude=set(core.claimed) | set(filtered_out))

        if self.store is not None:
            self.store.save_profiles(profiles.values(), self.school_id)

        return AttackResult(
            school=school,
            config=config,
            current_year=current_year,
            seeds=seeds,
            core=core,
            initial_core_size=initial_core_size,
            initial_claimed_size=initial_claimed_size,
            candidates=set(scores.uids.tolist()),
            scores=scores,
            ranking=ranking,
            filtered_out=filtered_out,
            profiles=profiles,
            threshold=threshold,
            effort=self.client.effort_report(),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _collect_seeds(self, current_year: int) -> Dict[int, str]:
        """Step 1 via the configured discovery surface(s)."""
        source = self.config.seed_source
        if source not in ("portal", "graph_search", "both"):
            raise ValueError(f"unknown seed_source: {source!r}")
        seeds: Dict[int, str] = {}
        if source in ("portal", "both"):
            seeds.update(self.client.collect_seeds(self.school_id))
        if source in ("graph_search", "both"):
            years = list(range(current_year - 8, current_year + 4))
            seeds.update(
                self.client.collect_seeds_graph_search(self.school_id, years)
            )
        return seeds

    def _fetch_profiles(self, uids: Dict[int, str]) -> Dict[int, ProfileView]:
        views: Dict[int, ProfileView] = {}
        for uid in uids:
            view = self.client.fetch_profile(uid)
            if view is not None:
                views[uid] = view
        return views

    def _try_promote(self, core: CoreSet, uid: int, year: int) -> bool:
        """Fetch a claimed user's friend list; promote to C if public."""
        friends = self.client.fetch_friend_list(uid)
        if friends is None:
            core.add_claimed(uid, year)
            return False
        core.add_core(uid, year, (e.user_id for e in friends))
        if self.store is not None:
            self.store.save_friend_list(uid, friends)
        return True

    def _extend_core(
        self,
        core: CoreSet,
        fetched_uids: List[int],
        profiles: Dict[int, ProfileView],
        current_year: int,
    ) -> None:
        """Section 4.3: promote self-identified T+ users into the core."""
        for uid in fetched_uids:
            view = profiles.get(uid)
            if view is None or uid in core.claimed:
                continue
            year = claimed_graduation_year(view, self.school_id, current_year)
            if year is not None:
                self._try_promote(core, uid, year)
