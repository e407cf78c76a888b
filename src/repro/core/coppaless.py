"""The without-COPPA analysis (paper, Section 7).

Two questions: in a world with no age ban (so nobody lies), (a) can a
third party still recover the student body, and (b) can it still build
rich profiles?  The paper answers with a "natural approach" heuristic —
start from *recent graduates* (young adults), collect their friends,
keep the minimal-profile ones, and require at least n friends in the
core — and an apples-to-apples comparison on minimal-profile students.

We implement:

* :func:`run_natural_approach` — the Section 7.1 heuristic, driven
  through the crawl client like every other attack;
* a direct counterfactual: run the heuristic inside an actual
  without-COPPA world (``WorldConfig.without_coppa()``), something the
  paper's authors could only approximate.

The two Figure-3 series score attack output against ground truth, an
evaluator's job, so they live in :mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.crawler.client import CrawlClient
from repro.crawler.effort import EffortReport

from .scoring import reverse_lookup_pairs


@dataclass
class NaturalApproachResult:
    """Output of the Section-7.1 heuristic."""

    school_id: int
    #: recent-graduate core: uid -> listed graduation year
    core: Dict[int, int]
    candidates: Set[int]
    #: candidates whose public profile is minimal (step 3's filter)
    minimal_candidates: Set[int]
    #: candidate -> number of distinct core users whose lists contain it
    core_friend_counts: Dict[int, int]
    effort: EffortReport

    def select(self, n: int) -> Set[int]:
        """H: minimal-profile candidates with at least ``n`` core friends."""
        if n < 1:
            raise ValueError("n must be at least 1")
        return {
            uid
            for uid in self.minimal_candidates
            if self.core_friend_counts.get(uid, 0) >= n
        }


def run_natural_approach(
    client: CrawlClient,
    school_id: int,
    graduate_years: Sequence[int],
    max_candidate_profiles: Optional[int] = None,
) -> NaturalApproachResult:
    """The without-COPPA heuristic (Section 7.1, steps 1–4).

    1. search for users listing the target school with a graduation
       year in ``graduate_years`` (recent alumni / graduating adults);
       keep those with public friend lists as the core;
    2. union their friend lists into a candidate set;
    3. fetch candidate profiles, keep the minimal-profile ones;
    4. (selection by ``n`` happens in :meth:`NaturalApproachResult.select`).
    """
    wanted = set(graduate_years)
    seeds = client.collect_seeds(school_id)

    core: Dict[int, int] = {}
    friend_lists: Dict[int, List[int]] = {}
    for uid in seeds:
        view = client.fetch_profile(uid)
        if view is None:
            continue
        affiliation = next(
            (a for a in view.high_schools if a.school_id == school_id), None
        )
        if affiliation is None or affiliation.graduation_year not in wanted:
            continue
        friends = client.fetch_friend_list(uid)
        if friends is None:
            continue
        core[uid] = affiliation.graduation_year
        friend_lists[uid] = [e.user_id for e in friends]

    listed, _ = reverse_lookup_pairs(friend_lists)
    uids, counts = np.unique(listed, return_counts=True)
    core_friend_counts = dict(zip(uids.tolist(), counts.tolist()))
    candidates = set(core_friend_counts) - set(core)

    minimal: Set[int] = set()
    to_fetch = sorted(candidates)
    if max_candidate_profiles is not None:
        to_fetch = to_fetch[:max_candidate_profiles]
    for uid in to_fetch:
        view = client.fetch_profile(uid)
        if view is not None and view.is_minimal():
            minimal.add(uid)

    return NaturalApproachResult(
        school_id=school_id,
        core=core,
        candidates=candidates,
        minimal_candidates=minimal,
        core_friend_counts=core_friend_counts,
        effort=client.effort_report(),
    )


@dataclass(frozen=True)
class ProfileRichnessComparison:
    """Section 7.3: what a profile can contain in each world.

    With COPPA the attacker gets class year, school friends and (for
    adult-registered minors) much more; without COPPA only a
    low-confidence school guess on top of the minimal profile.
    """

    with_coppa_has_year: bool = True
    with_coppa_has_friends: bool = True
    with_coppa_messageable_fraction: float = 0.0
    without_coppa_has_year: bool = False
    without_coppa_has_friends: bool = False
    without_coppa_messageable_fraction: float = 0.0
