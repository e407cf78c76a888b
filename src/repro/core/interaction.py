"""Interaction-graph scoring (the paper's suggested optimization).

Section 4.3: "It is also possible to ... use interaction graphs [26],
or consider the evolution of the activity between users [25] to
optimize the results."  This module implements that suggestion on the
observable surface our OSN exposes: wall posts on public profiles carry
author ids, so the attacker can count *interactions* between candidates
and core users, not just friendships.

A candidate who merely appears in a core user's friend list might be a
distant acquaintance; one who also posts on core users' walls is almost
certainly a schoolmate.  The combined score multiplies the paper's x(u)
by an interaction boost:

    x'(u) = x(u) * (1 + alpha * log(1 + I(u)))

where I(u) is the number of wall posts by u observed on core users'
profiles.  ``alpha = 0`` recovers the paper's ranking exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping

import numpy as np

from repro.osn.view import ProfileView

from .coreset import CoreSet
from .scoring import ScoreTable, ScoringRule, score_candidates


def interaction_counts(
    core: CoreSet, profiles: Mapping[int, ProfileView]
) -> Dict[int, int]:
    """I(u): wall posts authored by u on core users' (visible) walls.

    Only the crawled profile views are consulted — the interaction graph
    is exactly what a stranger can scrape.
    """
    counts: Dict[int, int] = {}
    for core_uid in core.core:
        view = profiles.get(core_uid)
        if view is None:
            continue
        for post in view.wall_posts:
            if post.author_id != core_uid:
                counts[post.author_id] = counts.get(post.author_id, 0) + 1
    return counts


def score_with_interactions(
    core: CoreSet,
    profiles: Mapping[int, ProfileView],
    alpha: float = 0.5,
    rule: ScoringRule = ScoringRule.MAX_FRACTION,
    denominator_floor: int = 3,
) -> ScoreTable:
    """Rank candidates with the interaction-boosted score x'(u).

    Produces a :class:`ScoreTable` compatible with everything downstream
    (ranking, selection, evaluation); year assignment is unchanged —
    interactions say "schoolmate", not "which class year".
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    base = score_candidates(core, rule, denominator_floor)
    if alpha == 0:
        return base
    # A candidate without interactions keeps its score (its boost is
    # exactly 1.0), so only the posting candidates' rows are scaled.
    # math.log1p, not np.log1p: the two differ in the last bit on some
    # integers (n = 2 among them on x86-64), and the boost must not
    # depend on how the platform's numpy rounds.
    interactions = interaction_counts(core, profiles)
    posters = np.fromiter(interactions, np.int64, len(interactions))
    boost = np.array([1.0 + alpha * math.log1p(n) for n in interactions.values()])
    _, rows, found = np.intersect1d(
        base.uids, posters, assume_unique=True, return_indices=True
    )
    score = base.score.copy()
    score[rows] *= boost[found]
    return replace(base, score=score)


@dataclass(frozen=True)
class InteractionStats:
    """Summary of the observable interaction evidence."""

    core_profiles_with_walls: int
    total_posts_observed: int
    candidates_with_interactions: int

    @property
    def has_signal(self) -> bool:
        return self.candidates_with_interactions > 0


def summarize_interactions(
    core: CoreSet, profiles: Mapping[int, ProfileView]
) -> InteractionStats:
    """How much interaction evidence the crawl actually captured."""
    with_walls = sum(
        1
        for uid in core.core
        if (view := profiles.get(uid)) is not None and view.wall_posts
    )
    counts = interaction_counts(core, profiles)
    return InteractionStats(
        core_profiles_with_walls=with_walls,
        total_posts_observed=sum(counts.values()),
        candidates_with_interactions=len(counts),
    )
