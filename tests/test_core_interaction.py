"""Tests for interaction-graph scoring (the paper's future-work idea)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coreset import CoreSet
from repro.core.interaction import (
    interaction_counts,
    score_with_interactions,
    summarize_interactions,
)
from repro.core.scoring import ScoringRule, score_candidates
from repro.osn.view import ProfileView, WallPostView

from tests.test_core_scoring import (
    ReferenceScore,
    ReferenceTable,
    assert_same_table,
    build_core,
    cores_strategy,
    reference_score_candidates,
)


def reference_score_with_interactions(core, profiles, alpha, rule, denominator_floor):
    """One boosted entry per candidate, as the boost worked before the
    table held arrays."""
    base = reference_score_candidates(core, rule, denominator_floor)
    if alpha == 0:
        return base
    interactions = interaction_counts(core, profiles)
    boosted = ReferenceTable(rule=rule)
    for uid, entry in base.scores.items():
        boost = 1.0 + alpha * math.log1p(interactions.get(uid, 0))
        boosted.scores[uid] = ReferenceScore(
            uid=uid,
            counts=entry.counts,
            fractions=entry.fractions,
            score=entry.score * boost,
            year=entry.year,
        )
    return boosted


def walls(authors_by_owner):
    """Profile views whose walls carry one post per listed author."""
    return {
        owner: ProfileView(
            user_id=owner,
            name="Core",
            wall_posts=tuple(WallPostView(author, "hi") for author in authors),
        )
        for owner, authors in authors_by_owner.items()
    }


def make_core_and_profiles():
    core = CoreSet(school_id=1, current_year=2012)
    core.add_core(10, 2012, [100, 101])
    core.add_core(11, 2013, [100, 102])
    profiles = {
        10: ProfileView(
            user_id=10,
            name="Core A",
            wall_post_count=3,
            wall_posts=(
                WallPostView(100, "hey"),
                WallPostView(100, "yo"),
                WallPostView(999, "spam"),
            ),
        ),
        11: ProfileView(
            user_id=11,
            name="Core B",
            wall_post_count=1,
            wall_posts=(WallPostView(100, "hi"),),
        ),
    }
    return core, profiles


class TestInteractionCounts:
    def test_counts_posts_by_author(self):
        core, profiles = make_core_and_profiles()
        counts = interaction_counts(core, profiles)
        assert counts[100] == 3
        assert counts[999] == 1
        assert 101 not in counts

    def test_self_posts_ignored(self):
        core = CoreSet(school_id=1, current_year=2012)
        core.add_core(10, 2012, [100])
        profiles = {
            10: ProfileView(
                user_id=10, name="C", wall_posts=(WallPostView(10, "me"),)
            )
        }
        assert interaction_counts(core, profiles) == {}

    def test_missing_profiles_skipped(self):
        core, _ = make_core_and_profiles()
        assert interaction_counts(core, {}) == {}


class TestBoostedScoring:
    def test_alpha_zero_is_paper_ranking(self):
        core, profiles = make_core_and_profiles()
        base = score_candidates(core)
        boosted = score_with_interactions(core, profiles, alpha=0.0)
        assert {u: s.score for u, s in base.scores.items()} == {
            u: s.score for u, s in boosted.scores.items()
        }

    def test_interacting_candidate_boosted(self):
        core, profiles = make_core_and_profiles()
        base = score_candidates(core)
        boosted = score_with_interactions(core, profiles, alpha=0.5)
        assert boosted.scores[100].score > base.scores[100].score
        # 101 never posted: unchanged.
        assert boosted.scores[101].score == pytest.approx(base.scores[101].score)

    def test_year_assignment_unchanged(self):
        core, profiles = make_core_and_profiles()
        base = score_candidates(core)
        boosted = score_with_interactions(core, profiles, alpha=1.0)
        for uid in base.scores:
            assert base.scores[uid].year == boosted.scores[uid].year

    def test_negative_alpha_rejected(self):
        core, profiles = make_core_and_profiles()
        with pytest.raises(ValueError):
            score_with_interactions(core, profiles, alpha=-0.1)


class TestMatchesReference:
    @given(
        cores_strategy,
        st.dictionaries(st.integers(0, 30), st.lists(st.integers(0, 40), max_size=8)),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.sampled_from(list(ScoringRule)),
        st.integers(1, 5),
        st.sets(st.integers(0, 40), max_size=10),
    )
    # Two posts by candidate 100: np.log1p(2) and math.log1p(2) differ
    # in the last bit on x86-64, and so would the boosted score.
    @example({10: (0, [100, 101])}, {10: [100, 100]}, 0.5,
             ScoringRule.MAX_FRACTION, 2, set())
    @settings(max_examples=200, deadline=None)
    def test_boosted_table_matches_reference(
        self, owners, authors, alpha, rule, floor, exclude
    ):
        core = build_core(owners)
        profiles = walls(authors)
        assert_same_table(
            score_with_interactions(core, profiles, alpha, rule, floor),
            reference_score_with_interactions(core, profiles, alpha, rule, floor),
            exclude,
        )


class TestSummary:
    def test_summary_counts(self):
        core, profiles = make_core_and_profiles()
        stats = summarize_interactions(core, profiles)
        assert stats.core_profiles_with_walls == 2
        assert stats.total_posts_observed == 4
        assert stats.candidates_with_interactions == 2
        assert stats.has_signal


class TestOnRealWorld:
    def test_interaction_signal_exists_in_crawled_data(self, tiny_attack):
        stats = summarize_interactions(tiny_attack.core, tiny_attack.profiles)
        assert stats.core_profiles_with_walls > 0
        assert stats.has_signal

    def test_boost_does_not_hurt_coverage(self, tiny_world, tiny_attack):
        from repro.core.evaluation import evaluate_full
        from repro.core.profiler import AttackResult

        boosted_table = score_with_interactions(
            tiny_attack.core, tiny_attack.profiles, alpha=0.5
        )
        ranking = [
            uid
            for uid in boosted_table.ranked(exclude=set(tiny_attack.core.claimed))
            if uid not in tiny_attack.filtered_out
        ]
        boosted = AttackResult(
            school=tiny_attack.school,
            config=tiny_attack.config,
            current_year=tiny_attack.current_year,
            seeds=tiny_attack.seeds,
            core=tiny_attack.core,
            initial_core_size=tiny_attack.initial_core_size,
            initial_claimed_size=tiny_attack.initial_claimed_size,
            candidates=tiny_attack.candidates,
            scores=boosted_table,
            ranking=ranking,
            filtered_out=tiny_attack.filtered_out,
            profiles=tiny_attack.profiles,
            threshold=tiny_attack.threshold,
            effort=tiny_attack.effort,
        )
        truth = tiny_world.ground_truth()
        base_eval = evaluate_full(tiny_attack, truth, 80)
        boost_eval = evaluate_full(boosted, truth, 80)
        assert boost_eval.found >= base_eval.found - 5
