"""Tests for the end-to-end profiler on the tiny world."""

import pytest

from repro.core.api import make_client, run_attack
from repro.core.profiler import ProfilerConfig
from repro.crawler.storage import CrawlStore


class TestAttackResultStructure:
    def test_core_is_subset_of_claims_and_seeds_flow(self, tiny_attack):
        result = tiny_attack
        assert set(result.core.core) <= set(result.core.claimed)
        assert result.initial_core_size <= result.extended_core_size

    def test_candidates_exclude_core(self, tiny_attack):
        assert not (tiny_attack.candidates & set(tiny_attack.core.core))
        assert tiny_attack.candidates == tiny_attack.core.candidate_set()

    def test_ranking_excludes_claimed_and_filtered(self, tiny_attack):
        ranked = set(tiny_attack.ranking)
        assert not (ranked & set(tiny_attack.core.claimed))
        assert not (ranked & set(tiny_attack.filtered_out))

    def test_ranking_sorted_by_score(self, tiny_attack):
        scores = [tiny_attack.scores.scores[uid].score for uid in tiny_attack.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_select_size(self, tiny_attack):
        t = 50
        selection = tiny_attack.select(t)
        expected = min(t, len(tiny_attack.ranking)) + len(
            [u for u in tiny_attack.core.claimed if u not in tiny_attack.ranking[:t]]
        )
        assert len(selection) == expected

    def test_select_monotone_in_t(self, tiny_attack):
        small = set(tiny_attack.select(30))
        large = set(tiny_attack.select(90))
        assert small <= large

    def test_claimed_years_kept_in_selection(self, tiny_attack):
        selection = tiny_attack.select(50)
        for uid, year in tiny_attack.core.claimed.items():
            assert selection[uid] == year

    def test_top_candidates_length(self, tiny_attack):
        assert len(tiny_attack.top_candidates(10)) == 10

    def test_effort_nonzero(self, tiny_attack):
        effort = tiny_attack.effort
        assert effort.seed_requests > 0
        assert effort.profile_requests > 0
        assert effort.friend_list_requests > 0
        assert effort.accounts_used == 2


class TestVariants:
    def test_enhanced_extends_core(self, tiny_world):
        basic = run_attack(tiny_world, accounts=2, config=ProfilerConfig(threshold=120))
        enhanced = run_attack(
            tiny_world, accounts=2, config=ProfilerConfig(threshold=120, enhanced=True)
        )
        assert enhanced.extended_core_size >= basic.extended_core_size
        assert enhanced.extended_core_size >= enhanced.initial_core_size

    def test_basic_does_not_extend(self, tiny_world):
        basic = run_attack(tiny_world, accounts=2, config=ProfilerConfig(threshold=120))
        assert basic.extended_core_size == basic.initial_core_size

    def test_filtering_populates_filtered_out(self, tiny_world):
        filtered = run_attack(
            tiny_world, accounts=2, config=ProfilerConfig(threshold=120, filtering=True)
        )
        assert filtered.filtered_out  # churned/moved candidates exist

    def test_enhanced_costs_more_requests(self, tiny_world):
        basic = run_attack(tiny_world, accounts=2, config=ProfilerConfig(threshold=120))
        enhanced = run_attack(
            tiny_world, accounts=2, config=ProfilerConfig(threshold=120, enhanced=True)
        )
        assert enhanced.effort.total > basic.effort.total

    def test_threshold_defaults_to_enrollment_hint(self, tiny_world):
        result = run_attack(tiny_world, accounts=1, config=ProfilerConfig())
        assert result.threshold == tiny_world.school().enrollment_hint

    def test_epsilon_zero_fetches_fewer_profiles(self, tiny_world):
        eps0 = run_attack(
            tiny_world,
            accounts=2,
            config=ProfilerConfig(threshold=120, enhanced=True, epsilon=0.0),
        )
        eps1 = run_attack(
            tiny_world,
            accounts=2,
            config=ProfilerConfig(threshold=120, enhanced=True, epsilon=1.0),
        )
        assert eps0.effort.profile_requests < eps1.effort.profile_requests


class TestStoreIntegration:
    def test_crawl_recorded_in_store(self, tiny_world):
        store = CrawlStore(":memory:")
        result = run_attack(
            tiny_world,
            accounts=2,
            config=ProfilerConfig(threshold=120, enhanced=True),
            store=store,
        )
        assert store.load_seeds(tiny_world.school().school_id) == result.seeds
        assert store.profile_count() == len(result.profiles)
        assert store.owners_with_friend_lists() == set(result.core.friend_lists)


class TestConfigPresets:
    def test_named_constructors(self):
        assert not ProfilerConfig.basic().enhanced
        assert ProfilerConfig.basic_filtered().filtering
        assert ProfilerConfig.enhanced_only(300).enhanced
        combo = ProfilerConfig.enhanced_filtered(300)
        assert combo.enhanced and combo.filtering and combo.threshold == 300
