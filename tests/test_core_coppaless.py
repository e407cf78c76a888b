"""Tests for the Section-7 without-COPPA analysis."""

import pytest

from repro.core.api import make_client
from repro.core.coppaless import run_natural_approach
from repro.core.evaluation import natural_approach_points, with_coppa_minimal_points


@pytest.fixture(scope="module")
def natural(tiny_world):
    client = make_client(tiny_world, 2)
    current = tiny_world.network.clock.current_year
    return run_natural_approach(
        client, tiny_world.school().school_id, [current - 1, current - 2]
    )


class TestNaturalApproach:
    def test_core_is_recent_graduates(self, natural, tiny_world):
        current = tiny_world.network.clock.current_year
        assert natural.core
        assert all(year in (current - 1, current - 2) for year in natural.core.values())

    def test_candidates_exclude_core(self, natural):
        assert not (natural.candidates & set(natural.core))

    def test_minimal_candidates_subset(self, natural):
        assert natural.minimal_candidates <= natural.candidates

    def test_core_friend_counts_positive(self, natural):
        assert all(v >= 1 for v in natural.core_friend_counts.values())

    def test_selection_shrinks_with_n(self, natural):
        sizes = [len(natural.select(n)) for n in (1, 2, 3)]
        assert sizes == sorted(sizes, reverse=True)

    def test_selection_nested(self, natural):
        assert natural.select(3) <= natural.select(2) <= natural.select(1)

    def test_bad_n_rejected(self, natural):
        with pytest.raises(ValueError):
            natural.select(0)


class TestFigure3Points:
    def test_without_coppa_points_shape(self, natural, tiny_world):
        minimal = tiny_world.minimal_profile_students()
        points = natural_approach_points(natural, minimal)
        assert [p.label for p in points] == ["n=1", "n=2", "n=3"]
        for p in points:
            assert 0 <= p.found_percent <= 100
            assert p.false_positives >= 0

    def test_with_coppa_points_shape(self, tiny_attack, tiny_world):
        minimal = tiny_world.minimal_profile_students()
        points = with_coppa_minimal_points(tiny_attack, minimal, (60, 90, 120))
        assert len(points) == 3
        founds = [p.found for p in points]
        assert founds == sorted(founds)

    def test_empty_truth_rejected(self, natural, tiny_attack):
        with pytest.raises(ValueError):
            natural_approach_points(natural, set())
        with pytest.raises(ValueError):
            with_coppa_minimal_points(tiny_attack, set())

    def test_papers_headline_direction(self, natural, tiny_attack, tiny_world):
        """At comparable coverage, without-COPPA has far more FPs."""
        minimal = tiny_world.minimal_profile_students()
        without = natural_approach_points(natural, minimal, ns=(1,))[0]
        with_pts = with_coppa_minimal_points(tiny_attack, minimal, (60, 90, 120))
        closest = min(
            with_pts, key=lambda p: abs(p.found_percent - without.found_percent)
        )
        assert without.false_positives > 3 * max(closest.false_positives, 1)


class TestCounterfactualWorld:
    def test_main_attack_degrades_without_coppa(self, tiny_world):
        """In a truthful world the search yields no lying minors, so the
        core shrinks to (at most) real-adult seniors and coverage of the
        lower years collapses."""
        from repro.core.api import run_attack
        from repro.core.evaluation import evaluate_full
        from repro.core.profiler import ProfilerConfig
        from repro.worldgen.presets import tiny
        from repro.worldgen.world import build_world

        counter_world = build_world(tiny(seed=7).without_coppa())
        result = run_attack(
            counter_world, accounts=2, config=ProfilerConfig(threshold=120)
        )
        truth = counter_world.ground_truth()
        current = counter_world.network.clock.current_year
        # Core users can only be (claimed) seniors - never lower years.
        assert all(year == current for year in result.core.core.values())
        lower_years = {
            uid
            for year in (current + 1, current + 2, current + 3)
            for uid in truth.student_uids_by_year.get(year, [])
        }
        selection = set(result.select(120))
        lower_found = len(selection & lower_years)
        coppa_eval = evaluate_full(result, truth, 120)
        # Coverage of the school collapses versus the with-COPPA tiny run.
        assert coppa_eval.found_fraction < 0.55
        assert lower_found / max(len(lower_years), 1) < 0.6
