"""Ablation: interaction-graph boost (the paper's future-work optimization).

Compares the paper's friendship-only ranking against the
interaction-boosted one, sweeping alpha.  Expected shape: candidates
with observed wall interactions are overwhelmingly true schoolmates, so
a moderate boost improves (or at least preserves) precision at small
thresholds at zero extra crawling cost.
"""

from repro.analysis.tables import ascii_table
from repro.core.evaluation import evaluate_full
from repro.core.interaction import (
    score_with_interactions,
    summarize_interactions,
)
from repro.core.profiler import AttackResult

from _bench_utils import emit

ALPHAS = (0.0, 0.25, 0.5, 1.0)


def _with_table(result: AttackResult, table) -> AttackResult:
    ranking = [
        uid
        for uid in table.ranked(exclude=set(result.core.claimed))
        if uid not in result.filtered_out
    ]
    return AttackResult(
        school=result.school,
        config=result.config,
        current_year=result.current_year,
        seeds=result.seeds,
        core=result.core,
        initial_core_size=result.initial_core_size,
        initial_claimed_size=result.initial_claimed_size,
        candidates=result.candidates,
        scores=table,
        ranking=ranking,
        filtered_out=result.filtered_out,
        profiles=result.profiles,
        threshold=result.threshold,
        effort=result.effort,
    )


def test_ablation_interaction_boost(hs1_world, hs1_enhanced):
    truth = hs1_world.ground_truth()
    stats = summarize_interactions(hs1_enhanced.core, hs1_enhanced.profiles)
    assert stats.has_signal, "crawl captured no interaction evidence"

    evals = {}
    for alpha in ALPHAS:
        table = score_with_interactions(
            hs1_enhanced.core, hs1_enhanced.profiles, alpha=alpha
        )
        evals[alpha] = evaluate_full(_with_table(hs1_enhanced, table), truth, 200)

    rows = [
        (alpha, e.found, e.false_positives, f"{100 * e.year_accuracy:.0f}%")
        for alpha, e in evals.items()
    ]
    emit(
        "ablation_interactions",
        ascii_table(
            ("alpha", "found (t=200)", "false positives", "year accuracy"),
            rows,
            title=(
                "Ablation: interaction-graph boost "
                f"({stats.total_posts_observed} posts observed on "
                f"{stats.core_profiles_with_walls} core walls)"
            ),
        ),
    )

    base = evals[0.0]
    best = max(evals.values(), key=lambda e: e.found)
    # The boost never costs much coverage, and some alpha matches or
    # beats the paper's ranking (at zero extra requests).
    assert best.found >= base.found
    for e in evals.values():
        assert e.found >= base.found - 15
