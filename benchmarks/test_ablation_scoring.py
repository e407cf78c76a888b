"""Ablation: the paper's max-fraction score vs sum-of-fractions vs raw count.

The paper's x(u) = max_i |G_i(u)|/|C_i| both ranks candidates and
assigns class years.  We compare it against two plausible alternatives
on identical crawled data.  Expected shape: max-fraction and
sum-fraction rank similarly; raw count (unnormalised) misassigns years
when the per-year core sizes are imbalanced.
"""

from repro.analysis.tables import ascii_table
from repro.core.evaluation import evaluate_full
from repro.core.profiler import AttackResult
from repro.core.scoring import ScoringRule, score_candidates

from _bench_utils import emit


def rescore(result: AttackResult, rule: ScoringRule) -> AttackResult:
    """A copy of the attack result ranked under a different rule."""
    scores = score_candidates(result.core, rule)
    ranking = [
        uid
        for uid in scores.ranked(exclude=set(result.core.claimed))
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
        scores=scores,
        ranking=ranking,
        filtered_out=result.filtered_out,
        profiles=result.profiles,
        threshold=result.threshold,
        effort=result.effort,
    )


def test_ablation_scoring_rules(hs1_world, hs1_enhanced):
    truth = hs1_world.ground_truth()

    evals = {
        rule: evaluate_full(rescore(hs1_enhanced, rule), truth, 400)
        for rule in ScoringRule
    }

    rows = [
        (
            rule.value,
            e.found,
            e.false_positives,
            f"{100 * e.year_accuracy:.0f}%",
        )
        for rule, e in evals.items()
    ]
    emit(
        "ablation_scoring",
        ascii_table(
            ("scoring rule", "students found (t=400)", "false positives", "year accuracy"),
            rows,
            title="Ablation: scoring rule (paper uses max_fraction)",
        ),
    )

    max_frac = evals[ScoringRule.MAX_FRACTION]
    raw = evals[ScoringRule.RAW_COUNT]
    # The paper's rule matches or beats raw counting on coverage, and
    # every rule recovers a majority of the school.
    assert max_frac.found >= raw.found - 10
    for e in evals.values():
        assert e.found_fraction > 0.5
