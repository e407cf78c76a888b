"""Ablation: the contribution of each Section-4.4 filter rule.

Runs the enhanced methodology with all rules, no rules, and each rule
alone.  Expected shape: every individual rule removes some false
positives without destroying coverage; the combination removes the
most at small t.
"""

from repro.analysis.tables import ascii_table
from repro.core.api import run_attack
from repro.core.evaluation import evaluate_full
from repro.core.filtering import ALL_RULES, FilterConfig
from repro.core.profiler import ProfilerConfig

from _bench_utils import emit


def test_ablation_filter_rules(hs1_world):
    truth = hs1_world.ground_truth()
    variants = {"all rules": FilterConfig(), "no rules": FilterConfig.none()}
    for rule in ALL_RULES:
        variants[f"only {rule}"] = FilterConfig.only(rule)

    def run_variant(config):
        result = run_attack(
            hs1_world,
            accounts=2,
            config=ProfilerConfig(
                threshold=400, enhanced=True, filtering=True, filter_config=config
            ),
        )
        return result, evaluate_full(result, truth, 200)

    runs = {name: run_variant(cfg) for name, cfg in variants.items()}

    rows = [
        (name, len(result.filtered_out), e.found, e.false_positives)
        for name, (result, e) in runs.items()
    ]
    emit(
        "ablation_filters",
        ascii_table(
            ("filter variant", "candidates removed", "found (t=200)", "false positives"),
            rows,
            title="Ablation: Section 4.4 filter rules, one at a time",
        ),
    )

    all_rules = runs["all rules"][1]
    no_rules = runs["no rules"][1]
    # Full filtering cuts false positives at the small threshold...
    assert all_rules.false_positives <= no_rules.false_positives
    # ...without collapsing coverage.
    assert all_rules.found >= 0.85 * no_rules.found
    # Each single rule removes someone and keeps the attack working.
    for rule in ALL_RULES:
        result, e = runs[f"only {rule}"]
        assert len(result.filtered_out) > 0, rule
        assert e.found_fraction > 0.4, rule
