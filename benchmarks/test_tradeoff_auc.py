"""Trade-off curves: rank the four methodology variants by AUC.

Single-threshold comparisons (Table 4) depend on the chosen t; the
coverage-vs-false-positive curve over the whole sweep is the
threshold-free comparison.  Expected shape: enhanced variants dominate
basic ones on AUC, and every variant is far above the candidate-set
base rate (a random ranking).
"""

from repro.analysis.metrics import tradeoff_curve
from repro.analysis.tables import ascii_table

from _bench_utils import emit

THRESHOLDS = (100, 200, 300, 400, 500, 700, 1000)


def test_tradeoff_auc(hs1_world, hs1_runs):
    truth = hs1_world.ground_truth()

    curves = {
        variant: tradeoff_curve(result, truth, THRESHOLDS)
        for variant, result in hs1_runs.items()
    }

    rows = []
    aucs = {}
    for variant, curve in curves.items():
        auc = curve.normalized_auc()
        aucs[variant] = auc
        rows.append(
            (
                variant,
                f"{auc:.3f}",
                f"{100 * curve.coverage_at_fp_budget(100):.0f}%",
            )
        )
    emit(
        "tradeoff_auc",
        ascii_table(
            ("methodology", "normalized AUC", "coverage within 100 FPs"),
            rows,
            title="Threshold-free comparison: coverage/FP AUC per variant",
        ),
    )

    base_rate = truth.on_osn_count / max(
        len(hs1_runs["Basic methodology without filtering"].candidates), 1
    )
    # Every variant crushes a random ranking...
    for auc in aucs.values():
        assert auc > 5 * base_rate
    # ...and the enhanced methodology beats the basic one overall.
    assert (
        aucs["Enhanced methodology without filtering"]
        >= aucs["Basic methodology without filtering"]
    )
