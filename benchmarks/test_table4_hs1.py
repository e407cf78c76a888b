"""Table 4: HS1 found/correct-year grid over four variants x four thresholds.

Shape assertions (the paper's comparative claims):
* the enhanced methodology beats the basic one at small thresholds;
* filtering reduces false positives at t=200;
* its advantage shrinks or reverses by t=500;
* the best variant recovers most of the student body at t=400.
"""

from repro.analysis.tables import render_table4
from repro.core.evaluation import evaluate_full, sweep_full

from _bench_utils import emit

THRESHOLDS = (200, 300, 400, 500)


def test_table4_hs1_grid(hs1_world, hs1_runs):
    truth = hs1_world.ground_truth()

    grid = {
        variant: sweep_full(result, truth, THRESHOLDS)
        for variant, result in hs1_runs.items()
    }

    basic = {e.threshold: e for e in grid["Basic methodology without filtering"]}
    enhanced = {e.threshold: e for e in grid["Enhanced methodology without filtering"]}
    enh_filtered = {e.threshold: e for e in grid["Enhanced methodology with filtering"]}

    # Enhanced >= basic at the small threshold.
    assert enhanced[200].found >= basic[200].found
    # Filtering cuts FPs at t=200...
    assert enh_filtered[200].false_positives <= enhanced[200].false_positives
    # ...but its advantage shrinks at t=500 (the paper's crossover).
    gain_small = enhanced[200].false_positives - enh_filtered[200].false_positives
    gain_large = enhanced[500].false_positives - enh_filtered[500].false_positives
    assert gain_large <= gain_small + 10
    # Headline: most of the school at t=400, high year accuracy.
    best = enh_filtered[400]
    assert best.found_fraction > 0.7
    assert best.year_accuracy > 0.85

    m = truth.on_osn_count
    emit(
        "table4_hs1",
        render_table4(grid, THRESHOLDS)
        + f"\n(|M| = {m} HS1 students with accounts)",
    )
