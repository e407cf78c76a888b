"""Figure 3: with- vs without-COPPA false positives (log scale).

The apples-to-apples comparison on HS1's minimal-profile students:
the with-COPPA attack (top-t minimal-profile users) against the
Section-7.1 natural approach (recent-graduate cores, n-core-friend
filter).  Headline shape: at matched coverage the without-COPPA
attacker pays one to two orders of magnitude more false positives.

Also runs the direct counterfactual the paper could not: the same
methodology inside an actual no-age-ban, no-lying world.
"""

from repro.analysis.figures import figure3, log10_gap_at_matched_coverage, render_figure
from repro.core.api import make_client, run_attack
from repro.core.coppaless import run_natural_approach
from repro.core.evaluation import (
    evaluate_full,
    natural_approach_points,
    with_coppa_minimal_points,
)
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit, emit_figure


def test_fig3_coppaless(hs1_world, hs1_enhanced):
    minimal_truth = hs1_world.minimal_profile_students()
    current = hs1_world.network.clock.current_year

    natural = run_natural_approach(
        make_client(hs1_world, 2),
        hs1_world.school().school_id,
        [current - 1, current - 2],
    )

    with_points = with_coppa_minimal_points(hs1_enhanced, minimal_truth, (300, 400, 500))
    without_points = natural_approach_points(natural, minimal_truth, ns=(1, 2, 3))
    fig = figure3(with_points, without_points)

    # The paper's headline: an order-of-magnitude-plus FP gap.
    gap = log10_gap_at_matched_coverage(fig)
    assert gap is not None and gap > 1.0

    # Without-COPPA trades coverage against floods of minimal profiles.
    n1 = without_points[0]
    assert n1.false_positives > 10 * max(p.false_positives for p in with_points)

    extra = (
        f"\nlog10 false-positive gap at matched coverage: {gap:.2f}"
        f"\nnatural-approach core (recent graduates with public lists): "
        f"{len(natural.core)}; candidates: {len(natural.candidates)}; "
        f"minimal-profile candidates: {len(natural.minimal_candidates)}"
    )
    emit("fig3_coppaless", render_figure(fig) + extra)
    emit_figure("fig3_coppaless_plot", fig)


def test_fig3_direct_counterfactual():
    """A world with no age ban: the main attack collapses (Section 7.3)."""
    counter_world = build_world(hs1().without_coppa())

    result = run_attack(
        counter_world,
        accounts=2,
        config=ProfilerConfig(threshold=500, enhanced=True, filtering=True),
    )
    truth = counter_world.ground_truth()
    current = counter_world.network.clock.current_year
    evaluation = evaluate_full(result, truth, 400)

    # Core users can only be genuinely adult (mostly seniors).
    now = counter_world.network.clock.now_year
    for uid in result.core.core:
        assert counter_world.network.users[uid].real_age(now) >= 18.0
    # Coverage collapses versus the with-COPPA world's ~88%.
    assert evaluation.found_fraction < 0.6

    emit(
        "fig3_direct_counterfactual",
        "Direct without-COPPA counterfactual (same seed, truthful ages):\n"
        f"  core users: {result.extended_core_size} (all real adults)\n"
        f"  students found at t=400: {evaluation.found} "
        f"({100 * evaluation.found_fraction:.0f}% vs ~88% with COPPA)\n"
        f"  false positives: {evaluation.false_positives}",
    )
