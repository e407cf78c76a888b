"""Figure 2: HS2/HS3 estimated coverage/FP vs threshold (partial ground truth).

Reproduces the paper's Section-5.5 regime end to end: a second,
disjoint crawl with four more fake accounts collects test users, and
the estimator produces the Figure-2 series.  Shape assertions: coverage
rises with t to the ~80%+ range around t = school size, and the
estimates roughly agree with the exact numbers our worlds also provide.
"""

import pytest

from repro.analysis.figures import figure2, render_figure
from repro.core.api import make_client
from repro.core.evaluation import (
    collect_test_users,
    evaluate_full,
    evaluate_partial,
    sweep_partial,
)

from _bench_utils import emit, emit_figure

THRESHOLDS = (500, 750, 1000, 1250, 1500, 1750, 2000)


def test_fig2_hs23_sweep(hs2_world, hs3_world, hs2_enhanced, hs3_enhanced):
    def collect(world, result):
        client = make_client(world, 4)
        return collect_test_users(
            client, world.school().school_id, exclude=result.seeds
        )

    test_users_hs2 = collect(hs2_world, hs2_enhanced)
    test_users_hs3 = collect(hs3_world, hs3_enhanced)
    assert len(test_users_hs2) >= 5, "second crawl found too few test users"
    assert len(test_users_hs3) >= 5

    series = {}
    for label, world, result, test_users in (
        ("HS2", hs2_world, hs2_enhanced, test_users_hs2),
        ("HS3", hs3_world, hs3_enhanced, test_users_hs3),
    ):
        size = world.ground_truth().enrolled_count
        evals = sweep_partial(result, test_users, size, THRESHOLDS)
        series[label] = evals

        found = [e.found_percent for e in evals]
        assert found == sorted(found)
        assert found[-1] > 60  # paper: ~85% at t=1500 for HS2

        # Estimator vs exact (our worlds have full ground truth too).
        exact = evaluate_full(result, world.ground_truth(), 1500)
        est = evaluate_partial(result, test_users, size, 1500)
        assert est.estimated_found_fraction == pytest.approx(
            exact.found_fraction, abs=0.3
        )

    emit_figure("fig2_hs23_sweep", figure2(series))
