"""Figure 1: HS1 coverage and false-positive percentage vs threshold t.

Shape assertions: both series increase with t; coverage exceeds 80%
by t=400 while the FP rate stays below the coverage curve (the paper's
operating-point trade-off).
"""

from repro.analysis.figures import figure1, render_figure
from repro.core.evaluation import sweep_full

from _bench_utils import emit, emit_figure

THRESHOLDS = (200, 250, 300, 350, 400, 450, 500)


def test_fig1_hs1_sweep(hs1_world, hs1_enhanced):
    truth = hs1_world.ground_truth()

    evals = sweep_full(hs1_enhanced, truth, THRESHOLDS)
    fig = figure1(evals)

    found = fig.series_by_name("% of students found for HS1").ys()
    fps = fig.series_by_name("% of false positives for HS1").ys()

    assert found == sorted(found)                 # coverage monotone in t
    assert fps == sorted(fps)                     # FP rate monotone in t
    assert found[-1] > 72                         # paper: 92% at t=500
    assert fps[0] < 30                            # paper: 13% at t=200
    assert all(f > p for f, p in zip(found, fps))  # found curve dominates

    emit_figure("fig1_hs1_sweep", fig)
