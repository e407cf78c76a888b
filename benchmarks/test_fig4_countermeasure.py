"""Figure 4: coverage with and without the reverse-lookup countermeasure.

Shape assertions: with reverse lookup the attack keeps improving with
t toward ~90%; with the defence on, coverage flattens near the share of
students whose own friend lists are public (paper: 92% -> 33% at
t=500).
"""

from repro.analysis.figures import figure4, render_figure
from repro.core.countermeasures import run_countermeasure_comparison
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit, emit_figure

THRESHOLDS = (200, 250, 300, 350, 400, 450, 500)


def test_fig4_countermeasure():
    world = build_world(hs1())

    report = run_countermeasure_comparison(
        world,
        accounts=2,
        config=ProfilerConfig(threshold=500, enhanced=True, filtering=True),
        thresholds=THRESHOLDS,
    )

    last = report.points[-1]
    assert last.found_percent_with > 80          # paper: 92%
    assert last.found_percent_without < 60       # paper: 33%
    assert report.max_reduction() > 25           # a drastic collapse

    # The defence flattens the curve: little gain from raising t.
    without = [p.found_percent_without for p in report.points]
    assert without[-1] - without[0] < 10

    # The candidate pool itself shrinks (minors vanish from lists).
    assert len(report.without_lookup.candidates) < len(report.with_lookup.candidates)

    emit_figure("fig4_countermeasure", figure4(report))
