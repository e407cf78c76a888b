"""Ablation: attack success as a function of the age-lying rate.

The paper's causal story is that COPPA-driven lying creates the core
set.  Sweeping p(lie | under 13) from 0 to 0.9, everything else fixed,
should show coverage rising steeply with the lying rate — at 0 the
attack degenerates to the without-COPPA regime.
"""

from dataclasses import replace

from repro.analysis.tables import ascii_table
from repro.core.api import run_attack
from repro.core.evaluation import evaluate_full
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit

LIE_RATES = (0.0, 0.2, 0.5, 0.8)


def test_ablation_lying_rate():
    def run_rate(rate):
        config = hs1(seed=404)
        config = replace(config, lying=replace(config.lying, p_lie_if_under_13=rate))
        world = build_world(config)
        result = run_attack(
            world,
            accounts=2,
            config=ProfilerConfig(threshold=400, enhanced=True, filtering=True),
        )
        truth = world.ground_truth()
        return (
            len(world.adult_registered_students()),
            result.extended_core_size,
            evaluate_full(result, truth, 400),
        )

    runs = [run_rate(r) for r in LIE_RATES]

    rows = [
        (
            rate,
            adult_students,
            core,
            e.found,
            f"{100 * e.found_fraction:.0f}%",
        )
        for rate, (adult_students, core, e) in zip(LIE_RATES, runs)
    ]
    emit(
        "ablation_lying_rate",
        ascii_table(
            (
                "p(lie | under 13)",
                "students registered adult",
                "extended core",
                "found (t=400)",
                "coverage",
            ),
            rows,
            title="Ablation: lying rate drives the attack (the COPPA mechanism)",
        ),
    )

    adults = [a for a, _, _ in runs]
    coverages = [e.found_fraction for _, _, e in runs]
    # More lying -> more adult-registered students -> better coverage.
    assert adults == sorted(adults)
    assert coverages[-1] > coverages[0] + 0.2
    # With no lying the attack collapses toward the seniors-only regime.
    assert coverages[0] < 0.6
