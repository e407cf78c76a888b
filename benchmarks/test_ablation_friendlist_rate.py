"""Ablation: how much do *users'* friend-list settings protect them?

A behavioural (rather than site- or law-side) defence: what if fewer
adult-registered students kept their friend lists public?  Sweeping the
public-friend-list rate isolates the user-behaviour lever the paper's
Table 5 measures — and shows why it is weak: reverse lookup needs only
a handful of public lists to expose everyone else.
"""

from dataclasses import replace

from repro.analysis.tables import ascii_table
from repro.core.api import run_attack
from repro.core.evaluation import evaluate_full
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit

RATES = (0.10, 0.30, 0.50, 0.80)


def test_ablation_friendlist_rate():
    def run_rate(rate):
        config = hs1(seed=909)
        config = replace(
            config,
            students=replace(config.students, p_adult_friend_list_public=rate),
            alumni=replace(config.alumni, p_friend_list_public=rate),
        )
        world = build_world(config)
        result = run_attack(
            world,
            accounts=2,
            config=ProfilerConfig(threshold=400, enhanced=True, filtering=True),
        )
        return result.extended_core_size, evaluate_full(
            result, world.ground_truth(), 400
        )

    runs = [run_rate(r) for r in RATES]

    rows = [
        (f"{rate:.0%}", core, f"{100 * e.found_fraction:.0f}%", e.false_positives)
        for rate, (core, e) in zip(RATES, runs)
    ]
    emit(
        "ablation_friendlist_rate",
        ascii_table(
            (
                "public friend-list rate",
                "core size",
                "students found (t=400)",
                "false positives",
            ),
            rows,
            title="Ablation: user-behaviour defence (hiding friend lists)",
        ),
    )

    coverages = [e.found_fraction for _, e in runs]
    cores = [core for core, _ in runs]
    # More public lists -> bigger core and (weakly) better coverage...
    assert cores == sorted(cores)
    assert coverages[-1] >= coverages[0]
    # ...but even at a 30% public rate the attack still recovers a
    # majority: individual privacy hygiene cannot fix a structural leak.
    assert runs[1][1].found_fraction > 0.5
