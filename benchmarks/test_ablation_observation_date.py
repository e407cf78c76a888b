"""Ablation: when in the school year the attacker strikes.

The paper notes "a fraction of the final-year students may be adults,
with the fraction increasing each month in the school year" — late-year
crawls see more genuinely-adult seniors (bigger legitimate cores) while
early-year crawls rely almost purely on liars.  This bench sweeps the
observation date across one school year.
"""

from dataclasses import replace

from repro.analysis.tables import ascii_table
from repro.core.api import run_attack
from repro.core.evaluation import evaluate_full
from repro.core.profiler import ProfilerConfig
from repro.osn.clock import school_class_year
from repro.worldgen.presets import hs1
from repro.worldgen.world import build_world

from _bench_utils import emit

#: September (start of the school year) through June (graduation).
OBSERVATION_DATES = (2011.70, 2012.00, 2012.25, 2012.45)


def test_ablation_observation_date():
    def run_date(obs):
        config = replace(hs1(seed=808), observation_year=obs)
        world = build_world(config)
        truth = world.ground_truth()
        now = world.network.clock.now_year
        senior_class = school_class_year(world.network.clock.now_year)
        seniors = truth.student_uids_by_year.get(senior_class, [])
        real_adult_seniors = sum(
            1 for uid in seniors if world.network.users[uid].real_age(now) >= 18.0
        )
        result = run_attack(
            world,
            accounts=2,
            config=ProfilerConfig(threshold=400, enhanced=True, filtering=True),
        )
        return (
            real_adult_seniors,
            len(seniors),
            result.extended_core_size,
            evaluate_full(result, truth, 400),
        )

    runs = [run_date(obs) for obs in OBSERVATION_DATES]

    rows = [
        (
            f"{obs:.2f}",
            f"{adult_seniors}/{seniors}",
            core,
            f"{100 * e.found_fraction:.0f}%",
        )
        for obs, (adult_seniors, seniors, core, e) in zip(OBSERVATION_DATES, runs)
    ]
    emit(
        "ablation_observation_date",
        ascii_table(
            (
                "observation date",
                "genuinely adult seniors",
                "extended core",
                "coverage (t=400)",
            ),
            rows,
            title="Ablation: attack timing across the school year",
        ),
    )

    # All four dates fall in the same school year (class of 2012 is the
    # senior cohort throughout), so the genuinely-adult fraction of the
    # seniors grows monotonically as the year progresses.
    adult_fractions = [adult / max(total, 1) for adult, total, _, _ in runs]
    assert adult_fractions == sorted(adult_fractions)
    # The attack works at every date (the liars, not the seniors, carry it).
    for _, _, _, e in runs:
        assert e.found_fraction > 0.5
