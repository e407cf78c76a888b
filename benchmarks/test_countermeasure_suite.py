"""Defence portfolio (Section 8 broadened): which countermeasure works?

Evaluates five defences under identical attack conditions on HS1-scale
worlds.  Expected ordering: no_school_search (kills the attack) >
age_verification (the law-side fix) ≈/> no_reverse_lookup (the paper's
site-side fix) >> tiny_search_cap (barely helps) >= baseline.
"""

from repro.analysis.tables import ascii_table
from repro.core.countermeasures import run_countermeasure_suite
from repro.core.profiler import ProfilerConfig
from repro.worldgen.presets import hs1

from _bench_utils import emit


def test_countermeasure_suite():
    outcomes = run_countermeasure_suite(
        hs1(seed=606),
        accounts=2,
        config=ProfilerConfig(threshold=400, enhanced=True, filtering=True),
        t=400,
        throttled_search_cap=60,
    )
    by_name = {o.name: o for o in outcomes}

    rows = [
        (o.name, f"{o.found_percent:.0f}%", o.false_positives, o.core_size, o.seeds)
        for o in outcomes
    ]
    emit(
        "countermeasure_suite",
        ascii_table(
            ("defence", "students found", "false positives", "core", "seeds"),
            rows,
            title="Section 8 broadened: defence portfolio vs the attack",
        ),
    )

    baseline = by_name["baseline"].found_percent
    assert baseline > 70
    # The paper's defence and the law-side fix both gut the attack...
    assert by_name["no_reverse_lookup"].found_percent < baseline - 20
    assert by_name["age_verification"].found_percent < baseline - 20
    # ...blocking school search kills it outright...
    assert by_name["no_school_search"].found_percent == 0.0
    # ...while throttling search to 60 results/account only partially
    # mitigates: even a thin core carries the attack a long way.
    assert by_name["tiny_search_cap"].seeds < by_name["baseline"].seeds / 2
    assert by_name["tiny_search_cap"].found_percent > 35
