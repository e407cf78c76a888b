"""Table 3: measurement effort (HTTP GETs by category).

Shape assertions match the paper: total requests for the basic
methodology are roughly 2-5x the school size; the enhanced methodology
costs a few times more; the analytic formula A*R + |S| + |C|*f/p tracks
the measured total.
"""

from repro.analysis.tables import effort_row, render_table3
from repro.crawler.effort import predicted_requests

from _bench_utils import emit


def test_table3_effort(
    hs1_world, hs2_world, hs3_world,
    hs1_basic, hs2_basic, hs3_basic,
    hs1_enhanced, hs2_enhanced, hs3_enhanced,
):
    rows = [
        effort_row("HS1", hs1_basic, hs1_enhanced),
        effort_row("HS2", hs2_basic, hs2_enhanced),
        effort_row("HS3", hs3_basic, hs3_enhanced),
    ]

    for row, world in zip(rows, (hs1_world, hs2_world, hs3_world)):
        school_size = world.ground_truth().enrolled_count
        assert row.total_basic < 8 * school_size
        assert row.total_basic < row.total_enhanced < 20 * school_size

    # The analytic effort model stays within ~35% of the measured total.
    result = hs1_basic
    mean_friends = sum(len(f) for f in result.core.friend_lists.values()) / max(
        result.initial_core_size, 1
    )
    predicted = predicted_requests(
        accounts=result.effort.accounts_used,
        requests_per_account_for_seeds=result.effort.seed_requests
        / max(result.effort.accounts_used, 1),
        seed_count=len(result.seeds),
        core_size=result.initial_core_size,
        mean_friends=mean_friends,
    )
    assert abs(predicted - result.effort.total) / result.effort.total < 0.35

    emit("table3_effort", render_table3(rows))
