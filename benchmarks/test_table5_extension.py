"""Table 5: extending the profiles of minors registered as adults.

Also reproduces the Section-6.1 statistic: average reverse-lookup
friends recovered per *registered minor* (paper: 38/141/129).
Shape assertions: most adult-registered minors expose public friend
lists, public search and the Message link; registered minors still get
a non-trivial reverse-lookup friend list despite showing nothing.
"""

from repro.analysis.tables import ascii_table, render_table5
from repro.core.api import make_client
from repro.core.extension import (
    build_extended_profiles,
    registered_minor_friend_average,
    table5_stats,
)

from _bench_utils import emit


def test_table5_extension(
    hs1_world, hs2_world, hs3_world,
    hs1_enhanced, hs2_enhanced, hs3_enhanced,
):
    plans = (
        ("HS1", hs1_world, hs1_enhanced, 400),
        ("HS2", hs2_world, hs2_enhanced, 1500),
        ("HS3", hs3_world, hs3_enhanced, 1500),
    )

    stats = {}
    minor_rows = []
    for label, world, result, t in plans:
        extended = build_extended_profiles(result, make_client(world, 2), t=t)
        first_three = result.core.years[1:]
        stats[label] = table5_stats(extended, first_three)
        count, avg = registered_minor_friend_average(extended, first_three)
        minor_rows.append((label, count, f"{avg:.0f}"))

        s = stats[label]
        assert s.count > 0
        assert s.pct_friend_list_public > 50   # paper: 73-87%
        assert s.pct_message_link > 60         # paper: 86-91%
        assert s.pct_public_search > 50        # paper: 71-86%
        assert s.avg_photos > 5                # paper: 19-57
        assert avg > 5                         # paper: 38-141

    emit(
        "table5_extension",
        render_table5(stats)
        + "\n\n"
        + ascii_table(
            ("School", "# registered minors profiled", "avg reverse-lookup friends"),
            minor_rows,
            title="Section 6.1: friends recovered for registered minors",
        ),
    )
