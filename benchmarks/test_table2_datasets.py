"""Table 2: seeds, core users and candidates for the three schools.

The table aggregates the session's three enhanced runs.  Shape
assertions: seeds near school size, core ~5% of the school, candidates
an order of magnitude larger.
"""

from repro.analysis.tables import dataset_row, render_table2

from _bench_utils import emit


def test_table2_datasets(
    hs1_world, hs1_enhanced, hs2_enhanced, hs3_enhanced,
    hs2_world, hs3_world,
):
    rows = []
    for label, world, result in (
        ("HS1", hs1_world, hs1_enhanced),
        ("HS2", hs2_world, hs2_enhanced),
        ("HS3", hs3_world, hs3_enhanced),
    ):
        truth = world.ground_truth()
        on_osn = truth.on_osn_count if label == "HS1" else None  # paper: N/A
        rows.append(dataset_row(label, result, truth.enrolled_count, on_osn))

        school_size = truth.enrolled_count
        assert 0.3 * school_size <= len(result.seeds) <= 3.0 * school_size
        assert 0.01 * school_size <= result.initial_core_size <= 0.15 * school_size
        assert len(result.candidates) >= 5 * school_size
        assert result.extended_core_size >= result.initial_core_size

    emit("table2_datasets", render_table2(rows))
