"""Section 5.6's summary: coverage and FP rates for all three schools.

The paper reports 83% / 85% / 79% of students found with 32% / 22% /
29% false positives.  We assert the same regime: >=65% coverage with
<=55% false positives at t near each school's size.
"""

from repro.analysis.tables import ascii_table
from repro.core.evaluation import evaluate_full

from _bench_utils import emit


def test_summary_three_schools(
    hs1_world, hs2_world, hs3_world,
    hs1_enhanced, hs2_enhanced, hs3_enhanced,
):
    plans = (
        ("HS1", hs1_world, hs1_enhanced, 400),
        ("HS2", hs2_world, hs2_enhanced, 1500),
        ("HS3", hs3_world, hs3_enhanced, 1500),
    )

    evaluations = [
        (label, evaluate_full(result, world.ground_truth(), t))
        for label, world, result, t in plans
    ]

    rows = []
    for label, e in evaluations:
        rows.append(
            (
                label,
                e.threshold,
                f"{100 * e.found_fraction:.0f}%",
                f"{100 * e.false_positive_rate:.0f}%",
                f"{100 * e.year_accuracy:.0f}%",
            )
        )
        assert e.found_fraction >= 0.65, label   # paper: 79-85%
        assert e.false_positive_rate <= 0.55, label  # paper: 22-32%
        assert e.year_accuracy >= 0.8, label     # paper: ~92%

    emit(
        "summary_three_schools",
        ascii_table(
            ("School", "t", "students found", "false positives", "year accuracy"),
            rows,
            title="Section 5.6 summary (paper: 83%/85%/79% found at 32%/22%/29% FPs)",
        ),
    )
