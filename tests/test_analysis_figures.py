"""Tests for figure series builders and rendering."""

import pytest

from repro.analysis.figures import (
    Figure,
    Series,
    figure1,
    figure2,
    figure3,
    figure4,
    log10_gap_at_matched_coverage,
    render_figure,
)
from repro.core.countermeasures import CountermeasurePoint, CountermeasureReport
from repro.core.evaluation import CoveragePoint, FullEvaluation, PartialEvaluation


def full_eval(t, found, fp, m=100):
    return FullEvaluation(
        threshold=t,
        selected=found + fp,
        found=found,
        correct_year=found,
        false_positives=fp,
        students_on_osn=m,
    )


def partial_eval(t, pct_found, pct_fp):
    return PartialEvaluation(
        threshold=t,
        test_users=40,
        test_found=20,
        estimated_students_found=pct_found,
        estimated_found_fraction=pct_found / 100.0,
        estimated_false_positives=10,
        estimated_false_positive_rate=pct_fp / 100.0,
        test_year_accuracy=0.9,
    )


class TestSeries:
    def test_of_and_accessors(self):
        s = Series.of("a", [(1, 2), (3, 4)])
        assert s.xs() == [1, 3]
        assert s.ys() == [2, 4]

    def test_series_by_name(self):
        fig = Figure("t", "x", "y", [Series.of("a", [(1, 1)])])
        assert fig.series_by_name("a").name == "a"
        with pytest.raises(KeyError):
            fig.series_by_name("missing")


class TestRender:
    def test_columns_aligned_and_values_present(self):
        fig = Figure(
            "Demo", "t", "pct",
            [Series.of("found", [(100, 50.0), (200, 75.5)])],
        )
        out = render_figure(fig)
        assert "Demo" in out
        assert "75.5" in out
        assert "found" in out

    def test_missing_points_dashed(self):
        fig = Figure(
            "Demo", "t", "pct",
            [Series.of("a", [(1, 1.0)]), Series.of("b", [(2, 2.0)])],
        )
        out = render_figure(fig)
        assert "-" in out


class TestFigureBuilders:
    def test_figure1(self):
        fig = figure1([full_eval(200, 54, 25), full_eval(400, 84, 128)])
        found = fig.series_by_name("% of students found for HS1")
        assert found.points[0] == (200, pytest.approx(54.0))
        assert len(fig.series) == 2

    def test_figure2(self):
        fig = figure2({"HS2": [partial_eval(1000, 70, 15)]})
        assert len(fig.series) == 2
        assert fig.series[0].points[0][1] == pytest.approx(70.0)

    def test_figure3_log_scale_and_floor(self):
        with_pts = [CoveragePoint("t=300", 95, 64.0, 0)]
        without_pts = [CoveragePoint("n=1", 92, 62.0, 4480)]
        fig = figure3(with_pts, without_pts)
        assert fig.log_y
        # zero FPs floored to 1 so the log axis is well-defined
        assert fig.series_by_name("With-COPPA").points[0][1] == 1.0

    def test_figure3_gap(self):
        with_pts = [CoveragePoint("t=300", 95, 64.0, 70)]
        without_pts = [CoveragePoint("n=1", 92, 62.0, 4480)]
        gap = log10_gap_at_matched_coverage(figure3(with_pts, without_pts))
        assert gap == pytest.approx(1.806, abs=0.01)

    def test_figure3_gap_none_for_missing_series(self):
        fig = Figure("t", "x", "y", [Series.of("only", [(1, 1)])])
        assert log10_gap_at_matched_coverage(fig) is None

    def test_figure4(self, tiny_attack):
        report = CountermeasureReport(
            with_lookup=tiny_attack,
            without_lookup=tiny_attack,
            points=[CountermeasurePoint(200, 92.0, 33.0)],
        )
        fig = figure4(report)
        assert fig.series_by_name("With reverse lookup").points == ((200, 92.0),)
        assert fig.series_by_name("Without reverse lookup").points == ((200, 33.0),)
