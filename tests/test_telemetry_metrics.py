"""Tests for the metrics fold: series per label, histograms, exposition."""

import pytest

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    FAMILIES,
    Histogram,
    fold_metrics,
    render_prometheus,
)


def _request(account=1, category="seeds", outcome="ok", wall_seconds=0.5, delay=2.0):
    fields = dict(
        account=account,
        category=category,
        path="/profile/9",
        outcome=outcome,
        wall_seconds=wall_seconds,
        delay=delay,
    )
    return TelemetryEvent("request", 0, 0.0, "-", fields)


class TestLabelSemantics:
    def test_same_labels_same_series(self):
        families = fold_metrics([_request(category="seeds")] * 3)
        assert families["crawl_requests_total"] == {"seeds": 3}

    def test_distinct_labels_distinct_series(self):
        events = [_request(category="seeds")] + [_request(category="profiles")] * 5
        requests = fold_metrics(events)["crawl_requests_total"]
        assert requests == {"seeds": 1, "profiles": 5}

    def test_label_values_coerced_to_str(self):
        families = fold_metrics([_request(account=17)])
        assert families["crawl_account_requests_total"] == {"17": 1}

    def test_missing_label_rejected(self):
        """A request without a field the fold labels by is an error, not
        a series under a made-up label."""
        event = _request()
        del event.fields["outcome"]
        with pytest.raises(KeyError):
            fold_metrics([event])

    def test_no_label_family_uses_empty_labels(self):
        families = fold_metrics([_request(outcome="account_disabled")] * 4)
        assert families["ratelimit_accounts_disabled_total"] == {None: 4}
        assert "ratelimit_accounts_disabled_total 4" in render_prometheus(families)


class TestHistogramBucketing:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            hist.observe(value)
        # raw (non-cumulative) counts: <=1, (1,5], (5,10], >10
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(111.5)

    def test_cumulative_ends_with_inf_and_total(self):
        hist = Histogram(buckets=(1.0, 5.0))
        for value in (0.1, 2.0, 50.0):
            hist.observe(value)
        cumulative = hist.cumulative()
        assert cumulative == [(1.0, 1), (5.0, 2), (float("inf"), 3)]

    def test_boundary_value_counts_in_lower_bucket(self):
        hist = Histogram(buckets=(1.0, 5.0))
        hist.observe(1.0)
        assert hist.bucket_counts[0] == 1

    def test_default_buckets_cover_sleep_scales(self):
        families = fold_metrics([_request(delay=2.5)])
        hist = families["pacer_sleep_seconds"]["polite"]
        assert hist.buckets == DEFAULT_BUCKETS
        assert hist.count == 1


class TestPrometheusExposition:
    def test_counter_rendering(self):
        text = render_prometheus(fold_metrics([_request(category="seeds")] * 3))
        assert "# HELP crawl_requests_total Successful crawl GETs by Table-3 category" in text
        assert "# TYPE crawl_requests_total counter" in text
        assert 'crawl_requests_total{category="seeds"} 3' in text

    def test_histogram_rendering(self):
        events = [_request(wall_seconds=0.5), _request(wall_seconds=3.0)]
        lines = render_prometheus(fold_metrics(events)).splitlines()
        for line in (
            'frontend_request_wall_seconds_bucket{le="0.25"} 0',
            'frontend_request_wall_seconds_bucket{le="0.5"} 1',
            'frontend_request_wall_seconds_bucket{le="5"} 2',
            'frontend_request_wall_seconds_bucket{le="+Inf"} 2',
            "frontend_request_wall_seconds_sum 3.5",
            "frontend_request_wall_seconds_count 2",
        ):
            assert line in lines

    def test_label_value_escaping(self):
        text = render_prometheus(fold_metrics([_request(category='a"b\\c\nd')]))
        assert 'crawl_requests_total{category="a\\"b\\\\c\\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        """No events: every family is declared, and none has a series."""
        text = render_prometheus(fold_metrics([]))
        assert text.splitlines() == [
            line
            for name, help_text, kind, _ in FAMILIES
            for line in (f"# HELP {name} {help_text}", f"# TYPE {name} {kind}")
        ]
