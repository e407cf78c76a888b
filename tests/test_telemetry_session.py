"""Tests for crawl-session reports, live and from a JSONL trace."""

import pytest

from repro.osn.clock import SimClock
from repro.telemetry.events import read_jsonl
from repro.telemetry.runtime import Telemetry
from repro.telemetry.session import CrawlSessionReport


def _attempt(telemetry, account, category, path, outcome):
    telemetry.emit(
        "request",
        account=account,
        category=category,
        path=path,
        outcome=outcome,
        wall_seconds=0.001,
        delay=0.0,
    )


def _scripted_session(telemetry):
    """Emit a tiny but representative crawl session, as the client does."""
    clock = telemetry.clock
    with telemetry.span("seeds"):
        _attempt(telemetry, 1, "seeds", "/find-friends/browser", "ok")
        clock.sleep(2.0)
        _attempt(telemetry, 1, "seeds", "/find-friends/browser", "rate_limited")
        clock.sleep(6.0)
        telemetry.emit("throttle", account=1, category="seeds", retry_after=3.0, slept=6.0)
    with telemetry.span("core"):
        _attempt(telemetry, 1, "profiles", "/profile/9", "account_disabled")
        telemetry.emit("account_lost", account=1, pinned=False, rotated=True)
        _attempt(telemetry, 2, "profiles", "/profile/9", "ok")


class TestReportFromEvents:
    @pytest.fixture()
    def report(self):
        telemetry = Telemetry(SimClock())
        _scripted_session(telemetry)
        return CrawlSessionReport.from_events(telemetry.events)

    def test_per_phase_breakdown(self, report):
        seeds = report.phases["seeds"]
        assert seeds.pages == 1
        assert seeds.attempts == 2
        assert seeds.throttles == 1
        assert seeds.backoff_seconds == pytest.approx(6.0)
        assert seeds.sim_seconds == pytest.approx(8.0)
        core = report.phases["core"]
        assert core.pages == 1
        assert core.attempts == 2
        assert core.throttles == 0

    def test_per_account_breakdown(self, report):
        one = report.accounts["1"]
        assert one.requests == 1
        assert one.throttles == 1
        assert one.strikes == 1
        assert one.disabled
        two = report.accounts["2"]
        assert two.requests == 1
        assert not two.disabled

    def test_per_category_breakdown(self, report):
        assert report.categories == {"seeds": 1, "profiles": 1}

    def test_totals(self, report):
        assert report.total_requests == 2
        assert report.total_attempts == 4
        assert report.total_throttles == 1
        assert report.total_backoff_seconds == pytest.approx(6.0)
        assert report.accounts_used == 2
        assert report.accounts_lost == 1

    def test_render_contains_all_sections(self, report):
        text = report.render()
        assert "phase" in text and "seeds" in text and "core" in text
        assert "account" in text and "lost" in text
        assert "category" in text and "profiles" in text
        assert "total requests (effort): 2" in text


class TestJsonlRoundTrip:
    def test_replayed_report_identical_to_live(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(SimClock(), jsonl=str(path))
        _scripted_session(telemetry)
        telemetry.close()

        live = CrawlSessionReport.from_events(telemetry.events)
        assert read_jsonl(str(path)) == telemetry.events
        replayed = CrawlSessionReport.from_events(read_jsonl(str(path)))
        assert replayed == live
        assert replayed.render() == live.render()

    def test_empty_trace_replays_to_empty_report(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        report = CrawlSessionReport.from_events(read_jsonl(str(path)))
        assert report.total_requests == 0
        assert report.event_count == 0
        assert "total requests (effort): 0" in report.render()


class TestDurationAndFailures:
    def test_duration_sums_the_top_level_spans(self):
        """A span's clock starts before the polite wait that precedes its
        first request, so the spans see time that the events' own
        timestamps miss; a nested span is counted once, in its parent."""
        telemetry = Telemetry(SimClock())
        clock = telemetry.clock
        with telemetry.span("seeds"):
            clock.sleep(3.0)
            _attempt(telemetry, 1, "seeds", "/find-friends/browser", "ok")
        with telemetry.span("core"):
            with telemetry.span("candidates"):
                clock.sleep(4.0)
                _attempt(telemetry, 1, "profiles", "/profile/9", "ok")
            clock.sleep(1.5)
        report = CrawlSessionReport.from_events(telemetry.events)
        assert report.sim_duration_seconds == pytest.approx(8.5)
        assert "sim crawl duration:      8.5 s\n" in report.render()

    def test_a_trace_without_spans_keeps_last_minus_first(self):
        telemetry = Telemetry(SimClock())
        telemetry.clock.sleep(3.0)
        _attempt(telemetry, 1, "profiles", "/profile/9", "ok")
        telemetry.clock.sleep(4.0)
        _attempt(telemetry, 1, "profiles", "/profile/10", "ok")
        report = CrawlSessionReport.from_events(telemetry.events)
        assert report.sim_duration_seconds == pytest.approx(4.0)

    def test_failures_are_counted_and_rendered(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(SimClock(), jsonl=str(path))
        with telemetry.span("crawl"):
            telemetry.emit(
                "retry_exhausted", account=1, path="/profile/9",
                category="profiles", throttles=4,
            )
            telemetry.emit("unserved", item="profile", uid=9)
            telemetry.emit("unserved", item="friends", uid=9)
        telemetry.close()
        live = CrawlSessionReport.from_events(telemetry.events)
        assert (live.unserved_items, live.retries_exhausted) == (2, 1)
        assert CrawlSessionReport.from_events(read_jsonl(str(path))) == live
        lines = live.render().splitlines()
        at = lines.index("accounts used/lost:      0/0")
        assert lines[at + 1 : at + 3] == [
            "unserved items:          2",
            "retries exhausted:       1",
        ]
