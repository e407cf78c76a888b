"""Tests for sim-clock-aware spans and the handle's phase stack."""

import pytest

from repro.osn.clock import SimClock
from repro.telemetry.runtime import Telemetry


class TestSpans:
    def test_span_measures_simulated_time(self):
        clock = SimClock()
        telemetry = Telemetry(clock)
        with telemetry.span("seeds"):
            clock.sleep(120.0)
        (record,) = telemetry.events
        assert record.fields["name"] == "seeds"
        assert record.fields["sim_seconds"] == pytest.approx(120.0)
        assert record.fields["wall_seconds"] < 1.0  # sim sleep costs no wall time

    def test_nested_spans_track_parent_and_current(self):
        telemetry = Telemetry(SimClock())
        assert telemetry.phase == "-"
        with telemetry.span("core"):
            assert telemetry.phase == "core"
            with telemetry.span("friend_lists"):
                assert telemetry.phase == "friend_lists"
            assert telemetry.phase == "core"
        assert telemetry.phase == "-"
        inner, outer = (e.fields for e in telemetry.events)
        assert inner["parent"] == "core"
        assert outer["parent"] == "-"

    def test_span_closes_on_exception(self):
        telemetry = Telemetry(SimClock())
        with pytest.raises(RuntimeError):
            with telemetry.span("seeds"):
                raise RuntimeError("boom")
        assert telemetry.phase == "-"
        (record,) = telemetry.events
        assert record.fields["name"] == "seeds"
        assert record.fields["error"] is True


class TestTelemetryIntegration:
    def test_span_close_emits_event_attributed_to_parent(self):
        clock = SimClock()
        telemetry = Telemetry(clock)
        with telemetry.span("core"):
            clock.sleep(10.0)
            with telemetry.span("friend_lists"):
                clock.sleep(5.0)
        events = telemetry.events
        assert [e.fields["name"] for e in events] == ["friend_lists", "core"]
        inner, outer = events
        assert inner.phase == "core"  # popped before emit -> parent phase
        assert inner.fields["sim_seconds"] == pytest.approx(5.0)
        assert outer.phase == "-"
        assert outer.fields["sim_seconds"] == pytest.approx(15.0)
        assert outer.fields["error"] is False

    def test_events_inside_span_carry_phase(self):
        clock = SimClock()
        telemetry = Telemetry(clock)
        telemetry.emit("request", account=1)
        with telemetry.span("seeds"):
            telemetry.emit("request", account=1)
        first, second, _span = telemetry.events
        assert first.phase == "-"
        assert second.phase == "seeds"

    def test_sequence_and_sim_timestamps_monotonic(self):
        clock = SimClock()
        telemetry = Telemetry(clock)
        telemetry.emit("a")
        clock.sleep(3.0)
        telemetry.emit("b")
        first, second = telemetry.events
        assert (first.seq, second.seq) == (0, 1)
        assert second.sim_ts - first.sim_ts == pytest.approx(3.0)
