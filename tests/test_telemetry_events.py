"""Tests for the event bus and its sinks (memory, JSONL, Prometheus)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn.clock import SimClock
from repro.telemetry.events import (
    EventBus,
    JsonlSink,
    MemorySink,
    TelemetryEvent,
    read_jsonl,
)
from repro.telemetry.runtime import Telemetry


def _event(seq=0, kind="request", **fields):
    return TelemetryEvent(kind=kind, seq=seq, sim_ts=1.5, phase="seeds", fields=fields)


class TestEventBus:
    def test_fans_out_to_all_sinks(self):
        a, b = MemorySink(), MemorySink()
        bus = EventBus([a, b])
        bus.publish(_event())
        assert len(a.events) == 1
        assert len(b.events) == 1

    def test_add_sink_after_construction(self):
        bus = EventBus()
        late = MemorySink()
        bus.add_sink(late)
        bus.publish(_event())
        assert len(late.events) == 1


class TestJsonlSink:
    def test_round_trips_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        events = [
            _event(seq=0, account=7, category="seeds"),
            _event(seq=1, kind="throttle", account=7, retry_after=2.5, slept=5.0),
        ]
        for event in events:
            sink.handle(event)
        assert sink.event_count == 2
        sink.close()
        assert read_jsonl(str(path)) == events

    def test_nothing_written_before_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.handle(_event())
        assert not path.exists()
        sink.close()
        assert path.exists()

    def test_close_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.handle(_event())
        sink.close()
        sink.close()
        assert len(read_jsonl(str(path))) == 1

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        event = _event(account=7, category="seeds", slept=1 / 3)
        sink.handle(event)
        sink.close()
        payload = {"kind": "request", "seq": 0, "sim_ts": 1.5, "phase": "seeds", **event.fields}
        assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"

    def test_float_fields_round_trip_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        original = _event(slept=0.30000000000000004, retry_after=1 / 3)
        sink.handle(original)
        sink.close()
        (loaded,) = read_jsonl(str(path))
        assert loaded.fields["slept"] == original.fields["slept"]
        assert loaded.fields["retry_after"] == original.fields["retry_after"]


#: Field values of every JSON scalar kind, including floats whose
#: ``repr`` is long or non-finite and text that needs escaping.
_values = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=20)
)


class TestLineEncoding:
    @given(
        fields=st.dictionaries(
            st.text(min_size=1, max_size=12).filter(
                lambda key: key not in ("kind", "seq", "sim_ts", "phase")
            ),
            _values,
            max_size=8,
        ),
        sim_ts=st.floats(0, 1e9),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_line_is_json_dumps_with_sorted_keys(self, fields, sim_ts):
        event = TelemetryEvent("request", 3, sim_ts, "core", fields)
        payload = {"kind": "request", "seq": 3, "sim_ts": sim_ts, "phase": "core", **fields}
        assert event.to_json() == json.dumps(payload, sort_keys=True)

    def test_event_is_immutable(self):
        event = _event(account=7)
        with pytest.raises(AttributeError):
            event.kind = "throttle"  # type: ignore[misc]


def _attempt(telemetry, account, outcome, delay=2.0):
    telemetry.emit(
        "request",
        account=account,
        category="profiles",
        path="/profile/9",
        outcome=outcome,
        wall_seconds=0.001,
        delay=delay,
    )


class TestPrometheusSink:
    def test_snapshots_registry_on_close(self, tmp_path):
        """The snapshot is a fold of the request and throttle events."""
        path = tmp_path / "metrics.prom"
        telemetry = Telemetry(SimClock())
        telemetry.add_prometheus(str(path))
        _attempt(telemetry, 1, "ok")
        _attempt(telemetry, 1, "rate_limited")
        telemetry.emit("throttle", account=1, category="profiles", retry_after=3.0, slept=6.0)
        _attempt(telemetry, 1, "account_disabled", delay=0.0)
        _attempt(telemetry, 2, "not_found")
        telemetry.emit("span", name="core", sim_seconds=1.0, wall_seconds=0.1)
        assert not path.exists()
        telemetry.close()
        text = path.read_text()
        for line in (
            'crawl_requests_total{category="profiles"} 1',
            'crawl_account_requests_total{account="1"} 1',
            'frontend_requests_total{outcome="ok"} 1',
            'frontend_requests_total{outcome="rate_limited"} 1',
            'frontend_requests_total{outcome="account_disabled"} 1',
            'frontend_requests_total{outcome="not_found"} 1',
            "frontend_request_wall_seconds_count 4",
            'ratelimit_strikes_total{account="1"} 2',
            "ratelimit_accounts_disabled_total 1",
            'pacer_sleep_seconds_count{reason="polite"} 3',
            'pacer_sleep_seconds_sum{reason="polite"} 6',
            'pacer_sleep_seconds_count{reason="backoff"} 1',
            'pacer_sleep_seconds_sum{reason="backoff"} 6',
        ):
            assert line in text.splitlines()
        assert 'account="2"' not in text


class TestTelemetryHandle:
    def test_in_memory_constructor(self):
        telemetry = Telemetry.in_memory(SimClock())
        telemetry.emit("request", account=1)
        assert [e.kind for e in telemetry.events] == ["request"]

    def test_to_jsonl_constructor(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry = Telemetry.to_jsonl(SimClock(), str(path))
        telemetry.emit("request", account=1)
        telemetry.close()
        assert read_jsonl(str(path)) == telemetry.events

    def test_close_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry = Telemetry.to_jsonl(SimClock(), str(path))
        telemetry.emit("request")
        telemetry.close()
        telemetry.close()
        assert len(read_jsonl(str(path))) == 1

    def test_explicit_phase_overrides_stack(self):
        telemetry = Telemetry.in_memory(SimClock())
        with telemetry.span("seeds"):
            telemetry.emit("request", phase="custom")
        assert telemetry.events[0].phase == "custom"
